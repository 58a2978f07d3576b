"""Command-line front end.

Subcommands: validate, convert, project, lift, count, geometry, enumerate,
rank, sample, render.  Words arrive as a positional argument, via --file,
or on standard input one per line (precedence in that order).  Exit codes:
0 success, 1 domain error (one ``error:<kind>:<detail>`` line on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import enumeration, geometry, lattice, projections, render, words
from .errors import DyckError


def _error_line(exc: DyckError) -> str:
    if exc.detail is not None:
        return f"error:{exc.kind}:{exc.detail}"
    return f"error:{exc.kind}"


def _input_lines(args):
    """Word/JSON sources by precedence: positional > --file > stdin."""
    if getattr(args, "input", None) is not None:
        yield args.input
        return
    if getattr(args, "file", None) is not None:
        with open(args.file, "r", encoding="utf-8") as handle:
            for line in handle:
                yield line.rstrip("\n")
        return
    for line in sys.stdin:
        yield line.rstrip("\n")


def _node_arg(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("node must be i,j,l,r")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("node coordinates must be integers") from exc


def _int_at_least(low: int):
    """An argparse type for integers no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


_non_negative = _int_at_least(0)
_positive = _int_at_least(1)


def _axes_arg(text: str):
    try:
        return projections.AxisSet.of(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _write_document(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_validate(args) -> int:
    status = 0
    for text in _input_lines(args):
        try:
            word = words.parse_word(text)
        except DyckError as exc:
            print(_error_line(exc), file=sys.stderr)
            status = 1
        else:
            print(f"valid n={word.n}")
    return status


def cmd_convert(args) -> int:
    for text in _input_lines(args):
        if args.to == "path":
            path = words.word_to_path(words.parse_word(text))
            print(json.dumps(words.path_as_lists(path), separators=(",", ":")))
        else:
            path = words.path_from_lists(json.loads(text))
            print(words.render_word(words.path_to_word(path)))
    return 0


def cmd_project(args) -> int:
    axes = args.axes
    for text in _input_lines(args):
        proj = projections.project(words.word_to_path(words.parse_word(text)), axes)
        print(json.dumps(projections.projected_path_as_json(proj), separators=(",", ":")))
    return 0


def cmd_lift(args) -> int:
    for text in _input_lines(args):
        proj = projections.projected_path_from_json(json.loads(text))
        path = projections.lift(proj)
        if args.to == "word":
            print(words.render_word(words.path_to_word(path)))
        else:
            print(json.dumps(words.path_as_lists(path), separators=(",", ":")))
    return 0


def cmd_count(args) -> int:
    if args.node is not None:
        nodes = [words.LatticeNode(*args.node)]
    else:
        nodes = lattice.enumerate_nodes(lattice.LatticeRegion(args.n))
    for node in nodes:
        count = lattice.count_paths_through(node, args.n)
        if args.format == "json":
            print(json.dumps({"node": list(node), "n": args.n, "count": str(count)},
                             separators=(",", ":")))
        else:
            print(f"{node.i},{node.j},{node.l},{node.r}\t{count}")
    return 0


def cmd_geometry(args) -> int:
    report = geometry.geometry_report(args.n)
    if args.format == "json":
        print(json.dumps(report, separators=(",", ":")))
        return 0
    v = report["vertices"]
    print(f"n={report['n']} origin={v['origin']} end={v['end']} apex={v['apex']}")
    for name in ("blue", "red", "yellow"):
        side = report["sides"][name]
        print(f"{name}: squared_length={side['squared_length']} length={side['length']}")
    print(f"flat={report['flat']}")
    if "checks" in report:
        c = report["checks"]
        print(f"right_angle={c['right_angle']} isosceles={c['isosceles']} "
              f"pythagoras={c['pythagoras']} dot={c['dot']}")
        t = report["tesseract"]
        print(f"tesseract: {t['vertices']} vertices, {t['edges']} edges, "
              f"{t['cells']} cells ({t['cube_cells']} cubes)")
    return 0


def _print_ranked(args, word, k, text) -> None:
    """One ranked word: a {"word", "rank"} JSON line, or ``text`` as is."""
    if args.format == "json":
        print(json.dumps({"word": words.render_word(word), "rank": str(k)},
                         separators=(",", ":")))
    else:
        print(text)


def cmd_enumerate(args) -> int:
    for k, word in enumerate(enumeration.enumerate_words(args.n)):
        _print_ranked(args, word, k, words.render_word(word))
    return 0


def cmd_rank(args) -> int:
    for text in _input_lines(args):
        word = words.parse_word(text)
        k = enumeration.rank(word)
        _print_ranked(args, word, k, k)
    return 0


def cmd_sample(args) -> int:
    rng = random.Random(args.seed)
    total = enumeration.catalan(args.n)
    for _ in range(args.count):
        k = enumeration.draw_uniform_rank(rng, total)
        word = enumeration.unrank(k, args.n)
        _print_ranked(args, word, k, words.render_word(word))
    return 0


_CELL_CHOICES = {
    "imin": (words.Axis.I, 0), "imax": (words.Axis.I, None),
    "jmin": (words.Axis.J, 0), "jmax": (words.Axis.J, None),
    "lmin": (words.Axis.L, 0), "lmax": (words.Axis.L, None),
    "rmin": (words.Axis.R, 0), "rmax": (words.Axis.R, None),
}


def cmd_render(args) -> int:
    if args.view == "grid":
        axes = args.axes
        proj = None
        if args.word is not None:
            proj = projections.project(
                words.word_to_path(words.parse_word(args.word)), axes)
        _write_document(render.render_grid_2d(axes, args.n, proj), args.out)
        return 0
    box = geometry.double_tesseract(args.n)
    structure = box
    if args.view == "wireframe" and args.cell is not None:
        axis, value = _CELL_CHOICES[args.cell]
        if value is None:
            value = 2 * args.n if axis is words.Axis.I else args.n
        structure = box.cell(axis, value)
    style = "schlegel" if args.view == "schlegel" else "orthographic-3d"
    svg, edge_list = render.render_wireframe(structure, style,
                                             include_triangle=args.triangle)
    _write_document(svg, args.out)
    if args.edges is not None:
        _write_document(edge_list, args.edges)
    return 0


def _add_word_inputs(parser):
    parser.add_argument("input", nargs="?", default=None,
                        help="word (or JSON) as a positional argument")
    parser.add_argument("--file", default=None,
                        help="read inputs from this file, one per line")


def _add_format(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyck4d",
        description="Balanced parentheses as exact paths in a 4D lattice.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check words and report their half-length")
    _add_word_inputs(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("convert", help="word -> 4D path JSON, or back")
    p.add_argument("--to", choices=("path", "word"), required=True)
    _add_word_inputs(p)
    p.set_defaults(handler=cmd_convert)

    p = sub.add_parser("project", help="project a word's path onto an axis set")
    p.add_argument("--axes", type=_axes_arg, required=True, help="e.g. lr, ij, ijlr")
    _add_word_inputs(p)
    p.set_defaults(handler=cmd_project)

    p = sub.add_parser("lift", help="lift a projected path back to 4D")
    p.add_argument("--to", choices=("path", "word"), default="path")
    _add_word_inputs(p)
    p.set_defaults(handler=cmd_lift)

    p = sub.add_parser("count", help="paths through a node (JSON lines with --format json)")
    p.add_argument("--n", type=_non_negative, required=True)
    p.add_argument("--node", type=_node_arg, default=None, help="i,j,l,r; default: all nodes")
    _add_format(p)
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("geometry", help="triangle and box report")
    p.add_argument("--n", type=_non_negative, required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_geometry)

    p = sub.add_parser("enumerate", help="all words of a half-length, in order")
    p.add_argument("--n", type=_non_negative, required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("rank", help="index of a word in the enumeration")
    _add_word_inputs(p)
    _add_format(p)
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("sample", help="uniform random words, deterministic per seed")
    p.add_argument("--n", type=_non_negative, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_non_negative, default=1)
    _add_format(p)
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("render", help="emit SVG figures and edge lists")
    view = p.add_subparsers(dest="view", required=True)

    g = view.add_parser("grid", help="2-axis grid with isolines")
    g.add_argument("--axes", type=_axes_arg, required=True)
    g.add_argument("--n", type=_non_negative, required=True)
    g.add_argument("--word", default=None, help="overlay this word's projected path")
    g.add_argument("--out", default=None, help="SVG output file (default: stdout)")
    g.set_defaults(handler=cmd_render)

    w = view.add_parser("wireframe", help="oblique view of the 4D box or one cell")
    w.add_argument("--n", type=_positive, required=True)
    w.add_argument("--cell", choices=sorted(_CELL_CHOICES), default=None)
    w.add_argument("--triangle", action="store_true", help="overlay the triangle sides")
    w.add_argument("--out", default=None)
    w.add_argument("--edges", default=None, help="also write the edge-list file here")
    w.set_defaults(handler=cmd_render)

    s = view.add_parser("schlegel", help="nested-cube view of the 4D box")
    s.add_argument("--n", type=_positive, required=True)
    s.add_argument("--triangle", action="store_true")
    s.add_argument("--out", default=None)
    s.add_argument("--edges", default=None)
    s.set_defaults(handler=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except DyckError as exc:
        print(_error_line(exc), file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error:invalid-json:{exc.pos}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main(sys.argv[1:]))
