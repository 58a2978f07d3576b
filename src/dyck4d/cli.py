"""Command-line front end.

Subcommands: validate, convert, project, lift, count, geometry, enumerate,
rank, sample, render.  Words arrive as a positional argument, via --file,
or on standard input one per line (precedence in that order).  Exit codes:
0 success, 1 domain error (one ``error:<kind>:<detail>`` line on stderr),
2 usage error.  validate, convert, project, lift and rank give every input
line its output line or one error line, and exit 1 if any line failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from contextlib import ExitStack, nullcontext

from . import __version__, enumeration, geometry, lattice, projections, render, words
from .errors import DyckError, InvalidJson, UnreadableInput, UnwritableOutput


def _error_line(exc: DyckError) -> str:
    if exc.detail is not None:
        return f"error:{exc.kind}:{exc.detail}"
    return f"error:{exc.kind}"


def _input_lines(args):
    """Word/JSON sources by precedence: positional > --file > stdin."""
    if args.input is not None:
        yield args.input
        return
    try:
        with (nullcontext(sys.stdin) if args.file is None
              else open(args.file, encoding="utf-8")) as handle:
            for line in handle:
                yield line.rstrip("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableInput("input cannot be opened or is not UTF-8 text") from exc


def _batch(args) -> int:
    """Every input line gets its output line or one error line; 1 if any failed."""
    status = 0
    for text in _input_lines(args):
        try:
            print(args.line(args, text))
        except DyckError as exc:
            print(_error_line(exc), file=sys.stderr)
            status = 1
    return status


def _json(text: str):
    """``json.loads``, with every way it rejects its input raised as :class:`InvalidJson`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidJson("input is not JSON", exc.pos) from exc
    except (RecursionError, ValueError) as exc:  # nested too deeply; an integer too long
        raise InvalidJson("JSON too deeply nested or integer too long") from exc


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


def _write_document(text: str, out: str | None, *files):
    """Write ``text`` to the file ``out`` (stdout if None) and each (text, path) of ``files``.

    Every file is opened for appending, which truncates nothing, and then for
    writing before any byte is written, so one that cannot be opened fails the
    command with nothing on stdout and every existing file as it was.
    """
    files = [(text, out), *files] if out is not None else files
    try:
        with ExitStack() as stack:
            for mode in ("a", "w"):
                handles = [stack.enter_context(open(path, mode, encoding="utf-8")) for _, path in files]
            for handle, (body, _) in zip(handles, files):
                handle.write(body)
    except OSError as exc:
        raise UnwritableOutput("output file cannot be written") from exc
    if out is None:
        sys.stdout.write(text)


def _validate_line(args, text: str) -> str:
    return f"valid n={words.parse_word(text).n}"


def _path_line(path, to: str) -> str:
    if to == "word":
        return words.render_word(words.path_to_word(path))
    return json.dumps(path.nodes, separators=(",", ":"))


def _convert_line(args, text: str) -> str:
    if args.to == "path":
        return _path_line(words.word_to_path(words.parse_word(text)), args.to)
    return _path_line(words.path_from_lists(_json(text)), args.to)


def _project_line(args, text: str) -> str:
    proj = projections.project(words.word_to_path(words.parse_word(text)), args.axes)
    return json.dumps({"axes": args.axes.names(), "points": proj.points}, separators=(",", ":"))


def _lift_line(args, text: str) -> str:
    return _path_line(projections.lift(projections.projected_path_from_json(_json(text))),
                      args.to)


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


def _ranked_line(args, word, k, text) -> str:
    """One ranked word: a {"word", "rank"} JSON line, or ``text`` as is."""
    if args.format == "json":
        return json.dumps({"word": words.render_word(word), "rank": str(k)},
                          separators=(",", ":"))
    return str(text)


def cmd_enumerate(args) -> int:
    for k, word in enumerate(enumeration.enumerate_words(args.n)):
        print(_ranked_line(args, word, k, words.render_word(word)))
    return 0


def _rank_line(args, text: str) -> str:
    word = words.parse_word(text)
    k = enumeration.rank(word)
    return _ranked_line(args, word, k, k)


def cmd_sample(args) -> int:
    rng = random.Random(args.seed)
    total = enumeration.catalan(args.n)
    for _ in range(args.count):
        k = enumeration.draw_uniform_rank(rng, total)
        word = enumeration.unrank(k, args.n)
        print(_ranked_line(args, word, k, words.render_word(word)))
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
    edges = [(edge_list, args.edges)] if args.edges is not None else []
    _write_document(svg, args.out, *edges)
    return 0


def _add_word_inputs(parser, line):
    """Inputs for a batch subcommand; ``line`` maps (args, input line) to its output line."""
    parser.add_argument("input", nargs="?", default=None,
                        help="word (or JSON) as a positional argument")
    parser.add_argument("--file", default=None,
                        help="read inputs from this file, one per line")
    parser.set_defaults(handler=_batch, line=line)


def _add_format(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dyck4d",
        description="Balanced parentheses as exact paths in a 4D lattice.")
    parser.add_argument("--version", action="version", version=f"dyck4d {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check words and report their half-length")
    _add_word_inputs(p, _validate_line)

    p = sub.add_parser("convert", help="word -> 4D path JSON, or back")
    p.add_argument("--to", choices=("path", "word"), required=True)
    _add_word_inputs(p, _convert_line)

    p = sub.add_parser("project", help="project a word's path onto an axis set")
    p.add_argument("--axes", type=_axes_arg, required=True, help="e.g. lr, ij, ijlr")
    _add_word_inputs(p, _project_line)

    p = sub.add_parser("lift", help="lift a projected path back to 4D")
    p.add_argument("--to", choices=("path", "word"), default="path")
    _add_word_inputs(p, _lift_line)

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
    _add_word_inputs(p, _rank_line)
    _add_format(p)

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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return status
    except DyckError as exc:
        print(_error_line(exc), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # As in the SIGPIPE note of the Python docs: point stdout at devnull so
        # the flush at interpreter exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(_error_line(UnwritableOutput("standard output was closed")), file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main(sys.argv[1:]))
