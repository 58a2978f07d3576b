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
import stat
import sys
from contextlib import ExitStack, nullcontext, suppress
from itertools import islice, repeat

from . import __version__, enumeration, lattice, words
from .errors import DyckError, InvalidJson, OutOfMemory, UnreadableInput, UnwritableOutput


def _error_line(exc: DyckError | MemoryError) -> str:
    if isinstance(exc, MemoryError):
        exc = OutOfMemory()
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
        except (DyckError, MemoryError) as exc:
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


def _int_at_least(low: int, high: int | None = None):
    """An argparse type for integers in [low, high]; ``high`` None sets no upper bound."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high:.0e}")
        return value
    return parse


_non_negative = _int_at_least(0)
# The box views draw float coordinates; the wireframe canvas leaves float range
# near n = 1.7e306, so their n stops well short of that.
_box_n = _int_at_least(1, 10**300)
#: The geometry report's float side lengths (√6·n at most) leave float range near n = 7.3e307.
_geometry_n = _int_at_least(0, 10**307)
#: count pays catalan(n), a binomial of about 0.6n digits, before its first line, and
#: sample walks O(n) steps on Θ(n)-bit integers per word, so a large n never answers:
#: their n stops where one count or one drawn word stays within 5 s (README, "Command line").
_COUNT_N = 2 * 10**5
_SAMPLE_N = 5 * 10**4
#: The triangle overlay and the JSON geometry report list the 3(n + 1) side nodes:
#: their time, memory and bytes grow with n, so there n stops at a few MB of output.
_TRIANGLE_N = 10**5


def _side_nodes_option(args) -> str | None:
    """The option with which a request lists the triangle's side nodes, or None."""
    if getattr(args, "triangle", False):
        return "--triangle"
    return "--format json" if args.subcommand == "geometry" and args.format == "json" else None


def _axes_arg(text: str):
    from .projections import axis_set
    try:
        return axis_set(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _write_document(text: str, out: str | None, *files):
    """Write ``text`` to the file ``out`` (stdout if None) and each (text, path) of ``files``.

    Every file is opened for appending, which truncates nothing, and then for
    writing before any byte is written, so one that cannot be opened, or two
    outputs naming one regular file (by a link or stdout's redirect, too), fail
    the command with nothing on stdout and every existing file as it was.
    """
    files = [(text, out), *files] if out is not None else files
    try:
        with ExitStack() as stack:
            stats = [os.fstat(stack.enter_context(open(path, "a", encoding="utf-8")).fileno())
                     for _, path in files]
            if out is None:
                with suppress(OSError):  # a StringIO has no descriptor to alias
                    stats.append(os.fstat(sys.stdout.fileno()))
            regular = [(st.st_dev, st.st_ino) for st in stats if stat.S_ISREG(st.st_mode)]
            if len(set(regular)) < len(regular):
                raise UnwritableOutput("two outputs name the same file")
            handles = [stack.enter_context(open(path, "w", encoding="utf-8")) for _, path in files]
            for handle, (body, _) in zip(handles, files):
                handle.write(body)
    except OSError as exc:
        raise UnwritableOutput("output file cannot be written") from exc
    if out is None:
        sys.stdout.write(text)


def _validate_line(args, text: str) -> str:
    return f"valid n={words.parse_word(text).n}"


def _int_rows(columns) -> str:
    """``json.dumps(rows, separators=(",", ":"))`` for the rows of equally long int columns.

    The values fill one ``%d`` template, which writes an int as ``json.dumps``
    does; a bool (``True``) or a float would not match, so only int columns may
    reach it.  Column k is the strided slice ``values[k::width]`` of the values
    in row order, assigned whole, so no row is built.  Its callers,
    :func:`_convert_line`, :func:`_project_line` and :func:`_lift_line`, pass
    canonical columns, which hold only ints: those of a word
    (``words._parsed_columns``) or columns that the axes select from them, or
    those the path check or the lift check returns (``words._columns_from_lists``,
    ``projections._lift_columns``).
    """
    width, length = len(columns), len(columns[0])
    values = [0] * (width * length)
    for k, column in enumerate(columns):
        values[k::width] = column
    row = "[" + ",".join(repeat("%d", width)) + "]"
    template = "[" + ",".join(repeat(row, length)) + "]"
    return template % tuple(values)


def _path_line(columns, to: str) -> str:
    """The line of a path given by its (i, j, l, r) columns: its word or its nodes."""
    if to == "word":
        return words._word_of(columns[2])
    return _int_rows(columns)


def _convert_line(args, text: str) -> str:
    if args.to == "path":
        return _int_rows(words._parsed_columns(text))
    return _path_line(words._columns_from_lists(_json(text)), args.to)


def _project_line(args, text: str) -> str:
    from . import projections
    columns = projections._selector(args.axes)(words._parsed_columns(text))
    axes = json.dumps(list(args.axes), separators=(",", ":"))
    return f'{{"axes":{axes},"points":{_int_rows(columns)}}}'


def _lift_line(args, text: str) -> str:
    from . import projections
    return _path_line(projections._lift_columns(*projections._json_columns(_json(text))),
                      args.to)


def _digits(k: int) -> str:
    """``str(k)``, also past the interpreter's int digit limit (4300 by default)."""
    try:
        return str(k)
    except ValueError:  # the limit guards str's quadratic time; decimal's is subquadratic
        from decimal import Decimal
        return str(Decimal(k))


def cmd_count(args) -> int:
    if args.node is not None:
        node = words.LatticeNode(*args.node)
        counts = [(node, lattice.count_paths_through(node, args.n))]
    else:
        counts = lattice._all_counts(args.n)
    for node, count in counts:
        if args.format == "json":
            print(json.dumps({"node": list(node), "n": args.n, "count": _digits(count)},
                             separators=(",", ":")))
        else:
            print(f"{node.i},{node.j},{node.l},{node.r}\t{_digits(count)}")
    return 0


def cmd_geometry(args) -> int:
    from . import geometry
    if args.format == "json":
        # The report is a fresh tree of dicts and lists, so it holds no cycle.
        print(json.dumps(geometry.geometry_report(args.n), separators=(",", ":"),
                         check_circular=False))
        return 0
    report = geometry._summary(args.n)  # text prints no node, so none is built
    v = report["vertices"]
    print(f"n={report['n']} origin={v['origin']} end={v['end']} apex={v['apex']}")
    for name in geometry.SIDES:
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
        return json.dumps({"word": word, "rank": _digits(k)}, separators=(",", ":"))
    return text


def cmd_enumerate(args) -> int:
    for k, word in enumerate(enumeration.enumerate_words(args.n)):
        print(_ranked_line(args, word, k, word))
    return 0


def _rank_line(args, text: str) -> str:
    word = words.parse_word(text)
    k = enumeration.rank(word)
    return _ranked_line(args, word, k, _digits(k))


def cmd_sample(args) -> int:
    for k, word in islice(enumeration._draws(random.Random(args.seed), args.n), args.count):
        print(_ranked_line(args, word, k, word))
    return 0


# In the order of double_tesseract(n).cells: per axis, the low cell then the high one.
_CELL_NAMES = [f"{axis}{end}" for axis in words.AXES for end in ("min", "max")]


def cmd_render(args) -> int:
    from . import geometry, projections, render
    if args.view == "grid":
        overlay = None
        if args.word is not None:
            overlay = projections._selector(args.axes)(words._parsed_columns(args.word))
        _write_document(render._grid(args.axes, args.n, overlay), args.out)
        return 0
    box = geometry.double_tesseract(args.n)
    structure = box
    if args.view == "wireframe" and args.cell is not None:
        structure = box.cells[_CELL_NAMES.index(args.cell)]
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
    p.add_argument("--n", type=_int_at_least(0, _COUNT_N), required=True)
    p.add_argument("--node", type=_node_arg, default=None, help="i,j,l,r; default: all nodes")
    _add_format(p)
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("geometry", help="triangle and box report")
    p.add_argument("--n", type=_geometry_n, required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_geometry, subparser=p)

    p = sub.add_parser("enumerate", help="all words of a half-length, in order")
    p.add_argument("--n", type=_non_negative, required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("rank", help="index of a word in the enumeration")
    _add_word_inputs(p, _rank_line)
    _add_format(p)

    p = sub.add_parser("sample", help="uniform random words, deterministic per seed")
    p.add_argument("--n", type=_int_at_least(0, _SAMPLE_N), required=True)
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
    w.add_argument("--n", type=_box_n, required=True)
    # The triangle lies in the whole box, not in one cell.
    shown = w.add_mutually_exclusive_group()
    shown.add_argument("--cell", choices=sorted(_CELL_NAMES), default=None)
    shown.add_argument("--triangle", action="store_true", help="overlay the triangle sides")
    w.add_argument("--out", default=None)
    w.add_argument("--edges", default=None, help="also write the edge-list file here")
    w.set_defaults(handler=cmd_render, subparser=w)

    s = view.add_parser("schlegel", help="nested-cube view of the 4D box")
    s.add_argument("--n", type=_box_n, required=True)
    s.add_argument("--triangle", action="store_true")
    s.add_argument("--out", default=None)
    s.add_argument("--edges", default=None)
    s.set_defaults(handler=cmd_render, subparser=s)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        option = _side_nodes_option(args)
        if option is not None and args.n > _TRIANGLE_N:
            args.subparser.error(f"argument --n: must be at most {_TRIANGLE_N:.0e} with {option}")
    except SystemExit as exc:
        return exc.code
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return status
    except (DyckError, MemoryError) as exc:
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
