"""Golden corpus for the paths subcommands: validate, convert, project and lift
print the same bytes and exit with the same code as before their word, path
and projection checks were rewritten to work on whole columns.  The corpus
also pins the counting routes that no other corpus runs: ``count --node`` in
text and JSON, with a good, a short, a non-integer and an off-lattice node;
``count --format json`` over all nodes; and ``rank``, ``enumerate`` and
``sample`` with ``--format json``.  A usage error's stderr is argparse's usage
line and message, formatted for an 80-column terminal.

``data/paths_golden.json`` maps every case to the SHA-256 of its stdout, the
SHA-256 of its stderr and its exit code, recorded from the row-by-row
implementation; the lifts of JSON of the wrong shape, where an exception escaped
``main`` there, were recorded later.  The fault cases (lifts bent mid-path on
every grid, and path and projection lines with a bool or a float past their
second row) were recorded before the lift check and the JSON reader moved to
strided slices, and pin the error each line names.

Record the cases that have no entry yet with ``PYTHONPATH=src python
tests/golden.py``, the record command of every golden corpus.  It fills in
missing entries only, so re-recording one (only when a change of output is
intended) means deleting it first.
"""

import json
import random
from pathlib import Path

import pytest

import golden
import oracles

DATA = Path(__file__).parent / "data" / "paths_golden.json"

AXIS_SETS = ("ij", "il", "ir", "jl", "jr", "lr", "ijl", "ijr", "ilr", "jlr", "ijlr")

_rng = random.Random(20191)
GOOD_WORDS = [oracles.random_word_text(_rng, n)
              for n in (0, 1, 1, 2, 3, 4, 5, 7, 10, 16, 25, 40, 64, 100, 160, 230, 300)]
GOOD_WORDS += [" ( ) ", "(\t())\r", "\f()\v()"]

_long = GOOD_WORDS[13]
BAD_WORDS = [
    ")(", "(()", "())", "(a)", "x", "(()))(", "((( ", "（）", "(\x00)", ")", "(",
    "[]", _long + "?", _long + "(", _long[:-1], ")" + _long[1:], _long[:60] + ")(" + _long[62:],
    "(" * 300 + ")" * 299, "() ()) (",
]

GOOD_PATHS = [oracles.path_json("".join(w.split())) for w in GOOD_WORDS]
BAD_PATHS = [
    "[]", "{}", '{"a":1}', "[[0,0,0,0],[5,5,5,5]]", "[[1,1,1,0]]", "[[0,0,0,0],[1,-1,0,1]]",
    "[[0,0,0,0],[1,1,1]]", '[[0,0,0,0],[1,1,1,"0"]]', "[[0,0,0,0],[1.0,1,1,0]]",
    '[[0,0,0,0],"abcd"]', "[[0,0,0,0],[1,1,0,1]]", "[[0,0,0,0],[1,1,1,0],[2,2,2,0],[1,1,1,0]]",
    "[[0,0,0,0],[1,1,1,0],[1,1,1,0]]", "[[0,0,0,0],[1,1,1,0],[2,0,1,1],[3,-1,1,2]]",
    "[[0,0,0,0],[true,true,true,false]]", "[[false,false,false,false],[true,true,true,false],[2,0,1,1]]",
    "[[0,0,0,0],[1,1,1,0],[2,2,2,0],[3,1,2,1],[4,0,2,2],[5,1,3,2],[6,2,4,2],[7,1,4,3]]",
    "[[0,0", GOOD_PATHS[13][:-1] + ",[1,1,1,1]]",
]


BAD_PROJECTIONS = [
    '{"axes":["i","j"],"points":[[0,0],[1,0]]}', '{"axes":["i","j","l"],"points":[[0,0,0],[1,1,0]]}',
    '{"axes":["i","j","l","r"],"points":[[0,0,0,0],[1,1,1,1]]}', '{"axes":["l","r"],"points":[[0,0],[2,0]]}',
    '{"axes":["l","r"],"points":[[0,0],[0,1]]}', '{"axes":["l","r"],"points":[[1,0]]}',
    '{"axes":["l","r"],"points":[]}', '{"axes":["l","r"],"points":[[0,0],[1.5,0]]}',
    '{"axes":["l","r"],"points":[["0","0"]]}', '{"axes":["l","r"],"points":[[false,false],[true,false]]}',
    '{"axes":["r","l"],"points":[[0,0],[1,0],[1,1]]}', '{"axes":["L","R"],"points":[[0,0],[1,0],[1,1]]}',
    '{"axes":"lr","points":[[0,0],[1,0],[1,1]]}', '{"axes":["j","r"],"points":[[0,0],[-1,1]]}',
    '{"axes":["i","r"],"points":[[0,0],[1,1],[2,1]]}', '{"axes":["i","j"],"points":[[0,0],[1,1],[3,1]]}',
    '{"axes"',
    # wrong shapes: these escaped main as exceptions before
    '{"axes":["q"],"points":[]}', "5", '{"points":[[0,0]]}', '{"axes":["l","r"],"points":[[0,0,0]]}',
    '{"axes":["l","r"],"points":[["x",0]]}', "[]", '"lr"', "null", '{"axes":["l","r"]}',
    '{"axes":["l","r"],"points":5}', '{"axes":["l","r"],"points":[5]}', '{"axes":5,"points":[]}',
    '{"axes":["l","r"],"points":[[0]]}', '{"axes":[1,2],"points":[]}', '{"axes":["l","l"],"points":[]}',
    '{"axes":["l"],"points":[[0]]}', '{"axes":["i","j","l","r","r"],"points":[]}',
    '{"axes":["l","r"],"points":[[null,0]]}', '{"axes":["l","r"],"points":[[0,0],[1e400,0]]}',
    '{"axes":["l","r"],"points":[[NaN,0]]}', '{"axes":["l","r"],"points":[[0,0],[1,0],[1,1,2]]}',
]


def _cases():
    """(case id, argv, stdin) for every case of the corpus."""
    good = "".join(f"{w}\n" for w in GOOD_WORDS)
    yield "validate <all words>", ["validate"], good + "".join(f"{w}\n" for w in BAD_WORDS)
    yield "validate <positional>", ["validate", GOOD_WORDS[8]], ""
    yield "convert --to path <good words>", ["convert", "--to", "path"], good
    yield "convert --to word <good paths>", ["convert", "--to", "word"], "\n".join(GOOD_PATHS)
    for axes in AXIS_SETS:
        yield f"project --axes {axes} <good words>", ["project", "--axes", axes], good
        for to in ("path", "word"):
            lines = "".join(f"{oracles.projected_json(w, axes)}\n" for w in GOOD_WORDS[:-3])
            yield f"lift --to {to} <good {axes}>", ["lift", "--to", to], lines
    for k, word in enumerate(BAD_WORDS):
        yield f"convert --to path <bad word {k}>", ["convert", "--to", "path", word], ""
        yield f"project --axes jr <bad word {k}>", ["project", "--axes", "jr"], word + "\n"
    for k, path in enumerate(BAD_PATHS):
        yield f"convert --to word <bad path {k}>", ["convert", "--to", "word", path], ""
    for k, data in enumerate(BAD_PROJECTIONS):
        for to in ("path", "word"):
            yield f"lift --to {to} <bad projection {k}>", ["lift", "--to", to, data], ""
    yield from _mixed_cases()
    for axes in AXIS_SETS:
        prefix = oracles.projected_json(UNBALANCED_PREFIX, axes)
        for to in ("path", "word"):
            yield f"lift --to {to} <unbalanced prefix {axes}>", ["lift", "--to", to], prefix + "\n"
    for argv in BATCH_COMMANDS:
        for name, line in (("empty word", ""), ("origin path", "[[0,0,0,0]]")):
            yield f"{' '.join(argv)} <{name}>", argv, line + "\n"
    for axes in AXIS_SETS:
        for to in ("path", "word"):
            yield (f"lift --to {to} <empty word {axes}>", ["lift", "--to", to],
                   oracles.projected_json("", axes) + "\n")
    yield from _counting_cases()
    yield from _fault_cases()


#: A prefix whose unbalance never returns to 0 after its first step: every
#: grid's image of it lifts to a path, but to no balanced word.
UNBALANCED_PREFIX = "(" + GOOD_WORDS[11] + "(()"

BATCH_COMMANDS = (["validate"], ["convert", "--to", "path"], ["convert", "--to", "word"],
                  *(["project", "--axes", axes] for axes in AXIS_SETS),
                  ["lift", "--to", "path"], ["lift", "--to", "word"], ["rank"])


def _mixed_cases():
    """One stdin batch per command with bad lines between good ones: every line
    gets its own output or error line, in order."""
    def lines(*items):
        return "".join(f"{item}\n" for item in items)
    words = lines(GOOD_WORDS[5], BAD_WORDS[1], GOOD_WORDS[12], BAD_WORDS[17], GOOD_WORDS[0],
                  BAD_WORDS[3], GOOD_WORDS[18])
    yield "convert --to path <mixed batch>", ["convert", "--to", "path"], words
    yield "project --axes jr <mixed batch>", ["project", "--axes", "jr"], words
    paths = lines(GOOD_PATHS[5], BAD_PATHS[11], GOOD_PATHS[12], BAD_PATHS[16], GOOD_PATHS[0],
                  BAD_PATHS[7], GOOD_PATHS[9])
    yield "convert --to word <mixed batch>", ["convert", "--to", "word"], paths
    projections = lines(oracles.projected_json(GOOD_WORDS[5], "il"), BAD_PROJECTIONS[3],
                        oracles.projected_json(GOOD_WORDS[12], "jr"),
                        oracles.projected_json(UNBALANCED_PREFIX, "lr"), BAD_PROJECTIONS[14],
                        oracles.projected_json(GOOD_WORDS[0], "ijr"), BAD_PROJECTIONS[20],
                        oracles.projected_json(GOOD_WORDS[9], "ij"))
    for to in ("path", "word"):
        yield f"lift --to {to} <mixed batch>", ["lift", "--to", to], projections


def _counting_cases():
    """The node and JSON routes of the counting subcommands; only rank reads stdin."""
    for node in ("2,0,1,1", "1,1,1", "1,x,1,0", "1,0,1,0"):
        for fmt in ("text", "json"):
            argv = ["count", "--n", "3", "--node", node, "--format", fmt]
            yield " ".join(argv), argv, ""
    for argv in (["count", "--n", "4", "--format", "json"],
                 ["enumerate", "--n", "4", "--format", "json"],
                 ["sample", "--n", "6", "--seed", "7", "--count", "5", "--format", "json"]):
        yield " ".join(argv), argv, ""
    lines = "".join(f"{w}\n" for w in GOOD_WORDS + BAD_WORDS[:4])
    yield "rank --format json <good and bad words>", ["rank", "--format", "json"], lines


#: A good word whose path the fault cases below break in one place each.
BENT_WORD = GOOD_WORDS[9]


def _bent_paths():
    """(name, nodes) of node sequences that each break one rule of a path mid-path."""
    nodes = oracles.visited_nodes(BENT_WORD)
    middle = len(nodes) // 2
    yield "not at the origin", nodes[1:]
    yield "jump of 2", nodes[:middle] + nodes[middle + 1:]
    yield "j < 0", oracles.visited_nodes(BENT_WORD + ")(" + BENT_WORD)


def _bent_points(axes):
    """(name, points) of projections onto ``axes`` whose lift fails: those of the
    bent paths and, where the grid has a redundant coordinate, a point whose last
    coordinate is one off (on ij, a point of mixed parity)."""
    columns = ["ijlr".index(a) for a in axes]
    for name, nodes in _bent_paths():
        yield name, [[node[c] for c in columns] for node in nodes]
    if axes == "ij" or len(axes) > 2:
        points = [[node[c] for c in columns] for node in oracles.visited_nodes(BENT_WORD)]
        points[len(points) // 2][-1] += 1
        yield "mixed parity" if axes == "ij" else "disagreeing point", points


def _with_value(data, rows, k, column, value):
    """The JSON text of ``data`` with ``rows[k][column]``, ``rows`` being its rows,
    written as the JSON text ``value``."""
    rows[k][column] = "@"
    return json.dumps(data, separators=(",", ":")).replace('"@"', value)


def _fault_cases():
    """Lifts that fail mid-path on every grid, and path and projection lines
    whose first non-integer value lies past their second row."""
    for axes in AXIS_SETS:
        for name, points in _bent_points(axes):
            line = json.dumps({"axes": list(axes), "points": points}, separators=(",", ":"))
            for to in ("path", "word"):
                yield f"lift --to {to} <{name} {axes}>", ["lift", "--to", to], line + "\n"
    for node, column, value in ((5, 0, "5.0"), (3, 2, "true"), (2, 3, "false"),
                                (len(BENT_WORD), 1, "0.0")):
        rows = json.loads(GOOD_PATHS[9])
        line = _with_value(rows, rows, node, column, value)
        argv = ["convert", "--to", "word"]
        yield f"convert --to word <{value} at node {node}>", argv, line + "\n"
    for axes, point, value in (("lr", 4, "3.0"), ("jr", 3, "true")):
        data = json.loads(oracles.projected_json(BENT_WORD, axes))
        line = _with_value(data, data["points"], point, 1, value)
        argv = ["lift", "--to", "path"]
        yield f"lift --to path <{value} at point {point} {axes}>", argv, line + "\n"


CASES = [golden.Case(*case) for case in _cases()]
EXPECTED = golden.load(DATA)
entry = golden.digest


def test_corpus_is_recorded():
    golden.assert_recorded(EXPECTED, CASES)


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_golden(case):
    assert golden.digest(case) == EXPECTED[case.id]
