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
implementation.  An exception that escaped ``main`` there was recorded as
``"exception:<class>"``; those cases (``lift`` on JSON of the wrong shape) must
now fail with one ``error:invalid-projection`` line and exit code 1.

Record the cases that have no entry yet with
``PYTHONPATH=src python tests/test_paths_golden.py``; it keeps every recorded
entry, so re-recording one (only when a change of output is intended) means
deleting it first.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
from pathlib import Path
from unittest import mock

import pytest

import oracles
from dyck4d.cli import main

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

GOOD_PATHS = [json.dumps(oracles.visited_nodes([c for c in w if c in "()"]), separators=(",", ":"))
              for w in GOOD_WORDS]
BAD_PATHS = [
    "[]", "{}", '{"a":1}', "[[0,0,0,0],[5,5,5,5]]", "[[1,1,1,0]]", "[[0,0,0,0],[1,-1,0,1]]",
    "[[0,0,0,0],[1,1,1]]", '[[0,0,0,0],[1,1,1,"0"]]', "[[0,0,0,0],[1.0,1,1,0]]",
    '[[0,0,0,0],"abcd"]', "[[0,0,0,0],[1,1,0,1]]", "[[0,0,0,0],[1,1,1,0],[2,2,2,0],[1,1,1,0]]",
    "[[0,0,0,0],[1,1,1,0],[1,1,1,0]]", "[[0,0,0,0],[1,1,1,0],[2,0,1,1],[3,-1,1,2]]",
    "[[0,0,0,0],[true,true,true,false]]", "[[false,false,false,false],[true,true,true,false],[2,0,1,1]]",
    "[[0,0,0,0],[1,1,1,0],[2,2,2,0],[3,1,2,1],[4,0,2,2],[5,1,3,2],[6,2,4,2],[7,1,4,3]]",
    "[[0,0", GOOD_PATHS[13][:-1] + ",[1,1,1,1]]",
]


def projected(word, axes):
    columns = ["ijlr".index(a) for a in axes]
    points = [[node[c] for c in columns] for node in oracles.visited_nodes(word)]
    return json.dumps({"axes": list(axes), "points": points}, separators=(",", ":"))


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
            lines = "".join(f"{projected(w, axes)}\n" for w in GOOD_WORDS[:-3])
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
        prefix = projected(UNBALANCED_PREFIX, axes)
        for to in ("path", "word"):
            yield f"lift --to {to} <unbalanced prefix {axes}>", ["lift", "--to", to], prefix + "\n"
    for argv in BATCH_COMMANDS:
        for name, line in (("empty word", ""), ("origin path", "[[0,0,0,0]]")):
            yield f"{' '.join(argv)} <{name}>", argv, line + "\n"
    for axes in AXIS_SETS:
        for to in ("path", "word"):
            yield (f"lift --to {to} <empty word {axes}>", ["lift", "--to", to],
                   projected("", axes) + "\n")
    yield from _counting_cases()


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
    projections = lines(projected(GOOD_WORDS[5], "il"), BAD_PROJECTIONS[3],
                        projected(GOOD_WORDS[12], "jr"), projected(UNBALANCED_PREFIX, "lr"),
                        BAD_PROJECTIONS[14], projected(GOOD_WORDS[0], "ijr"),
                        BAD_PROJECTIONS[20], projected(GOOD_WORDS[9], "ij"))
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


CASES = list(_cases())


def run_case(argv, stdin):
    """Run ``main`` in-process; an escaped exception becomes ``exception:<class>``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        # argparse wraps its usage line at the terminal's width, which COLUMNS sets.
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              mock.patch.dict(os.environ, {"COLUMNS": "80"})):
            try:
                code = main(argv)
            except Exception as exc:  # recorded, then compared like any outcome
                code = f"exception:{type(exc).__name__}"
    finally:
        sys.stdin = saved
    return out.getvalue(), err.getvalue(), code


def digest(out, err, code):
    return [hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest(), code]


EXPECTED = json.loads(DATA.read_text()) if DATA.exists() else {}


def test_corpus_is_recorded():
    assert sorted(EXPECTED) == sorted(case_id for case_id, _, _ in CASES)


@pytest.mark.parametrize("case_id, argv, stdin", CASES, ids=[c[0] for c in CASES])
def test_golden(case_id, argv, stdin):
    out, err, code = run_case(argv, stdin)
    expected = EXPECTED[case_id]
    if isinstance(expected[2], str):  # escaped before; now one error line
        assert argv[0] == "lift"
        assert (out, code) == ("", 1)
        assert re.fullmatch(r"error:invalid-projection(:-?\d+)?\n", err), err
    else:
        assert digest(out, err, code) == expected


if __name__ == "__main__":
    # Recorded entries stay as they are (the escaped exceptions cannot be
    # recorded again); delete an entry to record it anew.
    DATA.write_text(json.dumps({case_id: EXPECTED.get(case_id) or digest(*run_case(argv, stdin))
                                for case_id, argv, stdin in CASES}, indent=0) + "\n")
