import decimal
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

import golden
import oracles
from dyck4d import (AXIS_SETS, SIDES, MalformedPath, NotInLattice, ProjectedPath,
                    RankOutOfRange, __version__, complete_node, count_paths_through,
                    enumerate_nodes, lift, parse_word, project, rank, sample_uniform, unrank,
                    word_to_path)
from dyck4d import lattice, projections, words
from dyck4d.cli import _COUNT_N, _SAMPLE_N, build_parser, main

#: (subcommand, the other arguments it needs, the required option left out)
MISSING_OPTIONS = [
    ("convert", ["()"], "--to"), ("project", ["()"], "--axes"), ("count", [], "--n"),
    ("geometry", [], "--n"), ("enumerate", [], "--n"), ("sample", ["--seed", "1"], "--n"),
    ("sample", ["--n", "1"], "--seed"), ("render grid", ["--n", "2"], "--axes"),
    ("render grid", ["--axes", "ij"], "--n"), ("render wireframe", [], "--n"),
    ("render schlegel", [], "--n"),
]


def run(*argv, stdin=""):
    """(exit code, stdout, stderr) of ``main(argv)`` on ``stdin``, run as a golden case is."""
    out, err, rc, _ = golden.run(golden.Case("", list(argv), stdin))
    return rc, out, err


class TestValidate:
    def test_valid_word(self):
        assert run("validate", "()") == (0, "valid n=1\n", "")

    def test_negative_prefix(self):
        assert run("validate", ")(") == (1, "", "error:negative-prefix:1\n")

    def test_unbalanced(self):
        assert run("validate", "((") == (1, "", "error:unbalanced:2\n")

    def test_invalid_character(self):
        assert run("validate", "(a)") == (1, "", "error:invalid-character:1\n")

    def test_stdin_lines(self):
        assert run("validate", stdin="()\n(())\n") == (0, "valid n=1\nvalid n=2\n", "")

    def test_file_input(self, tmp_path):
        source = tmp_path / "words.txt"
        source.write_text("()\n)(\n()()\n")
        assert run("validate", "--file", str(source)) == \
            (1, "valid n=1\nvalid n=2\n", "error:negative-prefix:1\n")

    def test_positional_beats_file(self, tmp_path):
        source = tmp_path / "words.txt"
        source.write_text(")(\n")
        assert run("validate", "()", "--file", str(source)) == (0, "valid n=1\n", "")


class TestConvert:
    def test_to_path(self):
        assert run("convert", "--to", "path", "()") == (0, "[[0,0,0,0],[1,1,1,0],[2,0,1,1]]\n", "")

    def test_to_word(self):
        assert run("convert", "--to", "word", "[[0,0,0,0],[1,1,1,0],[2,0,1,1]]") == (0, "()\n", "")

    def test_round_trip(self):
        rc, out, _ = run("convert", "--to", "path", "(()())")
        rc2, out2, _ = run("convert", "--to", "word", out.strip())
        assert (rc, rc2) == (0, 0)
        assert out2 == "(()())\n"

    def test_malformed_path_json(self):
        assert run("convert", "--to", "word", "[[0,0,0,0],[5,5,5,5]]") == \
            (1, "", "error:malformed-path:1\n")

    def test_invalid_json(self):
        rc, _, err = run("convert", "--to", "word", "[[0,0")
        assert rc == 1
        assert err.startswith("error:invalid-json")


class TestProjectLift:
    def test_project(self):
        rc, out, _ = run("project", "--axes", "lr", "()")
        assert rc == 0
        assert json.loads(out) == {"axes": ["l", "r"], "points": [[0, 0], [1, 0], [1, 1]]}

    def test_lift_to_word(self):
        data = '{"axes":["l","r"],"points":[[0,0],[1,0],[1,1]]}'
        assert run("lift", "--to", "word", data) == (0, "()\n", "")

    def test_lift_default_path(self):
        data = '{"axes":["i","j"],"points":[[0,0],[1,1],[2,0]]}'
        assert run("lift", data) == (0, "[[0,0,0,0],[1,1,1,0],[2,0,1,1]]\n", "")

    def test_lift_inconsistent(self):
        data = '{"axes":["i","j"],"points":[[0,0],[1,0]]}'
        assert run("lift", data) == (1, "", "error:inconsistent-projection:1\n")

    def test_project_lift_pipe_equivalence(self):
        rc, projected, _ = run("project", "--axes", "jl", "(())()")
        rc2, lifted, _ = run("lift", "--to", "word", projected.strip())
        assert lifted == "(())()\n"

    def test_axes_in_any_order_or_case(self):
        outputs = {run("project", "--axes", axes, "(())")
                   for axes in ("lr", "rl", "l,r", "L R", "RL")}
        assert outputs == {(0, '{"axes":["l","r"],"points":[[0,0],[1,0],[2,0],[2,1],[2,2]]}\n', "")}

    @pytest.mark.parametrize("text", ["", "()", "(()())", "(" * 40 + ")" * 40])
    def test_json_dumps_writes_the_cli_lines(self, text):
        # The library has no JSON writer of its own: a path and a projected path's
        # points are tuples of tuples, which json.dumps writes as the CLI does.
        path = word_to_path(parse_word(text))
        assert run("convert", "--to", "path", text)[1] == \
            json.dumps(path, separators=(",", ":")) + "\n"
        for axes in AXIS_SETS:
            p = project(path, axes)
            assert run("project", "--axes", axes, text)[1] == json.dumps(
                {"axes": list(p.axes), "points": p.points}, separators=(",", ":")) + "\n"


class TestCount:
    def test_single_node_json(self):
        rc, out, _ = run("count", "--n", "6", "--node", "12,0,6,6", "--format", "json")
        assert rc == 0
        assert json.loads(out) == {"node": [12, 0, 6, 6], "n": 6, "count": "132"}

    def test_single_node_text(self):
        assert run("count", "--n", "3", "--node", "0,0,0,0") == (0, "0,0,0,0\t5\n", "")

    def test_all_nodes(self):
        rc, out, _ = run("count", "--n", "2", "--format", "json")
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6  # (2+1)(2+2)/2 nodes
        first = json.loads(lines[0])
        assert first == {"node": [0, 0, 0, 0], "n": 2, "count": "2"}

    def test_not_in_lattice(self):
        assert run("count", "--n", "3", "--node", "1,1,1,1") == (1, "", "error:not-in-lattice\n")

    def test_bad_node_syntax_is_usage_error(self):
        assert run("count", "--n", "3", "--node", "1,2")[0] == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_count_past_the_digit_limit(self, fmt):
        # catalan(8000) has 4811 digits, more than str(int) gives by default
        rc, out, err = run("count", "--n", "8000", "--node", "0,0,0,0", "--format", fmt)
        assert (rc, err) == (0, "")
        expected = str(decimal.Decimal(math.comb(16000, 8000) // 8001))
        assert len(expected) > 4300
        assert out == (f"0,0,0,0\t{expected}\n" if fmt == "text" else
                       f'{{"node":[0,0,0,0],"n":8000,"count":"{expected}"}}\n')

    def test_one_node_builds_no_table(self):
        # The prefix table for n = 100000 would hold about 5e9 big integers; the two
        # ballot numbers of one node fit in these 256 MB of address space.
        n = 100000
        result = golden.child("count", "--n", str(n), "--node", f"{2 * n},0,{n},{n}")
        assert (result.returncode, result.stderr) == (0, "")
        catalan = str(decimal.Decimal(math.comb(2 * n, n) // (n + 1)))
        assert result.stdout == f"{2 * n},0,{n},{n}\t{catalan}\n"


#: A word whose prefix table (about 2 million big integers at n = 2000) would outgrow 256 MB.
_DEEP_WORD = "(" * 2000 + ")" * 2000


class TestOutOfMemory:
    """A ``MemoryError`` is one ``error:out-of-memory`` line, and a batch goes on past it."""

    @pytest.mark.parametrize("argv, stdin, stdout", [
        # the 3 000 002 isolines of a 2 000 000 by 1 000 000 grid, one SVG line each
        (["render", "grid", "--axes", "ij", "--n", "1000000"], None, ""),
        # the path of a 2 000 000-symbol word is 2 000 001 nodes of four ints
        (["convert", "--to", "path"], "(" * 10**6 + ")" * 10**6 + "\n()\n",
         "[[0,0,0,0],[1,1,1,0],[2,0,1,1]]\n"),
    ], ids=["render-grid", "convert-batch"])
    def test_one_error_line(self, argv, stdin, stdout):
        result = golden.child(*argv, stdin=stdin)
        assert (result.returncode, result.stdout) == (1, stdout)
        assert result.stderr == "error:out-of-memory\n"
        assert "Traceback" not in result.stderr


class TestCountingMemory:
    """count, rank and sample walk ballot numbers: their memory follows the answer, not a table."""

    def test_count_streams(self):
        # The prefix table of n = 1500 (about 1.1 million big integers) would not fit in
        # 256 MB; the stream prints its first rows at once and stops at a closed pipe.
        with subprocess.Popen([sys.executable, "-m", "dyck4d", "count", "--n", "1500"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=golden.CHILD_ENV, preexec_fn=golden.limit_to_256_mb) as child:
            lines = [child.stdout.readline().decode() for _ in range(40)]
            child.stdout.close()
            err = child.stderr.read().decode()
            rc = child.wait(timeout=30)
        nodes = enumerate_nodes(11)[:40]  # rows i <= 11, the same for every n >= 11
        assert lines == [f"{node.i},{node.j},{node.l},{node.r}\t"
                         f"{count_paths_through(node, 1500)}\n" for node in nodes]
        assert "Traceback" not in err
        assert (rc, err) == (1, "error:unwritable-output\n")

    def test_sample_text(self):
        result = golden.child("sample", "--n", "2000", "--seed", "1")
        assert (result.returncode, result.stderr) == (0, "")
        word = result.stdout.removesuffix("\n")
        assert oracles.scan(word) == ("ok", 2000)
        assert word == sample_uniform(2000, 1)

    def test_sample_json(self):
        result = golden.child("sample", "--n", "5000", "--seed", "1", "--count", "2",
                              "--format", "json")
        assert (result.returncode, result.stderr) == (0, "")
        rows = [json.loads(line) for line in result.stdout.splitlines()]
        assert len(rows) == 2
        for row in rows:
            assert oracles.scan(row["word"]) == ("ok", 5000)
            assert row["rank"] == str(rank(parse_word(row["word"])))

    def test_rank(self):
        result = golden.child("rank", _DEEP_WORD)
        assert (result.returncode, result.stdout, result.stderr) == (0, "0\n", "")

    def test_tables_bought_at_four_n(self):
        # each n pays for its rows on its ceil(n / 16)-th call; one table of n = 1000 is
        # about 43 MB traced, so four tables, one per n, would fit in 256 MB; a traced
        # peak under two tables shows that the process held one table at a time
        result = golden.child(code=_FOUR_BUYS)
        assert (result.returncode, result.stderr) == (0, "")
        *lines, last = result.stdout.splitlines()
        length, peak_mb = last.split()
        assert length == "1001" and int(peak_mb) < 80
        for line, n in zip(lines, (970, 980, 990, 1000), strict=True):
            k, word = line.split()
            assert oracles.scan(word) == ("ok", n)
            assert rank(parse_word(word)) == int(k)


#: Buys the prefix table at four n near the cap, then round-trips a rank at each; last,
#: the table's length and the traced peak in MB.
_FOUR_BUYS = """
import math, tracemalloc
from dyck4d import catalan, enumeration, rank, unrank
tracemalloc.start()
for n in (970, 980, 990, 1000):
    for call in range(math.ceil(n / 16)):
        unrank(call, n)
for n in (970, 980, 990, 1000):
    k = catalan(n) // 3
    word = unrank(k, n)
    assert rank(word) == k
    print(k, word)
print(len(enumeration._table), tracemalloc.get_traced_memory()[1] // 10**6)
"""


class TestGeometry:
    def test_json_report(self):
        rc, out, _ = run("geometry", "--n", "6", "--format", "json")
        assert rc == 0
        report = json.loads(out)
        assert report["sides"]["blue"]["squared_length"] == 216
        assert report["sides"]["red"]["squared_length"] == 108
        assert report["checks"]["right_angle"] is True
        assert report["tesseract"]["vertices"] == 16

    def test_text_report(self):
        rc, out, _ = run("geometry", "--n", "6")
        assert rc == 0
        assert "right_angle=True" in out
        assert "16 vertices, 32 edges, 8 cells (2 cubes)" in out

    def test_text_report_at_the_largest_n(self):
        # flatness is read from the triangle's three vertices, so the report costs O(1) in n
        rc, out, err = run("geometry", "--n", str(10**307))
        assert (rc, err) == (0, "")
        assert out.startswith(f"n={10**307} origin=[0, 0, 0, 0] end=[{2 * 10**307}, 0, ")
        assert "flat=True\n" in out and "length=2.4494897427831783e+307\n" in out

    def test_n_past_the_float_side_lengths(self):
        rc, out, err = run("geometry", "--n", str(10**307 + 1))
        assert (rc, out) == (2, "")
        assert err.endswith("argument --n: must be at most 1e+307\n")

    @pytest.mark.parametrize("n", [10**5 + 1, 10**301], ids=["1e5+1", "1e301"])
    def test_json_n_past_largest(self, n):
        # JSON lists the 3(n + 1) side nodes, as --triangle draws them: unbounded,
        # n = 10**6 took 6.5 s and 748 MB, and 10**301 would never end
        result = golden.child("geometry", "--n", str(n), "--format", "json")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.endswith("argument --n: must be at most 1e+05 with --format json\n")
        assert "Traceback" not in result.stderr

    def test_json_at_the_largest_n(self):
        rc, out, err = run("geometry", "--n", str(10**5), "--format", "json")
        assert (rc, err) == (0, "")
        assert len(json.loads(out)["sides"]["yellow"]["nodes"]) == 10**5 + 1

    def test_text_memory_does_not_grow_with_n(self, capsys):
        # the text report prints no side node, so none is built
        build_parser()
        tracemalloc.start()
        try:
            rc = main(["geometry", "--n", "100000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert capsys.readouterr().out.startswith(
            "n=100000 origin=[0, 0, 0, 0] end=[200000, 0, 100000, 100000] apex=")
        assert peak < 2**20


class TestEnumerateRankSample:
    def test_enumerate_text(self):
        rc, out, _ = run("enumerate", "--n", "3")
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert lines[0] == "((()))"

    def test_enumerate_json_ranks(self):
        rc, out, _ = run("enumerate", "--n", "3", "--format", "json")
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert [int(row["rank"]) for row in rows] == list(range(5))

    def test_enumerate_streams_past_the_recursion_limit(self):
        # One stack frame per symbol would end in RecursionError near n = 495.
        with subprocess.Popen([sys.executable, "-m", "dyck4d", "enumerate", "--n", "600",
                               "--format", "json"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=golden.CHILD_ENV) as child:
            rows = [json.loads(child.stdout.readline()) for _ in range(20)]
            child.stdout.close()
            err = child.stderr.read().decode()
            rc = child.wait(timeout=30)
        assert rows == [{"word": unrank(k, 600), "rank": str(k)} for k in range(20)]
        assert "Traceback" not in err
        assert (rc, err) == (1, "error:unwritable-output\n")

    def test_enumerate_pipes_into_validate(self):
        assert run("validate", stdin=run("enumerate", "--n", "4")[1]) == (0, "valid n=4\n" * 14, "")

    def test_rank(self):
        assert run("rank", "(())") == (0, "0\n", "")

    def test_rank_json(self):
        rc, out, _ = run("rank", "()()", "--format", "json")
        assert json.loads(out) == {"word": "()()", "rank": "1"}

    def test_sample_deterministic(self):
        rc, out1, _ = run("sample", "--n", "5", "--seed", "11", "--count", "4")
        rc2, out2, _ = run("sample", "--n", "5", "--seed", "11", "--count", "4")
        assert rc == rc2 == 0
        assert out1 == out2
        assert len(out1.strip().split("\n")) == 4

    def test_sample_words_valid(self):
        rc, out, _ = run("sample", "--n", "6", "--seed", "3", "--count", "10")
        for line in out.strip().split("\n"):
            assert len(line) == 12


class TestRender:
    def test_grid_to_file(self, tmp_path):
        out_file = tmp_path / "grid.svg"
        rc, out, _ = run("render", "grid", "--axes", "lr", "--n", "6",
                         "--out", str(out_file))
        assert rc == 0
        ET.fromstring(out_file.read_text())

    def test_grid_with_word_to_stdout(self):
        rc, out, _ = run("render", "grid", "--axes", "ij", "--n", "2", "--word", "(())")
        assert rc == 0
        root = ET.fromstring(out)
        assert any(el.get("class") == "path" for el in root.iter())

    def test_schlegel_with_edges(self, tmp_path):
        svg_file = tmp_path / "box.svg"
        edge_file = tmp_path / "box.txt"
        rc, _, _ = run("render", "schlegel", "--n", "6",
                       "--out", str(svg_file), "--edges", str(edge_file))
        assert rc == 0
        root = ET.fromstring(svg_file.read_text())
        vertices = [el for el in root.iter() if el.get("class") == "vertex"]
        assert len(vertices) == 16
        assert len(edge_file.read_text().splitlines()) == 48

    def test_wireframe_cell(self):
        rc, out, _ = run("render", "wireframe", "--n", "1", "--cell", "jmin")
        assert rc == 0
        root = ET.fromstring(out)
        assert sum(1 for el in root.iter() if el.get("class") == "vertex") == 8

    def test_wireframe_triangle_overlay(self):
        rc, out, _ = run("render", "wireframe", "--n", "2", "--triangle")
        assert rc == 0
        assert "side-red" in out

    @pytest.mark.parametrize("view", ["wireframe", "schlegel"])
    def test_triangle_sides_drawn_in_report_order(self, view):
        rc, out, _ = run("render", view, "--n", "3", "--triangle")
        assert rc == 0
        drawn = [el.get("class") for el in ET.fromstring(out).iter()
                 if (el.get("class") or "").startswith("side-")]
        assert drawn == [f"side-{side}" for side in SIDES]

    def test_schlegel_memory_does_not_grow_with_n(self, capsys):
        build_parser()
        tracemalloc.start()
        try:
            rc = main(["render", "schlegel", "--n", "100000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 2**20

    @pytest.mark.parametrize("view", ["wireframe", "schlegel"])
    def test_largest_box_n(self, view):
        rc, out, err = run("render", view, "--n", str(10**300))
        assert (rc, err) == (0, "")
        assert "inf" not in out and "nan" not in out

    @pytest.mark.parametrize("view", ["wireframe", "schlegel"])
    def test_box_n_past_largest(self, view):
        rc, out, err = run("render", view, "--n", str(10**300 + 1))
        assert (rc, out) == (2, "")
        assert err.endswith("argument --n: must be at most 1e+300\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("view", ["wireframe", "schlegel"])
    @pytest.mark.parametrize("n", [10**5 + 1, 10**300], ids=["1e5+1", "1e300"])
    def test_triangle_n_past_largest(self, view, n):
        # The overlay's nodes grow with n: unbounded, 10**300 ran out of these 256 MB
        # of address space with a traceback, and 10**5 + 1 wrote 6.6 MB of SVG.
        result = golden.child("render", view, "--n", str(n), "--triangle")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.endswith("argument --n: must be at most 1e+05 with --triangle\n")
        assert "Traceback" not in result.stderr

    def test_triangle_is_not_drawn_in_one_cell(self):
        rc, out, err = run("render", "wireframe", "--n", "2", "--cell", "imin", "--triangle")
        assert (rc, out) == (2, "")
        assert err.endswith("argument --triangle: not allowed with argument --cell\n")

    def test_grid_word_mismatched_axes_ok(self):
        # the word is projected onto the grid axes, so any 2-axis grid works
        rc, out, _ = run("render", "grid", "--axes", "jr", "--n", "1", "--word", "()")
        assert rc == 0


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run("bogus")[0] == 2

    @pytest.mark.parametrize("command, others, option", [
        pytest.param(*case, id=f"{case[0]} {case[2]}") for case in MISSING_OPTIONS])
    def test_missing_required_flag(self, command, others, option):
        rc, out, err = run(*command.split(), *others)
        assert (rc, out) == (2, "")
        assert err.endswith(f": error: the following arguments are required: {option}\n")
        assert "Traceback" not in err

    def test_no_subcommand(self):
        assert run()[0] == 2

    def test_bad_axes_value(self):
        for axes in ("xy", "ll", "l"):
            rc, out, err = run("project", "--axes", axes, "()")
            assert (rc, out) == (2, "")
            assert err.endswith("error: argument --axes: axis set must be one of "
                                "ij, il, ir, jl, jr, lr, ijl, ijr, ilr, jlr, ijlr\n")

    @pytest.mark.parametrize("node, message", [("1,2", "node must be i,j,l,r"),
                                               ("1,x,0,0", "node coordinates must be integers")])
    def test_bad_node_value(self, node, message):
        rc, out, err = run("count", "--n", "3", "--node", node)
        assert (rc, out) == (2, "")
        assert err.endswith(f"error: argument --node: {message}\n")
        assert "Traceback" not in err

    def test_grid_with_three_axes_is_domain_error(self):
        assert run("render", "grid", "--axes", "ijl", "--n", "2") == (1, "", "error:wrong-arity\n")


class TestLiftWrongShape:
    @pytest.mark.parametrize("data", [
        '{"axes":["q"],"points":[]}',
        "5",
        '{"points":[[0,0]]}',
        '{"axes":["l","r"],"points":[[0,0,0]]}',
        '{"axes":["l","r"],"points":[["x",0]]}',
        # axes are one-letter strings in canonical order, nothing else
        '{"axes":["r","l"],"points":[[0,0],[1,0],[1,1]]}',
        '{"axes":["L","R"],"points":[[0,0],[1,0],[1,1]]}',
        '{"axes":"lr","points":[[0,0],[1,0],[1,1]]}',
        '{"axes":{"l":0,"r":1},"points":[[0,0],[1,0],[1,1]]}',
        '{"axes":["lr"],"points":[[0,0],[1,0],[1,1]]}',
    ])
    def test_one_error_line(self, data):
        assert run("lift", data) == (1, "", "error:invalid-projection\n")


class TestModuleEntryPoint:
    def test_python_m_dyck4d(self):
        result = golden.child("validate", "()")
        assert (result.returncode, result.stdout, result.stderr) == (0, "valid n=1\n", "")


#: What a run that cannot write its output gives: (exit code, stdout, stderr).
_UNWRITABLE = (1, "", "error:unwritable-output\n")


class TestUnwritableOutput:
    def test_missing_directory(self, tmp_path):
        missing = str(tmp_path / "missing" / "x.svg")
        assert run("render", "wireframe", "--n", "2", "--out", missing) == _UNWRITABLE

    def test_directory(self, tmp_path):
        assert run("render", "grid", "--axes", "ij", "--n", "2",
                   "--out", str(tmp_path)) == _UNWRITABLE

    def test_edges_file(self, tmp_path):
        missing = str(tmp_path / "missing" / "e.txt")
        assert run("render", "schlegel", "--n", "2", "--edges", missing) == _UNWRITABLE

    def test_existing_out_file_keeps_its_bytes(self, tmp_path):
        old = tmp_path / "old.svg"
        old.write_bytes(b"<svg>")
        assert run("render", "schlegel", "--n", "2", "--out", str(old),
                   "--edges", str(tmp_path / "missing" / "e.txt")) == _UNWRITABLE
        assert old.read_bytes() == b"<svg>"

    def test_out_file_with_writable_edges_file(self, tmp_path):
        edges = tmp_path / "e.txt"
        assert run("render", "schlegel", "--n", "2", "--out", str(tmp_path / "missing" / "x.svg"),
                   "--edges", str(edges)) == _UNWRITABLE
        assert not edges.exists()

    @pytest.mark.parametrize("view", ["wireframe", "schlegel"])
    def test_same_path_twice(self, tmp_path, view):
        path = str(tmp_path / "y.svg")
        assert run("render", view, "--n", "2", "--out", path, "--edges", path) == _UNWRITABLE

    def test_symlink_alias(self, tmp_path):
        target, alias = tmp_path / "y.svg", tmp_path / "z.svg"
        alias.symlink_to(target)
        assert run("render", "wireframe", "--n", "2", "--out", str(target),
                   "--edges", str(alias)) == _UNWRITABLE

    def test_same_existing_file_keeps_its_bytes(self, tmp_path):
        old = tmp_path / "old.svg"
        old.write_bytes(b"<svg>")
        assert run("render", "schlegel", "--n", "2", "--out", str(old),
                   "--edges", str(old)) == _UNWRITABLE
        assert old.read_bytes() == b"<svg>"

    def test_devnull_twice(self):
        assert run("render", "wireframe", "--n", "2", "--out", os.devnull,
                   "--edges", os.devnull) == (0, "", "")

    @pytest.mark.parametrize("stdout_name, rc", [("e.txt", 1), ("figure.svg", 0)])
    def test_stdout_redirected_to_edges_file(self, tmp_path, stdout_name, rc):
        # As `dyck4d render schlegel --n 2 --edges e.txt > e.txt`: the shell's
        # redirect and --edges would write one file from offset 0.
        edges = tmp_path / "e.txt"
        with open(tmp_path / stdout_name, "w") as stdout:
            result = subprocess.run(
                [sys.executable, "-m", "dyck4d", "render", "schlegel", "--n", "2",
                 "--edges", str(edges)],
                stdout=stdout, stderr=subprocess.PIPE, text=True, env=golden.CHILD_ENV, timeout=60)
        if rc:
            assert (result.returncode, result.stderr) == (1, "error:unwritable-output\n")
            assert edges.read_bytes() == b""
        else:
            assert (result.returncode, result.stderr) == (0, "")
            assert edges.read_text().count("\n") == 48
            assert (tmp_path / stdout_name).read_text().endswith("</svg>\n")

    def test_broken_pipe(self):
        with subprocess.Popen([sys.executable, "-m", "dyck4d", "count", "--n", "200"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=golden.CHILD_ENV) as child:
            assert child.stdout.readline().startswith(b"0,0,0,0\t")
            child.stdout.close()
            err = child.stderr.read().decode()
            rc = child.wait(timeout=60)
        assert "Traceback" not in err
        assert (rc, err) == (1, "error:unwritable-output\n")


class TestConvertWrongShape:
    @pytest.mark.parametrize("data", ["5", "[5]", "null", '{"a":1}', '"ab"', "[[0,0,0,0],7]"])
    def test_one_error_line(self, data):
        rc, out, err = run("convert", "--to", "word", data)
        index = 1 if data.startswith("[[") else 0
        assert (rc, out, err) == (1, "", f"error:malformed-path:{index}\n")


class TestJsonIntegers:
    """A JSON coordinate is an exact integer: true, 1.5, 1e300 and "1" are not."""

    @pytest.mark.parametrize("argv, err", [
        pytest.param(["lift", "--to", "path", '{"axes":["l","r"],"points":[[0,0],[1.5,0]]}'],
                     "error:invalid-projection\n", id="lift float"),
        pytest.param(["lift", "--to", "word", '{"axes":["l","r"],"points":["00","10","11"]}'],
                     "error:invalid-projection\n", id="lift string points"),
        pytest.param(["lift", "--to", "path", '{"axes":["l","r"],"points":[[0,0],[1e300,0]]}'],
                     "error:invalid-projection\n", id="lift 1e300"),
        pytest.param(["lift", "--to", "word",
                      '{"axes":["l","r"],"points":[[0,0],["1",0],["1","1"]]}'],
                     "error:invalid-projection\n", id="lift string values"),
        pytest.param(["convert", "--to", "word",
                      "[[false,false,false,false],[true,true,true,false],[2,0,1,1]]"],
                     "error:malformed-path:0\n", id="convert booleans"),
    ])
    def test_one_error_line(self, argv, err):
        assert run(*argv) == (1, "", err)


class TestUnreadableInput:
    def test_missing_file(self, tmp_path):
        assert run("validate", "--file", str(tmp_path / "missing.txt")) == \
            (1, "", "error:unreadable-input\n")

    def test_directory(self, tmp_path):
        assert run("validate", "--file", str(tmp_path)) == (1, "", "error:unreadable-input\n")

    def test_file_not_utf8(self, tmp_path):
        source = tmp_path / "words.txt"
        source.write_bytes(b"\xff\xfe")
        assert run("validate", "--file", str(source)) == (1, "", "error:unreadable-input\n")

    def test_stdin_not_utf8(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"()\n\xff\xfe\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert (main(["rank"]), *capsys.readouterr()) == (1, "", "error:unreadable-input\n")


def _path_json(text):
    return json.dumps(oracles.visited_nodes(text), separators=(",", ":"))


def _projected_json(text, axes):
    columns = ["ijlr".index(a) for a in axes]
    points = [[node[c] for c in columns] for node in oracles.visited_nodes(text)]
    return json.dumps({"axes": list(axes), "points": points}, separators=(",", ":"))


def _good_batches():
    """(argv, three good lines) of each batch command that prints columns."""
    texts = ["", "(()())", "(" * 30 + ")" * 30]
    yield pytest.param(["convert", "--to", "path"], texts, id="convert --to path")
    yield pytest.param(["convert", "--to", "word"], list(map(_path_json, texts)),
                       id="convert --to word")
    for axes in AXIS_SETS:
        yield pytest.param(["project", "--axes", axes], texts, id=f"project --axes {axes}")
        for to in ("path", "word"):
            lines = [_projected_json(text, axes) for text in texts]
            yield pytest.param(["lift", "--to", to], lines, id=f"lift --to {to} <{axes}>")


class TestBatchWork:
    """A good line of each column route builds canonical columns once; a good JSON
    line names no bad row, and a good lift line completes no points node by node."""

    @pytest.mark.parametrize("argv, lines", _good_batches())
    def test_one_canonical_build_per_line(self, argv, lines):
        with golden.calls(words._canonical_columns, lattice._complete_pair,
                          words._first_bad_row) as calls:
            rc, out, err = run(*argv, stdin="".join(f"{line}\n" for line in lines))
        assert (rc, err, out.count("\n")) == (0, "", len(lines))
        assert {name: len(made) for name, made in calls.items()} == \
            {"_canonical_columns": len(lines), "_complete_pair": 0, "_first_bad_row": 0}

    def test_only_a_rejected_line_completes_points_or_names_a_row(self):
        with golden.calls(lattice._complete_pair, words._first_bad_row) as calls:
            assert run("lift", '{"axes":["i","j"],"points":[[0,0],[1,0]]}') == \
                (1, "", "error:inconsistent-projection:1\n")
            assert run("convert", "--to", "word", "[[0,0,0,0],[1,1,1.0,0]]") == \
                (1, "", "error:malformed-path:1\n")
        assert {name: len(made) for name, made in calls.items()} == \
            {"_complete_pair": 1, "_first_bad_row": 1}


_DEEP = "[" * 100000
_LONG_INT = "1" * 5000
_NO_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                     reason="this interpreter reads integers of any length")


class TestJsonBeyondLimits:
    """JSON nested past the recursion limit, or holding an integer past the digit
    limit, is one error:invalid-json line; the batch goes on."""

    @pytest.mark.parametrize("argv, lines", [
        pytest.param(["convert", "--to", "word"],
                     [_path_json("()"), _DEEP, _path_json("(())")], id="convert deep"),
        pytest.param(["convert", "--to", "word"],
                     [_path_json("()"), f"[[0,0,0,{_LONG_INT}]]", _path_json("(())")],
                     id="convert long int", marks=_NO_DIGIT_LIMIT),
        pytest.param(["lift"], [_projected_json("()", "lr"), _DEEP, _projected_json("(())", "ij")],
                     id="lift deep"),
        pytest.param(["lift", "--to", "word"],
                     [_projected_json("()", "lr"),
                      f'{{"axes":["l","r"],"points":[[0,{_LONG_INT}]]}}',
                      _projected_json("(())", "ij")], id="lift long int", marks=_NO_DIGIT_LIMIT),
    ])
    def test_bad_middle_line(self, argv, lines):
        first, bad, last = lines
        expected = run(*argv, first)[1] + run(*argv, last)[1]
        assert run(*argv, stdin=f"{first}\n{bad}\n{last}\n") == \
            (1, expected, "error:invalid-json\n")
        assert len(expected.splitlines()) == 2


#: The longest int that json.loads reads under the default digit limit (4300 digits).
_NINES = 10**4300 - 1


class TestPastTheDigitLimit:
    """Points and nodes of ints that json.loads reads, whose completions or deltas
    pass the interpreter's int digit limit, fail with one error line, not a traceback."""

    @pytest.mark.parametrize("argv, line, expected", [
        (["lift"], {"axes": ["l", "r"], "points": [[0, 0], [_NINES, _NINES]]},
         "error:malformed-path:1"),
        (["lift", "--to", "word"], {"axes": ["l", "r"], "points": [[0, 0], [_NINES, _NINES]]},
         "error:malformed-path:1"),
        (["lift"], {"axes": ["i", "l"], "points": [[0, 0], [0, _NINES]]}, "error:malformed-path:1"),
        (["lift"], {"axes": ["i", "r"], "points": [[0, 0], [0, _NINES]]}, "error:malformed-path:1"),
        (["lift"], {"axes": ["j", "l"], "points": [[0, 0], [-_NINES, _NINES]]},
         "error:malformed-path:1"),
        (["lift"], {"axes": ["i", "l", "r"], "points": [[0, 0, 0], [0, _NINES, 5]]},
         "error:inconsistent-projection:1"),
        (["convert", "--to", "word"], [[0, 0, 0, 0], [1, 1, 1, 0], [-_NINES, 0, 0, 0]],
         "error:malformed-path:2"),
    ], ids=["lift lr", "lift --to word lr", "lift il", "lift ir", "lift jl", "lift ilr",
            "convert --to word"])
    def test_one_error_line(self, argv, line, expected):
        result = golden.child(*argv, stdin=json.dumps(line) + "\n")
        assert (result.returncode, result.stdout, result.stderr) == (1, "", expected + "\n")

    def test_library_raises_malformed_path(self):
        with pytest.raises(MalformedPath) as caught:
            lift(ProjectedPath("lr", ((0, 0), (_NINES, _NINES))))
        assert caught.value.index == 1
        with pytest.raises(MalformedPath, match=r"^node 1: delta \(2, 0, 1, 1\) is neither "
                                                r"an up-step nor a down-step$"):
            lift(ProjectedPath("lr", ((0, 0), (1, 1))))

    @pytest.mark.parametrize("call, error", [
        (lambda: unrank(-1, 8000), RankOutOfRange),  # the message holds catalan(8000)
        (lambda: unrank(10**5000, 3), RankOutOfRange),
        (lambda: complete_node(l=-_NINES, r=-_NINES), NotInLattice),
        (lambda: count_paths_through((1, 1, 1, 1), 10**4300), NotInLattice),
        (lambda: count_paths_through((10**4300, 0, 0, 0), 5), NotInLattice),
    ], ids=["unrank catalan", "unrank rank", "complete_node", "count n", "count node"])
    def test_library_raises_the_domain_error(self, call, error):
        with pytest.raises(error):
            call()


class TestVersion:
    def test_version(self):
        assert run("--version") == (0, f"dyck4d {__version__}\n", "")


#: (argv, three stdin lines whose middle one is bad) for every batch subcommand.
BATCHES = [
    (["validate"], ["()", ")(", "(())"]),
    (["convert", "--to", "path"], ["()", "(", "(())"]),
    (["convert", "--to", "word"], [_path_json("()"), "[[0,0", _path_json("(())")]),
    (["convert", "--to", "word"], [_path_json("()"), "[5]", _path_json("(())")]),
    (["project", "--axes", "jl"], ["()", "(x)", "(())"]),
    (["lift"], [_projected_json("()", "lr"), '{"axes":["q"],"points":[]}',
                _projected_json("(())", "ij")]),
    (["lift", "--to", "word"], [_projected_json("()", "lr"), '{"axes":["l","r"],"points":[[0,0],[2,0]]}',
                                _projected_json("(())", "ij")]),
    (["rank"], ["()", "((", "(())"]),
    (["rank", "--format", "json"], ["()", "())", "(())"]),
]


class TestBatchPolicy:
    """Every input line gets its output line or one error line; exit 1 if any failed."""

    @pytest.mark.parametrize("argv, lines", BATCHES, ids=[" ".join(a) for a, _ in BATCHES])
    def test_bad_middle_line(self, argv, lines):
        first, bad, last = lines
        expected = run(*argv, first)[1] + run(*argv, last)[1]
        rc, out, err = run(*argv, stdin=f"{first}\n{bad}\n{last}\n")
        assert rc == 1
        assert out == expected
        assert len(out.splitlines()) == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert err == run(*argv, bad)[2]


LINE_COMMANDS = [
    ["validate"], ["convert", "--to", "path"], ["convert", "--to", "word"],
    ["project", "--axes", "lr"], ["project", "--axes", "ijlr"], ["lift"],
    ["lift", "--to", "word"], ["rank"], ["rank", "--format", "json"],
]
_FRAGMENTS = ["(", ")", "()", "[", "]", "{", "}", ",", ":", " ", "0", "1", "2", "-1", "1.5",
              "null", "true", "x", '"axes"', '"points"', '"l"', '"r"', '"i"', '"j"', '"q"',
              _path_json("(())"), _projected_json("()()", "jr")]


@st.composite
def _long_int_line(draw):
    """A path or a projected path from the origin whose values may be ±(10**4300 - 1):
    the nodes completed from them, and their deltas, pass the int digit limit."""
    axes = draw(st.sampled_from(AXIS_SETS))
    value = st.sampled_from([0, 1, -1, _NINES, -_NINES])
    points = [[0] * len(axes), *draw(st.lists(st.lists(value, min_size=len(axes),
                                                       max_size=len(axes)), min_size=1, max_size=2))]
    if axes == "ijlr" and draw(st.booleans()):
        return json.dumps(points)
    return json.dumps({"axes": list(axes), "points": points})


_fuzz_line = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join),
    st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)), max_size=16),
    _long_int_line(),
)


#: Every subcommand that takes --n, with what else it needs.  Only the box views,
#: text-mode geometry and, past their bounds, count and sample draw a huge n: the
#: others would run without end.
N_COMMANDS = [
    ["count"], ["count", "--node", "2,0,1,1"], ["count", "--format", "json"], ["geometry"],
    ["geometry", "--format", "json"], ["enumerate"], ["enumerate", "--format", "json"],
    ["sample", "--seed", "1"], ["sample", "--seed", "2", "--count", "3", "--format", "json"],
    ["render", "grid", "--axes", "lr"], ["render", "grid", "--axes", "ij", "--word", "(())"],
]
BOX_COMMANDS = [
    ["render", "wireframe"], ["render", "wireframe", "--cell", "rmax"],
    ["render", "wireframe", "--triangle"], ["render", "schlegel"],
    ["render", "schlegel", "--triangle"],
]
_SMALL_N = ["0", "1", "2", "3", "-1", "x"]
_HIGH = {"count": _COUNT_N, "sample": _SAMPLE_N}
#: (command, --n) past the bound of count and sample: a usage error before any counting.
_PAST_BOUND = [(command, str(n)) for command in N_COMMANDS if command[0] in _HIGH
               for n in (_HIGH[command[0]] + 1, 10**6, 10**12, 10**301)]


def _run_total(argv, lines=()):
    """``main(argv)`` with ``lines`` on stdin: (rc, stdout, stderr lines).  Checks that
    rc is 0, 1 or 2, that no traceback appears, and that stderr holds only
    ``error:`` lines, one at least exactly when rc is 1, unless rc is 2."""
    rc, out, err = run(*argv, stdin="".join(f"{line}\n" for line in lines))
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    errors = err.splitlines()
    if rc != 2:  # a usage error is argparse's message; anything else is error: lines
        assert all(line.startswith("error:") for line in errors)
        assert (rc == 1) == bool(errors)
    return rc, out, errors


class TestTotality:
    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(LINE_COMMANDS),
           positional=st.one_of(st.none(), _fuzz_line),
           extra=st.lists(st.sampled_from(["--file", "--to", "--axes", "--format", "json",
                                           "word", "-x", "ij"]), max_size=2),
           lines=st.lists(_fuzz_line, max_size=5))
    def test_exit_code_and_error_lines(self, command, positional, extra, lines):
        argv = command + extra + ([] if positional is None else ["--", positional])
        rc, out, errors = _run_total(argv, lines)
        if rc != 2:
            assert len(errors) <= max(len(lines), 1)
            if not extra:
                inputs = 1 if positional is not None else len(lines)
                assert len(out.splitlines()) + len(errors) == inputs

    @settings(max_examples=300, deadline=None)
    @given(command_n=st.one_of(
               st.tuples(st.sampled_from(N_COMMANDS), st.sampled_from(_SMALL_N)),
               st.sampled_from(_PAST_BOUND),
               st.tuples(st.sampled_from(BOX_COMMANDS),
                         st.sampled_from(_SMALL_N + [str(10**5 + 1), str(10**301)])),
           st.tuples(st.just(["geometry"]), st.sampled_from(_SMALL_N + [str(10**301)]))),
           extra=st.lists(st.sampled_from([
               ["--triangle"], ["--cell", "imin"], ["--format", "json"], ["--node", "0,0,0,0"],
               ["--word", "(()"], ["--axes", "ijl"], ["--count", "2"], ["--count"], ["-x"]]),
               max_size=2))
    def test_every_subcommand(self, command_n, extra):
        command, n = command_n
        _run_total(command + ["--n", n] + sum(extra, []))


class TestSharedParser:
    ARGVS = [
        ["project", "--axes", "lr", "(())"], ["rank", "--format", "json", "()()"],
        ["lift", "--to", "word", _projected_json("(()())", "ij")], ["convert", "--to", "path", "()"],
        ["validate", ")("], ["count", "--n", "2", "--format", "json"], ["geometry", "--n", "3"],
        ["enumerate", "--n", "3"], ["sample", "--n", "4", "--seed", "5", "--count", "3"],
        ["render", "wireframe", "--n", "1", "--cell", "imax"], ["project", "--axes", "xy", "()"],
        ["rank"], ["bogus"], [],
    ]

    def test_second_run_gives_the_same_bytes(self):
        first = [run(*argv) for argv in self.ARGVS]
        again = [run(*argv) for argv in reversed(self.ARGVS)]
        assert again[::-1] == first
        assert build_parser() is build_parser()
