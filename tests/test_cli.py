import contextlib
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dyck4d import __version__
from dyck4d.cli import build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestValidate:
    def test_valid_word(self, capsys):
        rc, out, err = run(capsys, "validate", "()")
        assert rc == 0
        assert out == "valid n=1\n"
        assert err == ""

    def test_negative_prefix(self, capsys):
        rc, out, err = run(capsys, "validate", ")(")
        assert rc == 1
        assert err == "error:negative-prefix:1\n"

    def test_unbalanced(self, capsys):
        rc, out, err = run(capsys, "validate", "((")
        assert rc == 1
        assert err == "error:unbalanced:2\n"

    def test_invalid_character(self, capsys):
        rc, out, err = run(capsys, "validate", "(a)")
        assert rc == 1
        assert err == "error:invalid-character:1\n"

    def test_stdin_lines(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("()\n(())\n"))
        rc, out, err = run(capsys, "validate")
        assert rc == 0
        assert out == "valid n=1\nvalid n=2\n"

    def test_file_input(self, capsys, tmp_path):
        source = tmp_path / "words.txt"
        source.write_text("()\n)(\n()()\n")
        rc, out, err = run(capsys, "validate", "--file", str(source))
        assert rc == 1
        assert out == "valid n=1\nvalid n=2\n"
        assert err == "error:negative-prefix:1\n"

    def test_positional_beats_file(self, capsys, tmp_path):
        source = tmp_path / "words.txt"
        source.write_text(")(\n")
        rc, out, _ = run(capsys, "validate", "()", "--file", str(source))
        assert rc == 0
        assert out == "valid n=1\n"


class TestConvert:
    def test_to_path(self, capsys):
        rc, out, _ = run(capsys, "convert", "--to", "path", "()")
        assert rc == 0
        assert out == "[[0,0,0,0],[1,1,1,0],[2,0,1,1]]\n"

    def test_to_word(self, capsys):
        rc, out, _ = run(capsys, "convert", "--to", "word", "[[0,0,0,0],[1,1,1,0],[2,0,1,1]]")
        assert rc == 0
        assert out == "()\n"

    def test_round_trip(self, capsys):
        rc, out, _ = run(capsys, "convert", "--to", "path", "(()())")
        rc2, out2, _ = run(capsys, "convert", "--to", "word", out.strip())
        assert (rc, rc2) == (0, 0)
        assert out2 == "(()())\n"

    def test_malformed_path_json(self, capsys):
        rc, _, err = run(capsys, "convert", "--to", "word", "[[0,0,0,0],[5,5,5,5]]")
        assert rc == 1
        assert err == "error:malformed-path:1\n"

    def test_invalid_json(self, capsys):
        rc, _, err = run(capsys, "convert", "--to", "word", "[[0,0")
        assert rc == 1
        assert err.startswith("error:invalid-json")


class TestProjectLift:
    def test_project(self, capsys):
        rc, out, _ = run(capsys, "project", "--axes", "lr", "()")
        assert rc == 0
        assert json.loads(out) == {"axes": ["l", "r"], "points": [[0, 0], [1, 0], [1, 1]]}

    def test_lift_to_word(self, capsys):
        data = '{"axes":["l","r"],"points":[[0,0],[1,0],[1,1]]}'
        rc, out, _ = run(capsys, "lift", "--to", "word", data)
        assert rc == 0
        assert out == "()\n"

    def test_lift_default_path(self, capsys):
        data = '{"axes":["i","j"],"points":[[0,0],[1,1],[2,0]]}'
        rc, out, _ = run(capsys, "lift", data)
        assert rc == 0
        assert out == "[[0,0,0,0],[1,1,1,0],[2,0,1,1]]\n"

    def test_lift_inconsistent(self, capsys):
        data = '{"axes":["i","j"],"points":[[0,0],[1,0]]}'
        rc, _, err = run(capsys, "lift", data)
        assert rc == 1
        assert err == "error:inconsistent-projection:1\n"

    def test_project_lift_pipe_equivalence(self, capsys):
        rc, projected, _ = run(capsys, "project", "--axes", "jl", "(())()")
        rc2, lifted, _ = run(capsys, "lift", "--to", "word", projected.strip())
        assert lifted == "(())()\n"


class TestCount:
    def test_single_node_json(self, capsys):
        rc, out, _ = run(capsys, "count", "--n", "6", "--node", "12,0,6,6", "--format", "json")
        assert rc == 0
        assert json.loads(out) == {"node": [12, 0, 6, 6], "n": 6, "count": "132"}

    def test_single_node_text(self, capsys):
        rc, out, _ = run(capsys, "count", "--n", "3", "--node", "0,0,0,0")
        assert rc == 0
        assert out == "0,0,0,0\t5\n"

    def test_all_nodes(self, capsys):
        rc, out, _ = run(capsys, "count", "--n", "2", "--format", "json")
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6  # (2+1)(2+2)/2 nodes
        first = json.loads(lines[0])
        assert first == {"node": [0, 0, 0, 0], "n": 2, "count": "2"}

    def test_not_in_lattice(self, capsys):
        rc, _, err = run(capsys, "count", "--n", "3", "--node", "1,1,1,1")
        assert rc == 1
        assert err == "error:not-in-lattice\n"

    def test_bad_node_syntax_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "count", "--n", "3", "--node", "1,2")
        assert rc == 2


class TestGeometry:
    def test_json_report(self, capsys):
        rc, out, _ = run(capsys, "geometry", "--n", "6", "--format", "json")
        assert rc == 0
        report = json.loads(out)
        assert report["sides"]["blue"]["squared_length"] == 216
        assert report["sides"]["red"]["squared_length"] == 108
        assert report["checks"]["right_angle"] is True
        assert report["tesseract"]["vertices"] == 16

    def test_text_report(self, capsys):
        rc, out, _ = run(capsys, "geometry", "--n", "6")
        assert rc == 0
        assert "right_angle=True" in out
        assert "16 vertices, 32 edges, 8 cells (2 cubes)" in out


class TestEnumerateRankSample:
    def test_enumerate_text(self, capsys):
        rc, out, _ = run(capsys, "enumerate", "--n", "3")
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert lines[0] == "((()))"

    def test_enumerate_json_ranks(self, capsys):
        rc, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "json")
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert [int(row["rank"]) for row in rows] == list(range(5))

    def test_enumerate_pipes_into_validate(self, capsys, monkeypatch):
        rc, out, _ = run(capsys, "enumerate", "--n", "4")
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        rc2, out2, err2 = run(capsys, "validate")
        assert rc2 == 0
        assert out2 == "valid n=4\n" * 14
        assert err2 == ""

    def test_rank(self, capsys):
        rc, out, _ = run(capsys, "rank", "(())")
        assert rc == 0
        assert out == "0\n"

    def test_rank_json(self, capsys):
        rc, out, _ = run(capsys, "rank", "()()", "--format", "json")
        assert json.loads(out) == {"word": "()()", "rank": "1"}

    def test_sample_deterministic(self, capsys):
        rc, out1, _ = run(capsys, "sample", "--n", "5", "--seed", "11", "--count", "4")
        rc2, out2, _ = run(capsys, "sample", "--n", "5", "--seed", "11", "--count", "4")
        assert rc == rc2 == 0
        assert out1 == out2
        assert len(out1.strip().split("\n")) == 4

    def test_sample_words_valid(self, capsys):
        rc, out, _ = run(capsys, "sample", "--n", "6", "--seed", "3", "--count", "10")
        for line in out.strip().split("\n"):
            assert len(line) == 12


class TestRender:
    def test_grid_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "grid.svg"
        rc, out, _ = run(capsys, "render", "grid", "--axes", "lr", "--n", "6",
                         "--out", str(out_file))
        assert rc == 0
        ET.fromstring(out_file.read_text())

    def test_grid_with_word_to_stdout(self, capsys):
        rc, out, _ = run(capsys, "render", "grid", "--axes", "ij", "--n", "2", "--word", "(())")
        assert rc == 0
        root = ET.fromstring(out)
        assert any(el.get("class") == "path" for el in root.iter())

    def test_schlegel_with_edges(self, capsys, tmp_path):
        svg_file = tmp_path / "box.svg"
        edge_file = tmp_path / "box.txt"
        rc, _, _ = run(capsys, "render", "schlegel", "--n", "6",
                       "--out", str(svg_file), "--edges", str(edge_file))
        assert rc == 0
        root = ET.fromstring(svg_file.read_text())
        vertices = [el for el in root.iter() if el.get("class") == "vertex"]
        assert len(vertices) == 16
        assert len(edge_file.read_text().splitlines()) == 48

    def test_wireframe_cell(self, capsys):
        rc, out, _ = run(capsys, "render", "wireframe", "--n", "1", "--cell", "jmin")
        assert rc == 0
        root = ET.fromstring(out)
        assert sum(1 for el in root.iter() if el.get("class") == "vertex") == 8

    def test_wireframe_triangle_overlay(self, capsys):
        rc, out, _ = run(capsys, "render", "wireframe", "--n", "2", "--triangle")
        assert rc == 0
        assert "side-red" in out

    def test_grid_word_mismatched_axes_ok(self, capsys):
        # the word is projected onto the grid axes, so any 2-axis grid works
        rc, out, _ = run(capsys, "render", "grid", "--axes", "jr", "--n", "1", "--word", "()")
        assert rc == 0


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "bogus")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "enumerate")[0] == 2

    def test_no_subcommand(self, capsys):
        assert run(capsys)[0] == 2

    def test_bad_axes_value(self, capsys):
        assert run(capsys, "project", "--axes", "xy", "()")[0] == 2

    def test_grid_with_three_axes_is_domain_error(self, capsys):
        rc, _, err = run(capsys, "render", "grid", "--axes", "ijl", "--n", "2")
        assert rc == 1
        assert err == "error:wrong-arity\n"


class TestLiftWrongShape:
    @pytest.mark.parametrize("data", [
        '{"axes":["q"],"points":[]}',
        "5",
        '{"points":[[0,0]]}',
        '{"axes":["l","r"],"points":[[0,0,0]]}',
        '{"axes":["l","r"],"points":[["x",0]]}',
    ])
    def test_one_error_line(self, capsys, data):
        rc, out, err = run(capsys, "lift", data)
        assert (rc, out, err) == (1, "", "error:invalid-projection\n")


class TestModuleEntryPoint:
    def test_python_m_dyck4d(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        paths = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        result = subprocess.run([sys.executable, "-m", "dyck4d", "validate", "()"],
                                capture_output=True, text=True, env=env, timeout=60)
        assert (result.returncode, result.stdout, result.stderr) == (0, "valid n=1\n", "")


class TestUnwritableOutput:
    def test_missing_directory(self, capsys, tmp_path):
        rc, out, err = run(capsys, "render", "wireframe", "--n", "2",
                           "--out", str(tmp_path / "missing" / "x.svg"))
        assert (rc, out, err) == (1, "", "error:unwritable-output\n")

    def test_directory(self, capsys, tmp_path):
        rc, out, err = run(capsys, "render", "grid", "--axes", "ij", "--n", "2",
                           "--out", str(tmp_path))
        assert (rc, out, err) == (1, "", "error:unwritable-output\n")

    def test_edges_file(self, capsys, tmp_path):
        rc, out, err = run(capsys, "render", "schlegel", "--n", "2",
                           "--edges", str(tmp_path / "missing" / "e.txt"))
        assert (rc, out, err) == (1, "", "error:unwritable-output\n")

    def test_existing_out_file_keeps_its_bytes(self, capsys, tmp_path):
        old = tmp_path / "old.svg"
        old.write_bytes(b"<svg>")
        rc, out, err = run(capsys, "render", "schlegel", "--n", "2", "--out", str(old),
                           "--edges", str(tmp_path / "missing" / "e.txt"))
        assert (rc, out, err) == (1, "", "error:unwritable-output\n")
        assert old.read_bytes() == b"<svg>"

    def test_out_file_with_writable_edges_file(self, capsys, tmp_path):
        edges = tmp_path / "e.txt"
        rc, out, err = run(capsys, "render", "schlegel", "--n", "2",
                           "--out", str(tmp_path / "missing" / "x.svg"), "--edges", str(edges))
        assert (rc, out, err) == (1, "", "error:unwritable-output\n")
        assert not edges.exists()

    def test_broken_pipe(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        paths = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        with subprocess.Popen([sys.executable, "-m", "dyck4d", "count", "--n", "200"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
            assert child.stdout.readline().startswith(b"0,0,0,0\t")
            child.stdout.close()
            err = child.stderr.read().decode()
            rc = child.wait(timeout=60)
        assert "Traceback" not in err
        assert (rc, err) == (1, "error:unwritable-output\n")


class TestConvertWrongShape:
    @pytest.mark.parametrize("data", ["5", "[5]", "null", '{"a":1}', '"ab"', "[[0,0,0,0],7]"])
    def test_one_error_line(self, capsys, data):
        rc, out, err = run(capsys, "convert", "--to", "word", data)
        index = 1 if data.startswith("[[") else 0
        assert (rc, out, err) == (1, "", f"error:malformed-path:{index}\n")


class TestUnreadableInput:
    def test_missing_file(self, capsys, tmp_path):
        rc, out, err = run(capsys, "validate", "--file", str(tmp_path / "missing.txt"))
        assert (rc, out, err) == (1, "", "error:unreadable-input\n")

    def test_directory(self, capsys, tmp_path):
        rc, out, err = run(capsys, "validate", "--file", str(tmp_path))
        assert (rc, out, err) == (1, "", "error:unreadable-input\n")

    def test_file_not_utf8(self, capsys, tmp_path):
        source = tmp_path / "words.txt"
        source.write_bytes(b"\xff\xfe")
        rc, out, err = run(capsys, "validate", "--file", str(source))
        assert (rc, out, err) == (1, "", "error:unreadable-input\n")

    def test_stdin_not_utf8(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"()\n\xff\xfe\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        rc, out, err = run(capsys, "rank")
        assert (rc, out, err) == (1, "", "error:unreadable-input\n")


def _path_json(text):
    return json.dumps(oracles.visited_nodes(text), separators=(",", ":"))


def _projected_json(text, axes):
    columns = ["ijlr".index(a) for a in axes]
    points = [[node[c] for c in columns] for node in oracles.visited_nodes(text)]
    return json.dumps({"axes": list(axes), "points": points}, separators=(",", ":"))


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
    def test_bad_middle_line(self, capsys, monkeypatch, argv, lines):
        first, bad, last = lines
        expected = run(capsys, *argv, first)[1] + run(capsys, *argv, last)[1]
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{first}\n{bad}\n{last}\n"))
        assert run(capsys, *argv) == (1, expected, "error:invalid-json\n")
        assert len(expected.splitlines()) == 2


class TestVersion:
    def test_version(self, capsys):
        assert run(capsys, "--version") == (0, f"dyck4d {__version__}\n", "")


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
    def test_bad_middle_line(self, capsys, monkeypatch, argv, lines):
        first, bad, last = lines
        expected = run(capsys, *argv, first)[1] + run(capsys, *argv, last)[1]
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{first}\n{bad}\n{last}\n"))
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert out == expected
        assert len(out.splitlines()) == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert err == run(capsys, *argv, bad)[2]


LINE_COMMANDS = [
    ["validate"], ["convert", "--to", "path"], ["convert", "--to", "word"],
    ["project", "--axes", "lr"], ["project", "--axes", "ijlr"], ["lift"],
    ["lift", "--to", "word"], ["rank"], ["rank", "--format", "json"],
]
_FRAGMENTS = ["(", ")", "()", "[", "]", "{", "}", ",", ":", " ", "0", "1", "2", "-1", "1.5",
              "null", "true", "x", '"axes"', '"points"', '"l"', '"r"', '"i"', '"j"', '"q"',
              _path_json("(())"), _projected_json("()()", "jr")]
_fuzz_line = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join),
    st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)), max_size=16),
)


class TestTotality:
    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(LINE_COMMANDS),
           positional=st.one_of(st.none(), _fuzz_line),
           extra=st.lists(st.sampled_from(["--file", "--to", "--axes", "--format", "json",
                                           "word", "-x", "ij"]), max_size=2),
           lines=st.lists(_fuzz_line, max_size=5))
    def test_exit_code_and_error_lines(self, command, positional, extra, lines):
        argv = command + extra + ([] if positional is None else ["--", positional])
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO("".join(f"{line}\n" for line in lines))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        finally:
            sys.stdin = saved
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if rc != 2:  # a usage error is argparse's message; anything else is error: lines
            errors = err.getvalue().splitlines()
            assert all(line.startswith("error:") for line in errors)
            assert len(errors) <= max(len(lines), 1)
            assert (rc == 1) == bool(errors)
            if not extra:
                inputs = 1 if positional is not None else len(lines)
                assert len(out.getvalue().splitlines()) + len(errors) == inputs


class TestSharedParser:
    ARGVS = [
        ["project", "--axes", "lr", "(())"], ["rank", "--format", "json", "()()"],
        ["lift", "--to", "word", _projected_json("(()())", "ij")], ["convert", "--to", "path", "()"],
        ["validate", ")("], ["count", "--n", "2", "--format", "json"], ["geometry", "--n", "3"],
        ["enumerate", "--n", "3"], ["sample", "--n", "4", "--seed", "5", "--count", "3"],
        ["render", "wireframe", "--n", "1", "--cell", "imax"], ["project", "--axes", "xy", "()"],
        ["rank"], ["bogus"], [],
    ]

    def test_second_run_gives_the_same_bytes(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        first = [run(capsys, *argv) for argv in self.ARGVS]
        again = [run(capsys, *argv) for argv in reversed(self.ARGVS)]
        assert again[::-1] == first
        assert build_parser() is build_parser()
