"""pyproject.toml and the package agree: the script target runs, one version; every
name in ``__all__`` is there, and a name's module is imported only when it is used."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dyck4d

PYPROJECT = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")


def _value(table: str, key: str) -> str:
    """A string value of pyproject.toml, read by regex: Python 3.10 has no tomllib."""
    body = re.search(rf"^\[{re.escape(table)}\]\n(.*?)(?=^\[|\Z)", PYPROJECT, re.M | re.S).group(1)
    return re.search(rf'^{re.escape(key)} = "(.*)"$', body, re.M).group(1)


def test_script_target_prints_version(capsys, monkeypatch):
    module, _, name = _value("project.scripts", "dyck4d").partition(":")
    entrypoint = getattr(importlib.import_module(module), name)
    monkeypatch.setattr("sys.argv", ["dyck4d", "--version"])
    with pytest.raises(SystemExit) as stop:
        entrypoint()
    assert stop.value.code == 0
    assert capsys.readouterr().out == f"dyck4d {dyck4d.__version__}\n"


def test_one_version():
    assert _value("project", "version") == dyck4d.__version__


def test_every_public_name_resolves_once():
    assert len(set(dyck4d.__all__)) == len(dyck4d.__all__)
    assert [name for name in dyck4d.__all__ if not hasattr(dyck4d, name)] == []
    assert set(dir(dyck4d)) >= set(dyck4d.__all__)


def test_every_public_name_resolves_by_getattr():
    for module, names in dyck4d._EXPORTS.items():
        defining = importlib.import_module(f"dyck4d.{module}")
        for name in names.split():
            assert getattr(dyck4d, name) is getattr(defining, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from dyck4d import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(dyck4d.__all__)


def test_unknown_attribute():
    # a triangle is its half-length n, a side its colour, every 4-vector a LatticeNode,
    # an axis set its string, a figure a list of elements, a word its str, and
    # counting keeps one prefix table per process, not one cached per n; json.dumps
    # writes a path and a projected path, which are tuples
    for name in ("no_such_name", "LatticeRegion", "Side", "Vec4", "AxisSet",
                 "all_modifications", "Scene", "render_word", "prefix_count_table",
                 "path_as_lists", "projected_path_as_json"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(dyck4d, name)
        assert name not in dyck4d.__all__
        assert [module for module in dyck4d._EXPORTS
                if hasattr(importlib.import_module(f"dyck4d.{module}"), name)] == []


def test_axis_sets_and_figures_are_plain_values():
    assert dyck4d._EXPORTS["projections"].split() == [
        "AXIS_SETS", "ProjectedPath", "axis_set", "lift", "project",
        "projected_path_from_json"]
    assert dyck4d._EXPORTS["render"].split() == [
        "ROLE_COLORS", "edge_list_text", "render_grid_2d", "render_wireframe"]
    assert dyck4d.ProjectedPath._fields == ("axes", "points")
    for module in ("projections", "render", "words"):
        assert not hasattr(importlib.import_module(f"dyck4d.{module}"), "dataclass")


def test_cli_import_loads_only_what_counting_runs():
    # geometry, projections and render are imported by the subcommands that use them
    src = str(Path(dyck4d.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # No module uses dataclasses, whose import pulls in inspect, ast, dis and tokenize;
    # only what the import adds counts, not what site loaded before it.
    code = ("import sys; before = set(sys.modules); import dyck4d.cli\n"
            "print(*sorted(m for m in sys.modules if 'dyck4d' in m))\n"
            "print(*sorted({'dataclasses', 'inspect'} & (sys.modules.keys() - before)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=30, check=True)
    package, stdlib = result.stdout.split("\n")[:2]
    assert package.split() == ["dyck4d", "dyck4d.cli", "dyck4d.enumeration",
                               "dyck4d.errors", "dyck4d.lattice", "dyck4d.words"]
    assert stdlib == ""
