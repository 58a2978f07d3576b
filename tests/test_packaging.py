"""pyproject.toml and the package agree: the script target runs, one version; every
name in ``__all__`` is there."""

import importlib
import re
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
