import pytest

from dyck4d import enumeration


@pytest.fixture
def fresh_counting(monkeypatch):
    """Counting state as in a new process: no prefix table and no walks charged.

    The state before the test comes back after it, so a table the test buys is dropped.
    """
    monkeypatch.setattr(enumeration, "_table", ())
    monkeypatch.setattr(enumeration, "_walked", 0)
