import pytest

pytest.register_assert_rewrite("golden")

import golden  # after the rewrite hook, so that its asserts report their values


@pytest.fixture
def fresh_counting():
    """Counting state as in a new process (:func:`golden.fresh_counting`), restored after the test."""
    with golden.fresh_counting():
        yield
