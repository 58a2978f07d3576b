import pytest

pytest.register_assert_rewrite("golden")

import golden  # after the rewrite hook, so that its asserts report their values


@pytest.fixture(autouse=True)
def fresh_counting():
    """Every test runs in counting state as in a new process (:func:`golden.fresh_counting`),
    dropped when it ends; a hypothesis test that needs it per example resets it itself."""
    with golden.fresh_counting():
        yield
