"""Shared fixtures."""

import pytest

from navfuse import tensor as T


@pytest.fixture
def float64():
    """Run the test on float64 tensors. It compares a formula to 1e-12 or
    bitwise, finer than float32, the tape's dtype, resolves."""
    with T.float64():
        yield
