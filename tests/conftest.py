"""Fixtures shared by the test modules."""

import pytest

from qbracelet import _kernel


@pytest.fixture
def conv_mod_calls(monkeypatch):
    """The arguments of every ``_kernel.conv_mod`` call made after the
    fixture is set up, in order."""
    calls = []
    real = _kernel.conv_mod

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_kernel, "conv_mod", counting)
    return calls
