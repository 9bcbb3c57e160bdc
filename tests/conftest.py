"""Fixtures shared by the test modules."""

import pytest

from qbracelet import _kernel


@pytest.fixture
def kernel_calls(monkeypatch):
    """``kernel_calls(name)`` starts recording the arguments of every call
    to ``_kernel.<name>`` (a kernel such as ``conv_mod``, or a packing
    helper such as ``_unpack``) and returns the list they go into, in call
    order."""

    def record(name):
        calls = []
        real = getattr(_kernel, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(_kernel, name, counting)
        return calls

    return record
