"""The convolution kernels against a schoolbook reference, and edge cases."""

import random

import pytest

from qbracelet import _kernel


def conv_reference(x, y, n_out):
    out = [0] * (n_out + 1)
    for i, a in enumerate(x):
        if i > n_out:
            break
        for j, b in enumerate(y):
            if i + j > n_out:
                break
            out[i + j] += a * b
    return out


@pytest.mark.parametrize("m", [2, 3, 5, 121, 2**40 + 15])
def test_conv_mod_matches_reference(m):
    rng = random.Random(1000 + m)
    for _ in range(20):
        nx = rng.randrange(1, 40)
        ny = rng.randrange(1, 40)
        n_out = rng.randrange(0, nx + ny)
        x = [rng.randrange(m) for _ in range(nx)]
        y = [rng.randrange(m) for _ in range(ny)]
        expect = [c % m for c in conv_reference(x, y, n_out)]
        assert _kernel.conv_mod(x, y, n_out, m) == expect


def test_conv_exact_matches_reference_signed():
    rng = random.Random(7)
    for _ in range(30):
        nx = rng.randrange(1, 40)
        ny = rng.randrange(1, 40)
        n_out = rng.randrange(0, nx + ny)
        x = [rng.randrange(-(10**9), 10**9) for _ in range(nx)]
        y = [rng.randrange(-(10**9), 10**9) for _ in range(ny)]
        assert _kernel.conv_exact(x, y, n_out) == conv_reference(x, y, n_out)


def test_conv_exact_huge_coefficients():
    x = [10**50, -(10**45), 3]
    y = [1, 10**60]
    assert _kernel.conv_exact(x, y, 3) == conv_reference(x, y, 3)


def test_conv_zero_and_scalar():
    assert _kernel.conv_exact([0, 0], [0], 1) == [0, 0]
    assert _kernel.conv_mod([1], [1], 4, 7) == [1, 0, 0, 0, 0]
