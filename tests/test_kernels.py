"""The convolution kernels against a schoolbook reference, and edge cases."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("m", [2, 5, 121, 2**40 + 15])
@pytest.mark.parametrize("n", [0, 1, 7, 300])
def test_conv_mod_square_equals_product_of_copies(m, n):
    # x is y takes the pack-once squaring path
    rng = random.Random(m + n)
    for size in (1, n // 2 + 1, n + 1, n + 5):
        x = [rng.randrange(m) for _ in range(size)]
        square = _kernel.conv_mod(x, x, n, m)
        assert square == _kernel.conv_mod(x, list(x), n, m)
        assert square == [c % m for c in conv_reference(x, x, n)]


@pytest.mark.parametrize("bound", [1, 10**3, 10**40])
@pytest.mark.parametrize("n", [0, 1, 7, 300])
def test_conv_exact_square_equals_product_of_copies(bound, n):
    rng = random.Random(bound + n)
    for size in (1, n // 2 + 1, n + 1, n + 5):
        x = [rng.randrange(-bound, bound + 1) for _ in range(size)]
        square = _kernel.conv_exact(x, x, n)
        assert square == _kernel.conv_exact(x, list(x), n)
        assert square == conv_reference(x, x, n)


def test_conv_zero_and_scalar():
    assert _kernel.conv_exact([0, 0], [0], 1) == [0, 0]
    assert _kernel.conv_mod([1], [1], 4, 7) == [1, 0, 0, 0, 0]


@st.composite
def signed_sides(draw):
    """Coefficient lists of 1 to 40 entries, each of up to ``bits`` bits,
    ``bits`` from 0 (an all-zero side) to 200."""
    bits = draw(st.integers(0, 200))
    top = (1 << bits) - 1
    return draw(st.lists(st.integers(-top, top), min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(signed_sides(), signed_sides(), st.integers(0, 90))
def test_conv_exact_matches_reference_hypothesis(x, y, n_out):
    # n_out reaches past len(x) + len(y); lanes of 1, 2, 4 and 8 bytes and
    # the wider byte path all occur across the drawn sizes
    assert _kernel.conv_exact(x, y, n_out) == conv_reference(x, y, n_out)
