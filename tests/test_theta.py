"""Theta summation, the triple-product checks, and the prime dissection of
Euler's product."""

import random

import pytest

from qbracelet import EXACT, Mod, TruncatedSeries, euler_series, theta_f
from qbracelet.products import ProductSpec, product_series
from qbracelet.theta import (
    PrimeContext,
    UnsupportedSpecializationError,
    cube_terms,
    jacobi_triple_check,
    p_dissection_f,
    pentagonal_terms,
    theta_terms,
)


def test_theta_is_euler_function():
    # f(-q, -q^2) = (q;q)oo, product computed by the binomial chain
    assert theta_f(1, 2, -1, -1, 100) == product_series(
        ProductSpec.of((-1, 1, 1, 1)), 100
    )


def test_theta_argument_symmetry():
    assert theta_f(1, 3, -1, 1, 50) == theta_f(3, 1, 1, -1, 50)
    assert theta_f(2, 5, -1, -1, 50) == theta_f(5, 2, -1, -1, 50)


def test_theta_sum_of_squares():
    s = theta_f(1, 1, 1, 1, 10)
    assert s.coeffs == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0]


def _brute_terms(x, y, sx, sy, n):
    """The terms of f(sx q^x, sy q^y) up to q^n, summed over |k| <= 60: for
    x + y >= 1 every exponent past k = 60 is at least 60 * 59 / 2 > 400."""
    terms = []
    for k in range(-60, 61):
        tx, ty = k * (k + 1) // 2, k * (k - 1) // 2
        if x * tx + y * ty <= n:
            terms.append((x * tx + y * ty, sx**tx * sy**ty))
    return terms


def test_theta_f_matches_a_brute_force_sum():
    rng = random.Random(1913)
    for _ in range(300):
        x, y = rng.randrange(31), rng.randrange(31)
        if x + y == 0:
            continue
        sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
        n = rng.randrange(401)
        expect = _brute_terms(x, y, sx, sy, n)
        # the stop is exact: no term past q^n, none short of it missed
        assert sorted(theta_terms(x, y, sx, sy, n)) == sorted(expect)
        cs = [0] * (n + 1)
        for e, sign in expect:
            cs[e] += sign
        assert theta_f(x, y, sx, sy, n).coeffs == cs
        assert theta_f(x, y, sx, sy, n, Mod(7)) == TruncatedSeries(Mod(7), cs)


@pytest.mark.parametrize("n, t", [(0, 1), (1, 1), (2, 1), (7, 1), (1000, 1), (30, 3), (4, 5)])
def test_pentagonal_terms_are_sorted_with_one_first(n, t):
    expect = [(0, 1)]
    for k in range(1, 40):
        expect += [(t * g, (-1) ** k) for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)]
    assert pentagonal_terms(n, t) == [(e, sign) for e, sign in expect if e <= n]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 500])
def test_cube_terms_are_jacobis_cube(n):
    # sum_k (-1)^k (2k+1) q^{k(k+1)/2} against (q;q)^3 cubed by convolution
    terms = cube_terms(n)
    assert terms[0] == (0, 1)
    assert [e for e, _ in terms] == sorted({e for e, _ in terms})
    cs = [0] * (n + 1)
    for e, c in terms:
        cs[e] = c
    assert cs == euler_series(n).pow(3).coeffs


def test_theta_rejects_degenerate_arguments():
    with pytest.raises(ValueError):
        theta_f(0, 0, 1, 1, 10)
    with pytest.raises(ValueError):
        theta_f(1, 2, 0, 1, 10)


@pytest.mark.parametrize("make, message", [
    (lambda: theta_f(0, 0, 1, 1, 10), "theta specialization needs x + y >= 1"),
    (lambda: theta_f(1, 2, 0, 1, 10), "signs must be +1 or -1"),
    (lambda: theta_terms(-1, 2, 1, 1, 10), "exponent parameters must be >= 0"),
    (lambda: theta_f(1, 2, -1, -1, -1),
     "a truncated series needs at least the q^0 coefficient"),
    (lambda: pentagonal_terms(10, 0), "scale must be >= 1"),
    (lambda: euler_series(10, 0), "scale must be >= 1"),
])
def test_theta_refusals_keep_their_messages(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


def test_euler_series_scaled():
    e = euler_series(30, 3)
    expect = [0] * 31
    for k in range(-4, 5):
        g = 3 * k * (3 * k - 1) // 2
        if 0 <= g <= 30:
            expect[g] = (-1) ** k
    assert e.coeffs == expect


@pytest.mark.parametrize("t,sz", [(0, 1), (0, -1), (1, -1), (1, 1)])
def test_jacobi_triple_product(t, sz):
    assert jacobi_triple_check(t, sz, 200)


def test_jacobi_degenerate_case_is_zero_series():
    # z = -q: both sides collapse to 0, the check still holds
    lhs = theta_f(2, 0, -1, -1, 100)
    assert lhs == TruncatedSeries.zero(EXACT, 100)


def test_jacobi_rejects_laurent_specializations():
    with pytest.raises(UnsupportedSpecializationError):
        jacobi_triple_check(2, 1, 50)
    with pytest.raises(UnsupportedSpecializationError):
        jacobi_triple_check(-1, 1, 50)


def test_prime_context_constants():
    expected = {
        5: (1, -1, -1),
        7: (2, 1, -1),
        11: (5, -2, 1),
        13: (7, 2, 1),
        17: (12, -3, -1),
        19: (15, 3, -1),
        23: (22, -4, 1),
    }
    for p, (delta, t, eps) in expected.items():
        ctx = PrimeContext(p)
        assert (ctx.delta, ctx.t, ctx.epsilon) == (delta, t, eps)
        assert 24 * ctx.delta == p * p - 1
        assert (6 * ctx.t + 1) in (p, -p)


def test_prime_context_rejects_bad_input():
    for bad in (4, 9, 2, 3, 15):
        with pytest.raises(ValueError):
            PrimeContext(bad)


def test_residue_distinctness():
    # delta_p never collides with a pentagonal class (3k^2+k)/2 mod p
    for p in (5, 7, 11, 13, 17, 19, 23):
        ctx = PrimeContext(p)
        half = (p - 1) // 2
        classes = {
            (3 * k * k + k) // 2 % p
            for k in range(-half, half + 1)
            if k != ctx.t
        }
        assert ctx.delta % p not in classes


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_p_dissection_reconstructs_euler(p):
    n = 500
    comps = p_dissection_f(PrimeContext(p), n)
    assert [r for r, _ in comps] == list(range(p))
    total = TruncatedSeries.zero(EXACT, n)
    for _, s in comps:
        total = total + s
    assert total == euler_series(n)


def test_p_dissection_components_live_on_their_class():
    for p in (5, 7):
        comps = p_dissection_f(PrimeContext(p), 300)
        for r, s in comps:
            for idx, c in enumerate(s.coeffs):
                if c != 0:
                    assert idx % p == r


def test_p_dissection_support_classes_for_five():
    comps = dict(p_dissection_f(PrimeContext(5), 500))
    nonzero = {r for r, s in comps.items() if any(c != 0 for c in s.coeffs)}
    assert nonzero == {0, 1, 2}
    for r in (3, 4):
        assert all(c == 0 for c in comps[r].coeffs)
