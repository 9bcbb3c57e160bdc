"""Theta-type series built by direct summation, and the prime dissection
of Euler's product f(-q) = (q;q)_inf into arithmetic-progression components.

The two-parameter theta series here is
f(a, b) = sum over all integers n of a^{n(n+1)/2} b^{n(n-1)/2},
specialized at a = sx q^x, b = sy q^y, so that every term is a signed power
of q and direct summation truncates after O(sqrt(N)) terms.
"""

from __future__ import annotations

from typing import NamedTuple

from .oracles import is_prime
from .products import pochhammer_base
from .rings import EXACT, CoefficientRing, _Checked
from .series import TruncatedSeries


class UnsupportedSpecializationError(ValueError):
    """A triple-product specialization that leaves the power-series ring."""


def theta_terms(x: int, y: int, sx: int, sy: int, n: int) -> list[tuple[int, int]]:
    """The terms (exponent, sign) of f(sx q^x, sy q^y) up to q^n: (0, 1),
    then the terms k and -k for k = 1, 2, ... until both exponents pass n.

    Requires x, y >= 0 and x + y >= 1.  The exponents of the terms k and -k,
    x k(k+1)/2 + y k(k-1)/2 and x k(k-1)/2 + y k(k+1)/2, never fall as k
    grows, so the stop is exact.  Terms that share an exponent (x = y, or
    x or y zero) are each listed.
    """
    if sx not in (1, -1) or sy not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    if x < 0 or y < 0:
        raise ValueError("exponent parameters must be >= 0")
    if x + y < 1:
        raise ValueError("theta specialization needs x + y >= 1")
    # the parities of k(k+1)/2 and k(k-1)/2 repeat with period 4 in k
    plus, minus = (1, sx, sx * sy, sy), (1, sy, sx * sy, sx)
    s = x + y
    terms = [(0, 1)]
    k, up, down = 1, x, y  # the exponents of the terms k and -k
    while up <= n or down <= n:
        if up <= n:
            terms.append((up, plus[k & 3]))
        if down <= n:
            terms.append((down, minus[k & 3]))
        up += s * k + x  # x (k+1) + y k
        down += s * k + y  # x k + y (k+1)
        k += 1
    return terms


def _dense(terms: list[tuple[int, int]], n: int, ring: CoefficientRing) -> TruncatedSeries:
    """The series of order n whose coefficients sum the terms (exponent, sign)."""
    series = TruncatedSeries.zero(ring, n)  # refuses n < 0
    cs, norm = series.coeffs, ring.normalize
    for e, sign in terms:
        cs[e] = norm(cs[e] + sign)
    return series


def theta_f(
    x: int, y: int, sx: int, sy: int, n: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Expansion of f(sx q^x, sy q^y) to order n, from :func:`theta_terms`."""
    return _dense(theta_terms(x, y, sx, sy, n), n, ring)


def pentagonal_terms(n: int, scale: int = 1) -> list[tuple[int, int]]:
    """The nonzero terms (exponent, sign) of (q^t; q^t)_inf = f(-q^t, -q^{2t})
    = sum_k (-1)^k q^{t k(3k-1)/2} up to q^n, t = scale, by increasing
    exponent: (0, 1) first, then about 2 sqrt(2n / 3t) more."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    return theta_terms(scale, 2 * scale, -1, -1, n)


def cube_terms(n: int) -> list[tuple[int, int]]:
    """The nonzero terms (exponent, coefficient) of Jacobi's cube
    (q;q)_inf^3 = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2} up to q^n, by
    increasing exponent: (0, 1) first, then about sqrt(2n) more."""
    terms = []
    k, e = 0, 0
    while e <= n:
        terms.append((e, -(2 * k + 1) if k & 1 else 2 * k + 1))
        k += 1
        e += k
    return terms


def euler_series(
    n: int, scale: int = 1, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """(q^t; q^t)_inf from its pentagonal terms; sparse, so this is the
    fast builder the generating-function constructors lean on."""
    return _dense(pentagonal_terms(n, scale), n, ring)


def jacobi_triple_check(t: int, sz: int, n: int) -> bool:
    """Verify sum_k sz^k q^{k^2 + t k} = (-sz q^{1+t}; q^2)(-sz q^{1-t}; q^2)(q^2; q^2)
    to order n, at the specialization z = sz q^t.

    Only t in {0, 1} keeps both product offsets nonnegative; t >= 2 would
    need Laurent series and is rejected.  At t = 1 the second factor starts
    with the scalar binomial 1 + sz (zero when sz = -1, collapsing both
    sides to the zero series).
    """
    if sz not in (1, -1):
        raise ValueError("sz must be +1 or -1")
    if t < 0 or t > 1:
        raise UnsupportedSpecializationError(
            f"specialization z = sz*q^{t} leaves the power-series ring"
        )
    lhs = theta_f(1 + t, 1 - t, sz, sz, n)

    scalar = 1
    rhs = pochhammer_base(sz, 1 + t, 2, n)
    if 1 - t >= 1:
        rhs = rhs * pochhammer_base(sz, 1 - t, 2, n)
    else:
        # offset 0: split off the j = 0 binomial (1 + sz) as a scalar
        scalar = 1 + sz
        rhs = rhs * pochhammer_base(sz, 2, 2, n)
    rhs = rhs * pochhammer_base(-1, 2, 2, n)
    rhs = rhs.scale(scalar)
    equal, _ = lhs.equal_upto(rhs, n)
    return equal


class _Prime(NamedTuple):
    p: int

    @property
    def delta(self) -> int:
        return (self.p * self.p - 1) // 24

    @property
    def t(self) -> int:
        # exactly one of (p-1)/6, (-p-1)/6 is an integer for p >= 5
        if self.p % 6 == 1:
            return (self.p - 1) // 6
        return (-self.p - 1) // 6

    @property
    def epsilon(self) -> int:
        return -1 if self.t % 2 else 1


class PrimeContext(_Checked, _Prime):
    """A prime p >= 5 with the constants driving the p-dissection of f(-q):
    delta = (p^2-1)/24, the integral branch t of (+-p-1)/6, and the sign
    epsilon = (-1)^t (mathematical parity, so t = -1 gives epsilon = -1)."""

    __slots__ = ()

    def _validate(self) -> None:
        if self.p < 5 or not is_prime(self.p):
            raise ValueError(f"p must be a prime >= 5, got {self.p}")


def p_dissection_f(
    ctx: PrimeContext, n: int, ring: CoefficientRing = EXACT
) -> list[tuple[int, TruncatedSeries]]:
    """Split f(-q) into p components by exponent residue class mod p.

    Component r collects, from the dissection identity, the terms
    (-1)^m q^{(3m^2+m)/2} f(-q^{(3p^2+(6m+1)p)/2}, -q^{(3p^2-(6m+1)p)/2})
    whose class (3m^2+m)/2 mod p equals r (m runs over [-(p-1)/2, (p-1)/2]
    minus the integral branch), plus epsilon q^{delta} f(-q^{p^2}) in class
    delta mod p.  Components are returned at full length so that their
    plain sum reconstructs f(-q) to order n.
    """
    p = ctx.p
    parts = {r: TruncatedSeries.zero(ring, n) for r in range(p)}
    half = (p - 1) // 2
    for m in range(-half, half + 1):
        if m == ctx.t:
            continue
        g = (3 * m * m + m) // 2
        xa = (3 * p * p + (6 * m + 1) * p) // 2
        xb = (3 * p * p - (6 * m + 1) * p) // 2
        term = theta_f(xa, xb, -1, -1, n, ring).shift(g)
        if m % 2:
            term = -term
        parts[g % p] = parts[g % p] + term
    tail = euler_series(n, p * p, ring).shift(ctx.delta).scale(ctx.epsilon)
    r = ctx.delta % p
    parts[r] = parts[r] + tail
    return [(r, parts[r]) for r in range(p)]
