"""Pochhammer factors, formal eta-quotient products, and their expansions.

A :class:`PochhammerFactor` denotes (sign q^a; q^b)_inf ^ e, i.e. the
infinite product prod_{j>=0} (1 + sign * q^{a+jb}) raised to an integer
power; a :class:`ProductSpec` is a finite list of such factors, and
:meth:`ProductSpec.normal_form` is its spelling-independent identity.
Expansion here is definitional: each factor is multiplied out, or divided
out, one binomial 1 + sign*q^m at a time, with no series inversion.  That
keeps this code an independent cross-check for the eta-quotient expander in
:mod:`qbracelet.generators`, whose modular route inverts by Newton iteration.

Each chain is one int (:func:`_packed_chain`), and it works mod M.  Over
Z/2 it has one bit per coefficient and each binomial is one shift-XOR.
Otherwise it has signed byte lanes and each binomial is one shift-add, and
only before a lane could overflow are the lanes reduced mod M in place, by
masks, shifts and a multiply of the whole int.  Over Z a factor's chain
runs mod 2^b, where 2^(b - 2) exceeds the classical bound on the
partition count that bounds each coefficient, and each lane is read back
signed.  A division by 1 - x is a product of binomials 1 + x^(2^i), and
one by 1 + x is that times 1 - x, so the chain is still definitional: it
makes no ``invert``, no Newton step, no Frobenius split and no
convolution.  The chain shares only the lane and bit packing helpers of
:mod:`qbracelet._kernel` with that expander, which is why the tests check
it against a plain list loop.

Over Z/M, :func:`product_series` builds the whole product as one chain,
and a factor's binomials go into it |e| times wherever the repeats cost
no more than the products they replace, priced by
``CHAIN_PRODUCT_PRICE``.  Any other factor, and over Z every factor,
whose lane width is bounded for that one factor, takes its own chain,
raised to ``|e|``, and the parts are multiplied once as
:class:`TruncatedSeries`.  Those steps do run on ``_kernel.conv_mod`` and
``conv_exact``, the expander's kernels, which ``tests/test_kernels.py``
checks against a schoolbook reference.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from itertools import chain, repeat
from math import isqrt
from operator import mul
from typing import Iterable, Iterator, NamedTuple

from . import _kernel
from .rings import EXACT, CoefficientRing, _Checked
from .series import TruncatedSeries


class _Factor(NamedTuple):
    sign: int
    offset: int
    step: int
    exponent: int = 1

    def base_str(self) -> str:
        inner = f"q^{self.offset}" if self.offset != 1 else "q"
        if self.sign == 1:
            inner = "-" + inner
        outer = f"q^{self.step}" if self.step != 1 else "q"
        return f"({inner};{outer})oo"

    def __str__(self) -> str:
        s = self.base_str()
        if self.exponent != 1:
            s += f"^{self.exponent}"
        return s


class PochhammerFactor(_Checked, _Factor):
    """(q^a; q^b)_inf when sign == -1, (-q^a; q^b)_inf when sign == +1."""

    __slots__ = ()

    def _validate(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.offset < 1:
            raise ValueError("offset must be >= 1")
        if self.step < 1:
            raise ValueError("step must be >= 1")


class NormalForm(NamedTuple):
    """The sorted pairs (t, e_t) of prod_t (q^t;q^t)^{e_t}, and the other
    factors, one per base, sorted; no exponent is zero."""

    eta: tuple[tuple[int, int], ...]
    general: ProductSpec


class ProductSpec(NamedTuple):
    """A formal product of Pochhammer factors; the empty product is 1."""

    factors: tuple[PochhammerFactor, ...] = ()

    @classmethod
    def of(cls, *factors: tuple[int, int, int, int]) -> "ProductSpec":
        """Build from (sign, offset, step, exponent) tuples."""
        return cls(tuple(PochhammerFactor(*f) for f in factors))

    def key(self) -> str:
        return ";".join(
            f"{f.sign},{f.offset},{f.step},{f.exponent}" for f in self.factors
        )

    @classmethod
    def parse(cls, text: str) -> "ProductSpec":
        """Inverse of :meth:`key`; empty string gives the empty product."""
        if not text:
            return cls()
        factors = []
        for part in text.split(";"):
            try:
                sign, offset, step, exponent = map(int, part.split(","))
            except ValueError:
                raise ValueError(
                    f"product factor {part!r} must be SIGN,OFFSET,STEP,EXP"
                ) from None
            factors.append(PochhammerFactor(sign, offset, step, exponent))
        return cls(tuple(factors))

    def normal_form(self) -> NormalForm:
        """Rewrite (-q^t;q^t)^e as (q^{2t};q^{2t})^e (q^t;q^t)^{-e}, merge
        equal bases, drop zero exponents and sort.  Specs that differ only
        in factor order or in such rewrites get equal normal forms."""
        eta: Counter[int] = Counter()
        general: Counter[tuple[int, int, int]] = Counter()
        for f in self.factors:
            if f.offset != f.step:
                general[f.sign, f.offset, f.step] += f.exponent
            elif f.sign == 1:
                eta[2 * f.step] += f.exponent
                eta[f.step] -= f.exponent
            else:
                eta[f.step] += f.exponent
        return NormalForm(
            tuple(sorted((t, e) for t, e in eta.items() if e)),
            ProductSpec(
                tuple(PochhammerFactor(*b, e) for b, e in sorted(general.items()) if e)
            ),
        )

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        num = [f for f in self.factors if f.exponent > 0]
        den = [f for f in self.factors if f.exponent < 0]
        text = "".join(str(f) for f in num) or "1"
        if den:
            dtxt = "".join(
                str(PochhammerFactor(f.sign, f.offset, f.step, -f.exponent))
                for f in den
            )
            text += "/" + dtxt
        return text


@lru_cache(maxsize=None)
def _lane_rounds(m: int, bits: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The rounds (r, 2^r mod m) of the in-place reduction mod m of lanes
    of ``bits`` bits, each in [0, 2^bits) once half = 2^(bits - 1) is
    added to it, and the bound on every |c| once half mod m is taken off
    again after them.  It is the same for every chain mod m, so it is
    worked out once.

    A round takes each lane v = lo + hi 2^r, lo < 2^r, to
    lo + hi (2^r mod m), which is v again mod m, and r gives it the least
    bound on a lane.  Each round found lowers that bound, and the first k
    are taken for the k at which a reduction costs least per shift-add it
    buys: two passes over the int and five a round, against the doublings
    from its bound up to half, two passes each.
    """
    half = 1 << bits - 1
    offset = half % m
    # a round with 2^r < m maps every lane to itself
    powers = {r: pow(2, r, m) for r in range((m - 1).bit_length(), bits)}
    tops, rounds = [(1 << bits) - 1], []
    while True:
        top, r = min(
            (min(tops[-1], (1 << r) - 1) + (tops[-1] >> r) * c, r)
            for r, c in powers.items()
        )
        if top >= tops[-1]:
            break
        tops.append(top)
        rounds.append((r, powers[r]))
    bounds = [max(offset, top - offset) for top in tops]
    k = min(
        range(1, len(tops)),
        key=lambda k: (2 + 5 * k) / ((half - 1) // (2 * bounds[k])).bit_length(),
    )
    return tuple(rounds[:k]), bounds[k]


def _packed_chain(shifts: Iterable[tuple[int, int]], n: int, m: int) -> list[int]:
    """Coefficients 0..n, reduced mod m, of the product of the binomials
    1 + sign q^s over the (s, sign) pairs, 1 <= s <= n.

    Over Z/2, where 1 - q^s == 1 + q^s, the series is one int with bit i
    the coefficient of q^i, and each binomial is one shift-XOR masked to
    n + 1 bits, which never needs a reduction.

    Otherwise the series is one int of signed lanes, c_i in lane n + 1 - i,
    so a right shift by s lanes is multiplication by q^s truncated at q^n,
    and each binomial is one shift-add.  The lanes take the bytes of m - 1
    and one more.  ``bound`` bounds every |c_i|, and before a doubling
    could reach the largest value a signed lane holds, half, the lanes are
    reduced mod m in place, never leaving the int: adding half to every
    lane puts each in [0, 2^bits), the rounds of :func:`_lane_rounds`
    reduce them, each a few masks, shifts and one multiply of the whole
    int, and taking half mod m off every lane again leaves signed lanes
    congruent to the old ones.  When m divides 2^r, as m = 2^b of an exact
    chain (:func:`_chain_series`) does, a round is one mask, and half mod m
    is 0.  Lane 0, never read, takes the q^(n+1) terms and the borrow of
    each right shift: at most bound + 1 a shift, which sums to less than
    the bound plus the shifts since the last reduction, so it stays in
    range too.  The int is unpacked once, at the end.
    """
    if m == 2:
        mask, word = (1 << (n + 1)) - 1, 1
        for s, _ in shifts:
            word = (word ^ word << s) & mask
        return _kernel._unpack_bits(word, n + 1)
    count, lane = n + 2, ((m - 1).bit_length() + 7) // 8 + 1
    bits = 8 * lane
    half = 1 << bits - 1  # a lane holds [-half, half)
    halves = _kernel._repeat(half, lane, count)
    packed, bound, split = 1 << (bits * (n + 1)), 1, []
    for s, sign in shifts:
        if 2 * bound >= half:
            if not split:
                rounds, reduced = _lane_rounds(m, bits)
                split = [
                    (r, _kernel._repeat((1 << r) - 1, lane, count),
                     _kernel._repeat((1 << bits - r) - 1, lane, count), c)
                    for r, c in rounds
                ]
                offsets = _kernel._repeat(half % m, lane, count)
            packed += halves
            for r, low, high, c in split:
                packed = (packed & low) + (packed >> r & high) * c if c else packed & low
            if offsets:
                packed -= offsets
            bound = reduced
        shifted = packed >> (bits * s)
        packed = packed + shifted if sign > 0 else packed - shifted
        bound *= 2
    cs = _kernel._unpack(packed + halves, lane, count)[1:]
    return [(c - half) % m for c in reversed(cs)]


def _chain_series(
    shifts: Iterable[tuple[int, int]], n: int, ring: CoefficientRing, bits: int
) -> TruncatedSeries:
    """The product of the binomials over the ring, by :func:`_packed_chain`.
    Over Z, for binomials whose product has every |c_i| < 2^(bits - 1), the
    chain runs mod 2^bits and each lane is read back from
    (-2^(bits - 1), 2^(bits - 1)), where that c_i lies."""
    if not ring.is_exact:
        return TruncatedSeries(ring, _packed_chain(shifts, n, ring.modulus), normalize=False)
    m = 1 << bits
    cs = [c - m if 2 * c >= m else c for c in _packed_chain(shifts, n, m)]
    return TruncatedSeries(ring, cs, normalize=False)


def _inverse_shifts(
    sign: int, offset: int, step: int, n: int
) -> Iterator[tuple[int, int]]:
    """The binomials whose product is 1 / (sign q^offset; q^step)_inf to
    order n: 1/(1 - x) = prod_{i>=0} (1 + x^(2^i)) and
    1/(1 + x) = (1 - x) prod_{i>=1} (1 + x^(2^i)), x = q^m, up to q^n."""
    for m in range(offset, n + 1, step):
        if sign > 0:
            yield m, -1
            m *= 2
        while m <= n:
            yield m, 1
            m *= 2


def _binomials(
    sign: int, offset: int, step: int, n: int, divide: bool
) -> Iterator[tuple[int, int]]:
    """The (s, sign) binomials of (sign q^offset; q^step)_inf to order n,
    or of its inverse when ``divide``."""
    PochhammerFactor(sign, offset, step)  # raises ValueError on a bad base
    if divide:
        return _inverse_shifts(sign, offset, step, n)
    return zip(range(offset, n + 1, step), repeat(sign))


def _binomial_count(offset: int, step: int, n: int, divide: bool) -> int:
    """The length of ``_binomials(sign, offset, step, n, divide)``: a
    divided factor takes one binomial per m 2^j <= n, that is per
    m <= n >> j, for each of its m."""
    tops = [n >> j for j in range(n.bit_length())] if divide else [n]
    return sum(len(range(offset, top + 1, step)) for top in tops)


def pochhammer_base(
    sign: int, offset: int, step: int, n: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Expand (sign q^offset; q^step)_inf to order n, one binomial at a time.

    Over Z the chain runs mod 2^b, b = isqrt(7n) + 3.  The coefficient of
    q^i is a signed count of the partitions of i into distinct parts
    offset + j step, so |c_i| <= Q(i), the count into any distinct parts,
    and Q(i) x^i <= prod_{k>=1} (1 + x^k) for 0 < x < 1.  At x = e^-t,
    sum_k log(1 + e^-kt) < int_0^oo log(1 + e^-ut) du = pi^2 / (12 t),
    since the summand decreases, so log Q(i) < i t + pi^2 / (12 t) for
    every t > 0, whose least value is pi sqrt(i/3).  And
    pi / sqrt(3) < sqrt(7) log 2, so |c_i| <= 2^sqrt(7n) < 2^(b - 2): the
    sign bit and one bit more are spare."""
    binomials = _binomials(sign, offset, step, n, False)
    return _chain_series(binomials, n, ring, isqrt(7 * n) + 3)


def pochhammer_inverse(
    sign: int, offset: int, step: int, n: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Expand 1 / (sign q^offset; q^step)_inf to order n, dividing by one
    binomial at a time, each a chain of products (:func:`_inverse_shifts`).

    Over Z the chain runs mod 2^b, b = isqrt(14n) + 3.  The coefficient of
    q^i is a signed count of the partitions of i into parts
    offset + j step, so |c_i| <= p(i), and
    p(i) x^i <= prod_{k>=1} 1 / (1 - x^k) for 0 < x < 1.  At x = e^-t,
    sum_k -log(1 - e^-kt) < int_0^oo -log(1 - e^-ut) du = pi^2 / (6 t),
    since the summand decreases, so log p(i) < i t + pi^2 / (6 t) for
    every t > 0, whose least value is pi sqrt(2i/3).  And
    pi sqrt(2/3) < sqrt(14) log 2, so |c_i| <= 2^sqrt(14n) < 2^(b - 2):
    the sign bit and one bit more are spare."""
    binomials = _binomials(sign, offset, step, n, True)
    return _chain_series(binomials, n, ring, isqrt(14 * n) + 3)


# C(n), the price of one full-order product over Z/M counted in binomial
# shift-adds, is CHAIN_PRODUCT_PRICE * isqrt(n + 1): 144, 264 and 846 at
# orders 600, 2000 and 20,000.  Measured (CPython 3.11, 2-CPU x86-64,
# BENCH_29.json), a conv_mod at M = 5..257 there cost as much as 96-174,
# 201-421 and 1,193-1,670 shift-adds of a chain, and over Z/2, where a
# binomial is a shift-XOR, 863 to 16,951.  A price that grows like n
# instead would repeat the binomials of factors whose pow is far cheaper.
CHAIN_PRODUCT_PRICE = 6


def product_series(
    spec: ProductSpec, n: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Expansion of a full product spec to order n.

    Each factor multiplies in its binomials when its exponent is positive
    and divides them out when negative.  Over Z/M the product is one
    chain, and a factor of B binomials goes into it |e| times when
    (|e| - 1) B <= (bitlen |e| + popcount |e| - 1) C(n): its repeats cost
    no more than the bitlen |e| + popcount |e| - 2 products of its pow and
    the one that multiplies its part in, at C(n) = CHAIN_PRODUCT_PRICE
    isqrt(n + 1) shift-adds each.  The merged chain is multiplied in once
    too, so it is made only when the margins of its factors sum to at
    least C(n).  Any other factor, and over Z every factor, whose lane
    width is bounded for that one factor, is expanded by its own chain and
    raised to |e|, and the parts are multiplied once; nothing is multiplied
    by one.  So a factor's repeats never add more than
    (bitlen |e| + popcount |e| - 1) C(n) binomials, for any |e|.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    # a factor whose offset passes n is 1 up to q^n
    factors = [f for f in spec.factors if f.exponent and f.offset <= n]
    price, margins = CHAIN_PRODUCT_PRICE * isqrt(n + 1), []
    for f in factors:
        e = abs(f.exponent)
        count = _binomial_count(f.offset, f.step, n, f.exponent < 0)
        margins.append((e.bit_length() + e.bit_count() - 1) * price - (e - 1) * count)
    merge = not ring.is_exact and sum(m for m in margins if m >= 0) >= price
    chained, parts = [], []
    for f, margin in zip(factors, margins):
        if merge and margin >= 0:
            chained.append(f)
        else:
            build = pochhammer_inverse if f.exponent < 0 else pochhammer_base
            parts.append(build(f.sign, f.offset, f.step, n, ring).pow(abs(f.exponent)))
    if chained:
        binomials = chain.from_iterable(
            _binomials(f.sign, f.offset, f.step, n, f.exponent < 0)
            for f in chained
            for _ in range(abs(f.exponent))
        )
        parts.append(
            TruncatedSeries(ring, _packed_chain(binomials, n, ring.modulus), normalize=False)
        )
    return reduce(mul, parts) if parts else TruncatedSeries.one(ring, n)
