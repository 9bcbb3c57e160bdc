"""Pochhammer factors, formal eta-quotient products, and their expansions.

A :class:`PochhammerFactor` denotes (sign q^a; q^b)_inf ^ e, i.e. the
infinite product prod_{j>=0} (1 + sign * q^{a+jb}) raised to an integer
power; a :class:`ProductSpec` is a finite list of such factors, and
:meth:`ProductSpec.normal_form` is its spelling-independent identity.
Expansion here is definitional: each factor is multiplied out, or divided
out, one binomial 1 + sign*q^m at a time, with no series inversion.  That
keeps this code an independent cross-check for the eta-quotient expander in
:mod:`qbracelet.generators`, whose modular route inverts by Newton iteration.

One chain serves both rings (:func:`_packed_chain`): the whole series is
one int of signed byte lanes, each binomial is one shift-add, and only
before a lane could overflow are the lanes reduced mod M, or over Z widened
to fit the largest coefficient.  A division by 1 - x is a product of
binomials 1 + x^(2^i), and one by 1 + x is that times 1 - x, so the chain
is still definitional: it makes no ``invert``, no Newton step, no Frobenius
split and no convolution.  The chain shares only the lane packing helpers
of :mod:`qbracelet._kernel` with that expander, which is why the tests
check it against a plain list loop.  :func:`product_series` then raises
each chain to ``|e|`` and multiplies the parts once as
:class:`TruncatedSeries`, so those steps do run on ``_kernel.conv_mod`` and
``conv_exact``, the expander's kernels, which ``tests/test_kernels.py``
checks against a schoolbook reference.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
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


# Spare bytes in each lane of a packed chain above the bytes of the largest
# |c| it was packed for: a shift-add at most doubles a lane, so 8 *
# LANE_HEADROOM - 1 of them fit before the lanes are reduced, or widened.
LANE_HEADROOM = 7


def _packed_chain(
    shifts: Iterable[tuple[int, int]], n: int, m: int | None = None
) -> list[int]:
    """Coefficients 0..n, reduced mod m (exact when m is None), of the
    product of the binomials 1 + sign q^s over the (s, sign) pairs, 1 <= s <= n.

    The series is one int of signed lanes, c_i in lane n + 1 - i, so a
    right shift by s lanes is multiplication by q^s truncated at q^n, and
    each binomial is one shift-add.  ``bound`` bounds every |c_i|.  Only
    before a doubling could reach the largest value a signed lane holds are
    the lanes unpacked: then reduced mod m, or over Z repacked in lanes wide
    enough for the new bound max |c_i|.  Lane 0, never read, takes the
    q^(n+1) terms and the borrow of each right shift: at most bound + 1 a
    shift, which sums to less than the bound plus the shifts since the last
    repack, so it stays in range too.
    """
    count = n + 2

    def lanes(top: int) -> tuple[int, int, int, int]:
        """Lane bytes and bits, half, and half in every lane, for |c| <= top."""
        lane = (top.bit_length() + 7) // 8 + LANE_HEADROOM
        half = 1 << (8 * lane - 1)  # a lane holds [-half, half)
        return lane, 8 * lane, half, _kernel._repeat(half, lane, count)

    def unpacked(packed: int) -> list[int]:
        cs = _kernel._unpack(packed + halves, lane, count)[1:]
        return [c - half for c in cs] if m is None else [(c - half) % m for c in cs]

    lane, bits, half, halves = lanes(1 if m is None else m - 1)
    packed, bound = 1 << (bits * (n + 1)), 1
    for s, sign in shifts:
        if 2 * bound >= half:
            cs = unpacked(packed)
            if m is None:
                bound = max(map(abs, cs))
                lane, bits, half, halves = lanes(bound)
                packed = _kernel._pack([half, *(c + half for c in cs)], lane) - halves
            else:
                packed, bound = _kernel._pack([0, *cs], lane), m - 1
        shifted = packed >> (bits * s)
        packed = packed + shifted if sign > 0 else packed - shifted
        bound *= 2
    return unpacked(packed)[::-1]


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


def pochhammer_base(
    sign: int, offset: int, step: int, n: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Expand (sign q^offset; q^step)_inf to order n, one binomial at a time."""
    PochhammerFactor(sign, offset, step)  # raises ValueError on a bad base
    binomials = ((m, sign) for m in range(offset, n + 1, step))
    return TruncatedSeries(ring, _packed_chain(binomials, n, ring.modulus), normalize=False)


def pochhammer_inverse(
    sign: int, offset: int, step: int, n: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Expand 1 / (sign q^offset; q^step)_inf to order n, dividing by one
    binomial at a time, each a chain of products (:func:`_inverse_shifts`)."""
    PochhammerFactor(sign, offset, step)  # raises ValueError on a bad base
    binomials = _inverse_shifts(sign, offset, step, n)
    return TruncatedSeries(ring, _packed_chain(binomials, n, ring.modulus), normalize=False)


def product_series(
    spec: ProductSpec, n: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Expansion of a full product spec to order n.

    Each factor is expanded by its own binomial chain, multiplied in when
    its exponent is positive and divided out when negative, raised to |e|,
    and the parts are multiplied once; nothing is multiplied by one.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    parts = [
        (pochhammer_base if f.exponent > 0 else pochhammer_inverse)(
            f.sign, f.offset, f.step, n, ring
        ).pow(abs(f.exponent))
        for f in spec.factors
        if f.exponent
    ]
    return reduce(mul, parts) if parts else TruncatedSeries.one(ring, n)
