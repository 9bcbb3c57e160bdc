"""Pochhammer factors, formal eta-quotient products, and their expansions.

A :class:`PochhammerFactor` denotes (sign q^a; q^b)_inf ^ e, i.e. the
infinite product prod_{j>=0} (1 + sign * q^{a+jb}) raised to an integer
power; a :class:`ProductSpec` is a finite list of such factors, and
:meth:`ProductSpec.normal_form` is its spelling-independent identity.
Expansion here is definitional: each factor is multiplied out, or divided
out, one binomial 1 + sign*q^m at a time, with no series inversion.  That
keeps this code an independent cross-check for the eta-quotient expander in
:mod:`qbracelet.generators`, whose modular route inverts by Newton iteration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add, mul, sub
from typing import NamedTuple

from .rings import EXACT, CoefficientRing
from .series import TruncatedSeries


@dataclass(frozen=True)
class PochhammerFactor:
    """(q^a; q^b)_inf when sign == -1, (-q^a; q^b)_inf when sign == +1."""

    sign: int
    offset: int
    step: int
    exponent: int = 1

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.offset < 1:
            raise ValueError("offset must be >= 1")
        if self.step < 1:
            raise ValueError("step must be >= 1")

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


class NormalForm(NamedTuple):
    """The sorted pairs (t, e_t) of prod_t (q^t;q^t)^{e_t}, and the other
    factors, one per base, sorted; no exponent is zero."""

    eta: tuple[tuple[int, int], ...]
    general: ProductSpec


@dataclass(frozen=True)
class ProductSpec:
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


def pochhammer_base(
    sign: int, offset: int, step: int, n: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Expand (sign q^offset; q^step)_inf to order n, one binomial at a time."""
    op = add if sign > 0 else sub
    mod = ring.modulus
    cs = [0] * (n + 1)
    cs[0] = 1
    for m in range(offset, n + 1, step):
        # multiply by (1 + sign q^m); both slices are read before the write
        shifted = map(op, cs[m:], cs[: n + 1 - m])
        cs[m:] = shifted if mod is None else [c % mod for c in shifted]
    return TruncatedSeries(ring, cs, normalize=False)


def pochhammer_inverse(
    sign: int, offset: int, step: int, n: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Expand 1 / (sign q^offset; q^step)_inf to order n, dividing by one
    binomial 1 + sign q^m at a time: f_i = c_i - sign f_{i-m}, bottom-up."""
    op = sub if sign > 0 else add
    mod = ring.modulus
    cs = [0] * (n + 1)
    cs[0] = 1
    for m in range(offset, n + 1, step):
        # m coefficients per slice, each reading the block already divided
        for j in range(m, n + 1, m):
            cs[j : j + m] = map(op, cs[j : j + m], cs[j - m : j])
        if mod is not None:
            cs[m:] = [c % mod for c in cs[m:]]
    return TruncatedSeries(ring, cs, normalize=False)


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
