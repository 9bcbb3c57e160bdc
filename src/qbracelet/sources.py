"""Named series sources: the subjects that claims and the CLI quantify over.

A source is a value object naming one expandable series; `expand_source`
turns it into a :class:`TruncatedSeries` over a chosen ring and order.
String keys (``partition``, ``lregular:5``, ``bracelet:5``, ``euler:2``,
``product:<factors>``) round-trip through :func:`parse_source` and are what
users and reports see.  Every source but ``quintic_euler`` carries its
defining product, and :meth:`SeriesSource.identity` (the product's normal
form) is what the verification engine caches on, so ``lregular:5`` and
``product:-1,5,5,1;-1,1,1,-1`` share one build.
"""

from __future__ import annotations

from typing import NamedTuple

from .generators import (
    PARTITION_SPEC,
    bracelet_definition_spec,
    broken_diamond_spec,
    euler_quintic_rhs,
    expand_product,
    l_regular_spec,
)
from .products import NormalForm, ProductSpec
from .rings import CoefficientRing
from .series import TruncatedSeries

_FAMILY_SYMBOLS = {
    "partition": "p",
    "lregular": "b_{}",
    "brokendiamond": "Delta_{}",
    "bracelet": "B_{}",
}


class SeriesSource(NamedTuple):
    """A named series; ``spec`` is its defining product, None only for
    ``quintic_euler``, which is a sum of products."""

    kind: str
    param: int | None = None
    spec: ProductSpec | None = None

    def key(self) -> str:
        if self.kind == "product":
            return f"product:{self.spec.key()}"
        if self.param is not None:
            return f"{self.kind}:{self.param}"
        return self.kind

    def symbol(self) -> str:
        """Short function symbol used when printing congruences."""
        if self.kind in _FAMILY_SYMBOLS:
            return _FAMILY_SYMBOLS[self.kind].format(self.param)
        if self.spec is None:
            return "(q^25;q^25)oo*(a(q)-q-q^2*b(q))"
        return str(self.spec)

    def series_symbol(self) -> str:
        """The whole series: ``Σ b_5(n) q^n`` for a family, else the product."""
        family = self.kind in _FAMILY_SYMBOLS
        return f"Σ {self.symbol()}(n) q^n" if family else self.symbol()

    def identity(self) -> NormalForm | str:
        """What the series is rather than how it is spelled: sources with
        equal identities expand to equal series."""
        return self.kind if self.spec is None else self.spec.normal_form()

    def __str__(self) -> str:
        return self.key()


def partition_source() -> SeriesSource:
    return SeriesSource("partition", spec=PARTITION_SPEC)


def lregular_source(ell: int) -> SeriesSource:
    return SeriesSource("lregular", ell, l_regular_spec(ell))


def broken_diamond_source(k: int) -> SeriesSource:
    return SeriesSource("brokendiamond", k, broken_diamond_spec(k))


def bracelet_source(k: int) -> SeriesSource:
    return SeriesSource("bracelet", k, bracelet_definition_spec(k))


def euler_source(t: int = 1) -> SeriesSource:
    if t < 1:
        raise ValueError("euler step must be >= 1")
    return SeriesSource("euler", t, ProductSpec.of((-1, t, t, 1)))


def product_source(spec: ProductSpec) -> SeriesSource:
    return SeriesSource("product", spec=spec)


def quintic_euler_source() -> SeriesSource:
    return SeriesSource("quintic_euler")


_PARAMETRIZED = {
    "lregular": lregular_source,
    "brokendiamond": broken_diamond_source,
    "bracelet": bracelet_source,
    "euler": euler_source,
}
_PLAIN = {"partition": partition_source, "quintic_euler": quintic_euler_source}


def parse_source(text: str) -> SeriesSource:
    """Parse a source key like ``bracelet:5`` or ``product:-1,2,2,1``."""
    kind, _, rest = text.strip().partition(":")
    kind = kind.lower()
    if kind == "product":
        return product_source(ProductSpec.parse(rest))
    if kind in _PARAMETRIZED:
        if not rest and kind == "euler":
            return euler_source(1)
        if not rest:
            raise ValueError(f"source {kind!r} needs a parameter, e.g. {kind}:5")
        try:
            param = int(rest)
        except ValueError:
            raise ValueError(
                f"source {kind!r} parameter must be an integer, got {rest!r}"
            ) from None
        return _PARAMETRIZED[kind](param)
    if kind not in _PLAIN:
        raise ValueError(f"unknown series source kind {kind!r}")
    if rest:
        raise ValueError(f"source {kind!r} takes no parameter")
    return _PLAIN[kind]()


def expand_source(
    source: SeriesSource, ring: CoefficientRing, order: int
) -> TruncatedSeries:
    """Expand a source to the requested order over the requested ring."""
    if source.kind == "quintic_euler":
        return euler_quintic_rhs(order, ring)
    return expand_product(source.spec, order, ring)
