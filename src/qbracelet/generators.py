"""Generating functions of the four partition families, and the one
expander every product goes through.

p(n)        1/(q;q)
b_l(n)      (q^l;q^l)/(q;q)                        l-regular partitions
Delta_k(n)  (-q;q)/((q;q)^2 (-q^{2k+1};q^{2k+1}))  broken k-diamond
B_k(n)      (-q;q)/((q;q)^{k-1} (-q^k;q^k))        k dots bracelet

Each family is stated as its defining :class:`ProductSpec`, as above.
:func:`expand_product` derives the rest from the spec's normal form, which
turns every (-q^t;q^t) into (q^{2t};q^{2t})/(q^t;q^t): B_k becomes the
eta-quotient prod_t (q^t;q^t)^{e_t} with exponent map
{1: -k, 2: 1, k: 1, 2k: -1}.  The eta map goes to :func:`eta_quotient`,
any other factors to the binomial chains of :func:`product_series`.

Frobenius.  Over a prime modulus p, (q^t;q^t)^p == (q^{tp};q^{tp}) (mod p),
so each exponent is split into base-p digits, (q^t;q^t)^{d p^i} becoming
(q^{t p^i};q^{t p^i})^d, before equal steps are merged again and zero
exponents dropped.  This is where the paper's proofs start, and the
cancellation it exposes is the saving: B_125 mod 5 is {2: 1, 250: -1}.
The congruence holds only mod p, so prime-power, composite and exact rings
keep their exponents as they are.

Inflation.  The numerator and the denominator are each a product over
steps sharing a gcd g; such a product is a series in q^g, so it is built at
order n // g over the steps t/g and inflated by g, which is exact because
an inflated series is zero off the multiples of g.  The denominator is
inverted once, at its reduced order, and the two sides are multiplied once.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import mul

from .oracles import is_prime
from .products import ProductSpec, product_series
from .rings import EXACT, CoefficientRing
from .series import TruncatedSeries
from .theta import euler_series


def _frobenius_split(exponents: dict[int, int], p: int) -> dict[int, int]:
    """Rewrite (q^t;q^t)^e as prod_i (q^{t p^i};q^{t p^i})^{d_i} mod p,
    where d_i are the base-p digits of |e| carrying the sign of e."""
    split: dict[int, int] = {}
    for t, e in exponents.items():
        sign, e = (1 if e > 0 else -1), abs(e)
        while e:
            e, d = divmod(e, p)
            split[t] = split.get(t, 0) + sign * d
            t *= p
    return split


def _euler_product(
    side: dict[int, int], n: int, ring: CoefficientRing, invert: bool
) -> TruncatedSeries | None:
    """prod_t (q^t;q^t)^{e_t} (inverted if asked) for positive e_t, built
    at order n // g over the steps t/g and inflated by g = gcd of the steps."""
    if not side:
        return None
    g = reduce(gcd, side)
    m = n // g
    powers = (euler_series(m, t // g, ring).pow(e) for t, e in sorted(side.items()))
    product = reduce(mul, powers)
    if invert:
        product = product.invert()
    return product.inflate(g).resized(n)


def eta_quotient(
    exponents: dict[int, int], n: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Expand prod_t (q^t;q^t)^{e_t} to order n; keys are steps t >= 1."""
    if any(t < 1 for t in exponents):
        raise ValueError("eta-quotient steps must be >= 1")
    p = ring.modulus
    # the split changes nothing once p exceeds every exponent, which also
    # keeps the primality test away from large moduli
    top = max(map(abs, exponents.values()), default=0)
    if p is not None and p <= top and is_prime(p):
        exponents = _frobenius_split(exponents, p)
    live = {t: e for t, e in exponents.items() if e and t <= n}
    num = _euler_product({t: e for t, e in live.items() if e > 0}, n, ring, False)
    den = _euler_product({t: -e for t, e in live.items() if e < 0}, n, ring, True)
    if num is None:
        return den if den is not None else TruncatedSeries.one(ring, n)
    return num if den is None else num * den


def expand_product(
    spec: ProductSpec, n: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Expand a product spec to order n through its normal form: the eta
    map by :func:`eta_quotient`, the remaining factors by binomial chains."""
    eta, general = spec.normal_form()
    parts = []
    if eta:
        parts.append(eta_quotient(dict(eta), n, ring))
    if general.factors:
        parts.append(product_series(general, n, ring))
    return reduce(mul, parts) if parts else TruncatedSeries.one(ring, n)


PARTITION_SPEC = ProductSpec.of((-1, 1, 1, -1))


def l_regular_spec(ell: int) -> ProductSpec:
    """The defining product (q^l;q^l)/(q;q)."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return ProductSpec.of((-1, ell, ell, 1), (-1, 1, 1, -1))


def broken_diamond_spec(k: int) -> ProductSpec:
    """The defining product (-q;q)/((q;q)^2 (-q^{2k+1};q^{2k+1}))."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = 2 * k + 1
    return ProductSpec.of((1, 1, 1, 1), (-1, 1, 1, -2), (1, m, m, -1))


def bracelet_definition_spec(k: int) -> ProductSpec:
    """The defining product (-q;q)/((q;q)^{k-1}(-q^k;q^k))."""
    if k < 3:
        raise ValueError("k must be >= 3")
    return ProductSpec.of((1, 1, 1, 1), (-1, 1, 1, -(k - 1)), (1, k, k, -1))


def gen_partition(n: int, ring: CoefficientRing = EXACT) -> TruncatedSeries:
    """Coefficients p(0)..p(n)."""
    return expand_product(PARTITION_SPEC, n, ring)


def gen_l_regular(ell: int, n: int, ring: CoefficientRing = EXACT) -> TruncatedSeries:
    """Coefficients b_ell(0)..b_ell(n)."""
    return expand_product(l_regular_spec(ell), n, ring)


def gen_broken_diamond(k: int, n: int, ring: CoefficientRing = EXACT) -> TruncatedSeries:
    """Coefficients Delta_k(0)..Delta_k(n)."""
    return expand_product(broken_diamond_spec(k), n, ring)


def gen_bracelet(k: int, n: int, ring: CoefficientRing = EXACT) -> TruncatedSeries:
    """Coefficients B_k(0)..B_k(n) of the k dots bracelet family."""
    return expand_product(bracelet_definition_spec(k), n, ring)


def bracelet_intermediate_spec(k: int) -> ProductSpec:
    """The half-rewritten form (q^2;q^2)/((q;q)^k(-q^k;q^k))."""
    if k < 3:
        raise ValueError("k must be >= 3")
    return ProductSpec.of((-1, 2, 2, 1), (-1, 1, 1, -k), (1, k, k, -1))


RAMANUJAN_A_SPEC = ProductSpec.of(
    (-1, 10, 25, 1), (-1, 15, 25, 1), (-1, 5, 25, -1), (-1, 20, 25, -1)
)
RAMANUJAN_B_SPEC = ProductSpec.of(
    (-1, 5, 25, 1), (-1, 20, 25, 1), (-1, 10, 25, -1), (-1, 15, 25, -1)
)


def ramanujan_a(n: int, ring: CoefficientRing = EXACT) -> TruncatedSeries:
    """a(q) = (q^10,q^15;q^25)/(q^5,q^20;q^25)."""
    return product_series(RAMANUJAN_A_SPEC, n, ring)


def ramanujan_b(n: int, ring: CoefficientRing = EXACT) -> TruncatedSeries:
    """b(q) = (q^5,q^20;q^25)/(q^10,q^15;q^25) = 1/a(q)."""
    return product_series(RAMANUJAN_B_SPEC, n, ring)


def euler_quintic_rhs(n: int, ring: CoefficientRing = EXACT) -> TruncatedSeries:
    """(q^25;q^25) * (a(q) - q - q^2 b(q)): the 25-step assembly of (q;q)."""
    a = ramanujan_a(n, ring)
    b = ramanujan_b(n, ring)
    q1 = TruncatedSeries.monomial(ring, n, 1)
    return euler_series(n, 25, ring) * (a - q1 - b.shift(2))
