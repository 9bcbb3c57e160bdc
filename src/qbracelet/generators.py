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
:func:`eta_quotient` has three routes, chosen by the ring.

Over Z: pentagonal recurrences, no convolution.  Each (q^t;q^t) has about
2 sqrt(2n/3t) nonzero terms up to q^n.  The factor with the largest |e_t|
(then the smallest t) is raised to its power by Miller's recurrence at
order n // t and inflated by t; every other factor is applied |e_t| times
in place, multiplying by shift-and-add or dividing by the bottom-up
recurrence f_i = c_i - sum_j s_j f_{i-j}.  That is O(n sqrt n)
small-by-bignum operations, where the convolutions and Newton inversion
of the modular route would multiply bignums of hundreds of bits.

Over Z/2: one bitset, no convolution.  Mod 2, (q^t;q^t)^{2^k} ==
(q^{t 2^k};q^{t 2^k}), which is 1 up to q^n once t 2^k > n.  So each
exponent is taken mod 2^k for k = bitlength(n // t), which also makes it
nonnegative, and each binary digit i of it multiplies a Python-int bitset
by the sparse (q^{t 2^i};q^{t 2^i}): one shift and XOR per pentagonal
term, masked to n + 1 bits.  The classical case is
1/(q;q) == prod_{i<k} (q^{2^i};q^{2^i}) (mod 2).

Over any other Z/M: Frobenius, inflation and Newton.  The power
recurrence divides by m, which is not invertible mod p, the bitset
identity holds mod 2 only, and at the modular orders one Kronecker
product beats O(n sqrt n) anyway.  Over an odd prime modulus p,
(q^t;q^t)^p == (q^{tp};q^{tp}) (mod p), so each exponent is split into
base-p digits, (q^t;q^t)^{d p^i} becoming (q^{t p^i};q^{t p^i})^d, before
equal steps are merged again and zero exponents dropped.  This is where
the paper's proofs start, and the cancellation it exposes is the saving:
B_125 mod 5 is {2: 1, 250: -1}.  The congruence holds only mod p, so
prime-power and composite rings keep their exponents as they are.  The
numerator and the denominator are each a product over steps sharing a gcd
g; such a product is a series in q^g, so it is built at order n // g over
the steps t/g and inflated by g, which is exact because an inflated series
is zero off the multiples of g.  The denominator is inverted once, at its
reduced order, and the two sides are multiplied once.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import add, mul, sub

from .oracles import MR_EXACT_BELOW, is_prime
from .products import ProductSpec, product_series
from .rings import EXACT, CoefficientRing, Mod
from .series import TruncatedSeries
from .theta import euler_series, pentagonal_terms


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


def _power(terms: list[tuple[int, int]], alpha: int, n: int) -> list[int]:
    """(f / f_0)^alpha to order n, f the sum of the sorted terms
    (exponent, coefficient) with (0, f_0) first, by Miller's recurrence
    m f_0 g_m = sum_{j>=1} ((alpha+1) j - m) f_j g_{m-j} (Knuth, TAOCP
    vol. 2, 4.7).  Every division is checked: a remainder means f was not
    the series the caller meant, and raises ArithmeticError."""
    (_, f0), *rest = terms
    top = rest[-1][0] if rest else 0
    g = [0] * top + [1] + [0] * n  # g_m is g[top + m]; the pad reads as zero
    for m in range(1, n + 1):
        i = top + m
        total = sum(((alpha + 1) * j - m) * c * g[i - j] for j, c in rest)
        g[i], r = divmod(total, m * f0)
        if r:
            raise ArithmeticError(
                f"power recurrence: coefficient {m} of (f/f_0)^{alpha} is not integral"
            )
    return g[top:]


def _multiply(cs: list[int], terms: list[tuple[int, int]]) -> None:
    """cs *= 1 + sum_{j>=1} s_j q^j in place: add each shifted copy of
    the old cs, truncated at the order of cs."""
    old = cs[:]
    for j, sign in terms[1:]:
        cs[j:] = map(add if sign > 0 else sub, cs[j:], old)


def _divide(cs: list[int], terms: list[tuple[int, int]]) -> None:
    """cs /= 1 + sum_{j>=1} s_j q^j in place, bottom-up:
    f_i = c_i - sum_j s_j f_{i-j}."""
    plus = [j for j, sign in terms[1:] if sign > 0]
    minus = [j for j, sign in terms[1:] if sign < 0]
    top = terms[-1][0]
    f = [0] * top + cs  # c_i is f[top + i]; the pad reads as zero
    for i in range(top + 1, len(f)):
        f[i] += sum(f[i - j] for j in minus) - sum(f[i - j] for j in plus)
    cs[:] = f[top:]


def _pentagonal_quotient(live: dict[int, int], n: int) -> TruncatedSeries:
    """prod_t (q^t;q^t)^{e_t} over Z to order n, for nonzero e_t and
    1 <= t <= n, with no convolution: the lead factor (largest |e_t|,
    then smallest t) by the power recurrence at order n // t, inflated by
    t; every other factor applied |e_t| times in place."""
    if not live:
        return TruncatedSeries.one(EXACT, n)
    lead = min(live, key=lambda t: (-abs(live[t]), t))
    m = n // lead
    if live[lead] == 1:
        g = euler_series(m).coeffs
    else:
        g = _power(pentagonal_terms(m), live[lead], m)
    cs = [0] * (n + 1)
    cs[::lead] = g
    for t, e in sorted(live.items()):
        if t != lead:
            terms = pentagonal_terms(n, t)
            for _ in range(abs(e)):
                (_multiply if e > 0 else _divide)(cs, terms)
    return TruncatedSeries(EXACT, cs, normalize=False)


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _gf2_quotient(live: dict[int, int], n: int) -> TruncatedSeries:
    """prod_t (q^t;q^t)^{e_t} over Z/2 to order n, for 1 <= t <= n, with
    no convolution: (q^t;q^t)^{2^k} == 1 once t 2^k > n, so e_t is taken
    mod 2^k and each binary digit i of it multiplies one bitset by the
    sparse (q^{t 2^i};q^{t 2^i}), shift by shift."""
    mask = (1 << (n + 1)) - 1
    bits = 1
    for t, e in live.items():
        e %= 1 << (n // t).bit_length()
        while e:
            if e & 1:
                acc = 0
                for j, _ in pentagonal_terms(n, t):
                    acc ^= bits << j
                bits = acc & mask
            e >>= 1
            t *= 2
    digits = format(bits, f"0{n + 1}b")[::-1].encode().translate(_BITS)
    return TruncatedSeries(Mod(2), list(digits), normalize=False)


def eta_quotient(
    exponents: dict[int, int], n: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Expand prod_t (q^t;q^t)^{e_t} to order n; keys are steps t >= 1."""
    if any(t < 1 for t in exponents):
        raise ValueError("eta-quotient steps must be >= 1")
    p = ring.modulus
    # the split changes nothing once p exceeds every exponent, which also
    # keeps the primality test away from large moduli; mod 2 the bitset
    # route reads the binary digits of each exponent itself.  Past the exact
    # range of is_prime the split is skipped: it is only a shortcut, and the
    # Newton route below holds for any modulus
    top = max(map(abs, exponents.values()), default=0)
    if p is not None and 2 < p <= top and p < MR_EXACT_BELOW and is_prime(p):
        exponents = _frobenius_split(exponents, p)
    live = {t: e for t, e in exponents.items() if e and t <= n}
    if ring.is_exact:
        return _pentagonal_quotient(live, n)
    if p == 2:
        return _gf2_quotient(live, n)
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
