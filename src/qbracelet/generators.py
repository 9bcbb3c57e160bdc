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
any other factors to the binomial chains of :func:`product_series`: over
Z/M one chain for them all, but for a factor whose |e| makes pow cheaper
than repeating its binomials, and over Z one chain per factor.
:func:`eta_quotient` has three routes, chosen by the ring.

Over Z: pentagonal recurrences, in two steps.  Each (q^t;q^t) has
about 2 sqrt(2n/3t) nonzero terms up to q^n, all +1 or -1, and Jacobi's
cube (q;q)^3 = sum_k (-1)^k (2k+1) q^{k(k+1)/2} about sqrt(2n).

  1. Each factor with |e_t| >= 4 is raised by Miller's recurrence over
     the pentagonal terms, its sums split by sign so that no step
     multiplies by a +-1, at order n // t and inflated by t.  The largest
     |e_t| (then the smallest t) starts the product, and any other such
     factor is multiplied in once, so no cost grows with |e_t|.
  2. Then, by increasing t, each factor with |e_t| <= 3 is applied in
     place: by the cube's terms once when |e_t| == 3, by the pentagonal
     terms |e_t| times otherwise.  A multiplication is the sparse product
     of the strided route below, sum_j s_j q^j times the product so far,
     with no division, and on the starting 1 it just places the terms; a
     division is the bottom-up recurrence f_i = c_i - sum_j s_j f_{i-j}.

When every |e_t| is at most 3 no power recurrence runs at all.  That is
O(n sqrt n) small-by-bignum operations, where the convolutions and Newton
inversion of the modular route would multiply bignums of hundreds of
bits; only a quotient with two factors of |e_t| >= 4 makes a convolution.

Over Z/2: one bitset, no convolution (:func:`gf2_bits`).  Mod 2,
(q^t;q^t)^{2^k} == (q^{t 2^k};q^{t 2^k}), the p = 2 case of the Frobenius
step below.  So the map is first merged by odd part: every t = u 2^v adds
e_t 2^v to one exponent E_u of (q^u;q^u), and B_6's {1: -6, 2: 1, 6: 1,
12: -1} becomes {1: -4, 3: -2}.  (q^u;q^u)^{2^k} is 1 up to q^n once
u 2^k > n, so E_u is taken mod 2^k for k = bitlength(n // u), which also
makes it nonnegative, and each binary digit i of it multiplies a
Python-int bitset by the sparse (q^{u 2^i};q^{u 2^i}): one shift and XOR
per pentagonal term, masked to n + 1 bits.  The merge is exact and never
adds a sparse product, since the binary ones of a sum are at most those of
its terms.  The classical case is 1/(q;q) == prod_{i<k} (q^{2^i};q^{2^i})
(mod 2).  The bitset is the result; a series over Z/2 is read off it.

Over any other Z/M: Frobenius, its lift mod p^2, inflation and Newton.
The power recurrence divides by m, which is not invertible mod p, the
bitset identity holds mod 2 only, and at the modular orders one
Kronecker product beats O(n sqrt n) anyway.  Over an odd prime modulus p,
(q^t;q^t)^p == (q^{tp};q^{tp}) (mod p), so each exponent is split into
base-p digits, (q^t;q^t)^{d p^i} becoming (q^{t p^i};q^{t p^i})^d, before
equal steps are merged again and zero exponents dropped.  This is where
the paper's proofs start, and the cancellation it exposes is the saving:
B_125 mod 5 is {2: 1, 250: -1}.

The congruence holds only mod p; over Z/p^2 (p prime, 2 included) its
first-order lift takes its place.  For odd p, (1 - x)^p = (1 - x^p) +
p S(x) with S(x) == -sum_{0<k<p} x^k / k (mod p), so X = (q^t;q^t)^p and
Y = (q^{tp};q^{tp}) have X == Y (1 + p Z(q^t)) (mod p^2), where
Z_N == -sum_{d | N, p does not divide d} 1/d (mod p).  For p = 2,
(q;q)^2 / (q^2;q^2) = sum_k (-1)^k q^{k^2}, so Z_N = 1 exactly when N is
a nonzero square.  Both are Z_N == -sum_{d | N} d^{p-2} (mod p).  Then
X^a == Y^a (1 + a p Z) (mod p^2) for a of either sign, and over several
factors every term with two p's vanishes.  So each factor with e_t = p a
moves Y^a into the map at step tp and a Z(q^t) into
W = sum_t a_t Z(q^t), and the quotient is Q + p (Q W mod p), where Q is
the moved map's quotient by the route below: B_11 mod 121 gives
Q = {2: 1, 22: -1}, inverted at order n // 22, so no Newton step runs
at full order.  W is a sieve over Z/p: the weights f_d = -a d^{p-2} mod p,
for d <= n // t only, go to every index t j d, O(n log n) in all, by
2 s slice adds for s = isqrt(n // t): one of the constant f_d per
d <= s, and one of the f_d with d > s per cofactor j <= s, since
j d <= n // t puts d or j at most s.  Q W is one convolution mod p.  A
multiple of p as a adds nothing to W, since X^{pb} == Y^{pb} (mod p^2),
and when W == 0 (mod p) the quotient is Q.  A factor with e_t = p stays
as it is, since a numerator takes no Newton step anyway, and so do
factors whose e_t p does not divide, higher prime powers and composite
rings.

The live steps have a gcd g, so the quotient is a series in q^g: it is
built at order m = n // g over the steps t/g and inflated by g once at
the end, which is exact because an inflated series is zero off the
multiples of g.  The denominator, a series in q^h for h the gcd of its
reduced steps, is built at order m // h and inverted there by Newton.
With no numerator that inverse is inflated by h g.  A sparse numerator,
with nonzero terms N_j (the pentagonal terms when it is one factor to the
first power), is multiplied in by the sparse product
R = sum_j N_j q^j Dinv(q^h), one slice add R[j::h] += N_j Dinv per term,
and R is reduced mod M once: B_125 mod 5 is 183 slices of 101
coefficients at m = 12,526 instead of a convolution of that order.  A
numerator with more terms than STRIDED_PRODUCT_RATIO allows is multiplied
by one convolution with the inverse inflated by h.  Every
(q^t;q^t)^e these routes build, numerator or denominator, has one
builder: pow(e), or Jacobi's cube, placed, times (q;q)^{e-3} when e - 3 has
fewer binary ones than e, at order n // t and inflated by t.

Ramanujan's a(q) and b(q) are general products, expanded by
:func:`product_series` (:func:`ramanujan_a`, :func:`ramanujan_b`), the
definitional route.  :func:`euler_quintic_rhs` builds them by the Jacobi
triple product instead, (q^a, q^{25-a}, q^25; q^25) = f(-q^a, -q^{25-a}):
a(q) = f(-q^10, -q^15) / f(-q^5, -q^20) and b(q) = 1/a(q), each a dense
theta series divided by the sparse terms of the other, bottom-up over Z,
then multiplied by the pentagonal terms of (q^25;q^25) in place.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from math import gcd, isqrt
from operator import add, mul, sub

from . import _kernel
from .oracles import MR_EXACT_BELOW, is_prime
from .products import ProductSpec, product_series
from .rings import EXACT, CoefficientRing, Mod
from .series import TruncatedSeries
from .theta import (
    _dense,
    cube_terms,
    euler_series,
    pentagonal_terms,
    theta_f,
    theta_terms,
)

# The strided product of a numerator with nnz(N) nonzero terms by an
# inverse in q^h costs nnz(N) * (m // h + 1) slice steps; it is taken while
# that is at most this many times the m + 1 coefficients of the dense
# product.  Set from the workloads (CPython 3.11, 2-CPU x86-64): the five
# strided builds of `verify --all` (bracelet:125, 25 and 5 mod 5, 7 mod 7,
# 11 mod 11) have ratios 1.5 to 10.5, bracelet:10 mod 5 at ratio 14.8 is
# faster dense (0.7 against 1.1 ms), and product_mix's eta-quotients at
# order <= 600 gain nothing from strided past ratio 11.
STRIDED_PRODUCT_RATIO = 11


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


def _euler_power(m: int, t: int, e: int, ring: CoefficientRing) -> TruncatedSeries:
    """(q^t;q^t)^e over Z/M to order m, for e >= 1, a numerator or
    denominator of :func:`_modular_quotient`, built at order m // t and
    inflated by t: by pow(e), or Jacobi's cube, placed, times
    (q;q)^{e-3} when e - 3 has fewer binary ones than e, which takes no
    more squarings and at least one multiplication fewer (e = 3, 5, 7, 11,
    13, 15, ...)."""
    k = m // t
    if e < 3 or bin(e - 3).count("1") >= bin(e).count("1"):
        x = euler_series(k, 1, ring).pow(e)
    else:
        x = _dense(cube_terms(k), k, ring)
        if e > 3:
            x = x * euler_series(k, 1, ring).pow(e - 3)
    return x.inflate(t).resized(m)


def _euler_product(
    side: dict[int, int], n: int, ring: CoefficientRing
) -> TruncatedSeries:
    """prod_t (q^t;q^t)^{e_t} to order n, for nonempty side and positive
    e_t, built at order n // k over the steps t/k and inflated by k, the
    gcd of the steps."""
    k = reduce(gcd, side)
    powers = (_euler_power(n // k, t // k, e, ring) for t, e in sorted(side.items()))
    return reduce(mul, powers).inflate(k).resized(n)


def _modular_quotient(
    live: dict[int, int], n: int, ring: CoefficientRing
) -> TruncatedSeries:
    """prod_t (q^t;q^t)^{e_t} over Z/M to order n, for nonzero e_t and
    1 <= t <= n, by inflation, Newton and a strided or dense product (see
    the module docstring)."""
    if not live:
        return TruncatedSeries.one(ring, n)
    g = reduce(gcd, live)
    m = n // g
    num = {t // g: e for t, e in live.items() if e > 0}
    den = {t // g: -e for t, e in live.items() if e < 0}
    if not den:
        return _euler_product(live, n, ring)
    h = reduce(gcd, den)
    inverse = _euler_product({t // h: e for t, e in den.items()}, m // h, ring).invert()
    if not num:
        return inverse.inflate(h * g).resized(n)
    numerator = None
    if list(num.values()) == [1]:  # terms of +-1, which make no multiply
        terms = pentagonal_terms(m, *num)
    else:
        numerator = _euler_product(num, m, ring)
        terms = [(j, c) for j, c in enumerate(numerator.coeffs) if c]
    if len(terms) * (m // h + 1) <= STRIDED_PRODUCT_RATIO * (m + 1):
        product = TruncatedSeries(ring, _sparse_product(terms, inverse.coeffs, h, m))
    else:
        numerator = numerator or _euler_product(num, m, ring)
        product = numerator * inverse.inflate(h).resized(m)
    return product.inflate(g).resized(n)


def _live(exponents: dict[int, int], n: int) -> dict[int, int]:
    """The factors of an eta map that are not 1 up to q^n."""
    return {t: e for t, e in exponents.items() if e and t <= n}


def _lifted_quotient(
    live: dict[int, int], n: int, ring: CoefficientRing, p: int
) -> TruncatedSeries:
    """prod_t (q^t;q^t)^{e_t} over Z/p^2 to order n, p prime, for nonzero
    e_t and 1 <= t <= n, as Q + p (Q W mod p): each factor with
    e_t = p a_t, a_t != 1, moves (q^{tp};q^{tp})^{a_t} into the map of Q
    and a_t Z(q^t) into W (see the module docstring)."""
    lifted = {t: e // p for t, e in live.items() if e % p == 0 and e != p}
    eta = {t: e for t, e in live.items() if t not in lifted}
    w = [0] * (n + 1)
    for t, a in lifted.items():
        eta[t * p] = eta.get(t * p, 0) + a
        if a % p:  # a multiple of p adds nothing to W
            # -a d^{p-2} mod p: -a/d, 0 when p | d, and a for every d if p = 2
            f = [-a * pow(d, p - 2, p) % p for d in range(1, n // t + 1)]
            s = isqrt(n // t)  # each pair j d <= n // t has d <= s or j <= s
            for k in range(t, t * s + 1, t):
                # k = t d: f_d at every t d j; k = t j: f_d, d > s, at t j d
                w[k::k] = map(add, w[k::k], repeat(f[k // t - 1]))
                w[k * (s + 1) :: k] = map(add, w[k * (s + 1) :: k], f[s:])
    result = _modular_quotient(_live(eta, n), n, ring)
    if not any(w):  # no a_t is nonzero mod p, so W == 0 (mod p)
        return result
    correction = TruncatedSeries(Mod(p), result.coeffs) * TruncatedSeries(Mod(p), w)
    return result + TruncatedSeries(ring, correction.coeffs).scale(p)


def _power(terms: list[tuple[int, int]], alpha: int, n: int) -> list[int]:
    """(f / f_0)^alpha to order n, f the sum of the sorted terms
    (exponent, coefficient) with (0, f_0) first and every later coefficient
    +1 or -1, by Miller's recurrence
    m f_0 g_m = sum_{j>=1} ((alpha+1) j - m) f_j g_{m-j} (Knuth, TAOCP
    vol. 2, 4.7).  The terms are split by sign, with u_j = (alpha+1) j
    taken once, so each step sums (u_j - m) g_{m-j} over the +1 terms and
    over the -1 terms and subtracts: f_j multiplies nothing.  Step m sums
    only the terms with j <= m.  A later coefficient other than +1 or -1
    raises ValueError.  Every division is checked: a remainder means f was
    not the series the caller meant, and raises ArithmeticError."""
    (_, f0), *rest = terms
    if any(c not in (1, -1) for _, c in rest):
        raise ValueError("power recurrence: the terms past f_0 must be +1 or -1")
    g = [1] + [0] * n
    plus, minus, k = [], [], 0  # (u_j, j) of the terms with j <= m, by sign
    for m in range(1, n + 1):
        while k < len(rest) and rest[k][0] <= m:
            j, c = rest[k]
            (plus if c == 1 else minus).append(((alpha + 1) * j, j))
            k += 1
        total = sum((u - m) * g[m - j] for u, j in plus) - sum(
            (u - m) * g[m - j] for u, j in minus
        )
        g[m], r = divmod(total, m * f0)
        if r:
            raise ArithmeticError(
                f"power recurrence: coefficient {m} of (f/f_0)^{alpha} is not integral"
            )
    return g


def _past_one(terms: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The terms past the first of a series that must start with (0, 1).
    Any other first term means the terms are not the series the caller
    meant, and raises ArithmeticError."""
    if terms[0] != (0, 1):
        raise ArithmeticError(f"expected the constant term (0, 1), got {terms[0]}")
    return terms[1:]


def _sparse_product(
    terms: list[tuple[int, int]], d: list[int], h: int, m: int
) -> list[int]:
    """sum_j c_j q^j D(q^h) to order m, for the sorted terms (j, c_j) of a
    series that starts with (0, 1) and the coefficients d of D: one slice
    add per term, over slice(j, j + h len(d), h), adding or subtracting d
    when c_j is +1 or -1 and adding c_j times it otherwise (Jacobi's cube,
    a dense numerator).  With d == [1] it places the terms."""
    cs, span = [0] * (m + 1), h * len(d)
    cs[:span:h] = d[: m // h + 1]  # the constant term 1
    for j, c in _past_one(terms):
        s = slice(j, j + span, h)
        if c == -1:
            cs[s] = map(sub, cs[s], d)
        else:
            cs[s] = map(add, cs[s], d if c == 1 else map(mul, repeat(c), d))
    return cs


def _divide(cs: list[int], terms: list[tuple[int, int]]) -> None:
    """cs /= 1 + sum_{j>=1} s_j q^j in place, bottom-up:
    f_i = c_i - sum_{j<=i} s_j f_{i-j}.  The sums are split by sign.  When
    every s_j is +1 or -1 (pentagonal and theta terms) they make no
    multiply; other s_j (Jacobi's cube) multiply f_{i-j} by |s_j|."""
    rest = _past_one(terms)
    unit = all(s in (1, -1) for _, s in rest)
    plus, minus, k = [], [], 0  # the terms with j <= i, by sign
    for i in range(1, len(cs)):
        while k < len(rest) and rest[k][0] <= i:
            j, s = rest[k]
            (plus if s > 0 else minus).append(j if unit else (abs(s), j))
            k += 1
        if unit:
            cs[i] += sum(cs[i - j] for j in minus) - sum(cs[i - j] for j in plus)
        else:
            cs[i] += sum(w * cs[i - j] for w, j in minus) - sum(
                w * cs[i - j] for w, j in plus
            )


def _pentagonal_quotient(live: dict[int, int], n: int) -> TruncatedSeries:
    """prod_t (q^t;q^t)^{e_t} over Z to order n, for nonzero e_t and
    1 <= t <= n, in two steps: each factor with |e_t| >= 4 by
    :func:`_power` at order n // t, inflated by t, the largest |e_t| (then
    the smallest t) first and any other multiplied in once; then, by
    increasing t, each factor with |e_t| <= 3 in place, by the cube's terms
    once when |e_t| == 3 and by the pentagonal terms |e_t| times otherwise,
    multiplying by :func:`_sparse_product` (which places the terms when
    they multiply the starting 1) or dividing by :func:`_divide`."""
    if not live:
        return TruncatedSeries.one(EXACT, n)
    powers = [
        TruncatedSeries(EXACT, _power(pentagonal_terms(n // t), live[t], n // t))
        .inflate(t)
        .resized(n)
        for t in sorted(live, key=lambda t: (-abs(live[t]), t))
        if abs(live[t]) >= 4
    ]
    cs = reduce(mul, powers).coeffs if powers else [1]
    for t, e in sorted(live.items()):
        if abs(e) == 3:
            steps = [[(t * j, c) for j, c in cube_terms(n // t)]]
        elif abs(e) < 3:
            steps = [pentagonal_terms(n, t)] * abs(e)
        else:
            continue
        for terms in steps:
            if e > 0:
                cs = _sparse_product(terms, cs, 1, n)
            else:
                cs += [0] * (n + 1 - len(cs))  # the starting 1, at full order
                _divide(cs, terms)
    return TruncatedSeries(EXACT, cs, normalize=False)


def gf2_bits(exponents: dict[int, int], n: int) -> int:
    """prod_t (q^t;q^t)^{e_t} over Z/2 to order n, for steps t >= 1, as an
    int whose bit i is the coefficient of q^i: the map is merged by odd
    part, (q^{u 2^v};q^{u 2^v})^e == (q^u;q^u)^{e 2^v}, into one exponent
    E_u per odd u, taken mod 2^k, k = bitlength(n // u), since
    (q^u;q^u)^{2^k} == 1 up to q^n; each binary digit i of E_u then
    multiplies the bitset by the sparse (q^{u 2^i};q^{u 2^i}), shift by
    shift, with no convolution."""
    merged: dict[int, int] = {}
    for t, e in exponents.items():
        v = (t & -t).bit_length() - 1
        merged[t >> v] = merged.get(t >> v, 0) + (e << v)
    mask = (1 << (n + 1)) - 1
    bits = 1
    for t, e in merged.items():
        e %= 1 << (n // t).bit_length()
        while e:
            if e & 1:
                acc = 0
                for j, _ in pentagonal_terms(n, t):
                    acc ^= bits << j
                bits = acc & mask
            e >>= 1
            t *= 2
    return bits


def _gf2_quotient(live: dict[int, int], n: int) -> TruncatedSeries:
    """:func:`gf2_bits` as a series over Z/2, one coefficient per bit."""
    digits = _kernel._unpack_bits(gf2_bits(live, n), n + 1)
    return TruncatedSeries(Mod(2), digits, normalize=False)


def eta_quotient(
    exponents: dict[int, int], n: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Expand prod_t (q^t;q^t)^{e_t} to order n; keys are steps t >= 1."""
    if any(t < 1 for t in exponents):
        raise ValueError("eta-quotient steps must be >= 1")
    p = ring.modulus
    # the split leaves the map as it is once p exceeds every |e_t|; mod 2
    # the bitset route reads the binary digits of each exponent itself.
    # Past the exact range of is_prime the split is skipped: it is only a
    # shortcut, and the Newton route below holds for any modulus
    if p is not None and 2 < p < MR_EXACT_BELOW and is_prime(p):
        exponents = _frobenius_split(exponents, p)
    live = _live(exponents, n)
    if ring.is_exact:
        return _pentagonal_quotient(live, n)
    if p == 2:
        return _gf2_quotient(live, n)
    r = isqrt(p)
    if r * r == p and r < MR_EXACT_BELOW and is_prime(r):
        return _lifted_quotient(live, n, ring, r)
    return _modular_quotient(live, n, ring)


def expand_product(
    spec: ProductSpec, n: int, ring: CoefficientRing = EXACT
) -> TruncatedSeries:
    """Expand a product spec to order n through its normal form: the eta
    map by :func:`eta_quotient`, the remaining factors by binomial chains."""
    if n < 0:
        raise ValueError("order must be >= 0")
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


def _theta_quotient(num: int, den: int, n: int) -> list[int]:
    """f(-q^num, -q^{25-num}) / f(-q^den, -q^{25-den}) over Z to order n:
    the dense numerator divided by the sparse denominator's terms, bottom-up."""
    cs = theta_f(num, 25 - num, -1, -1, n).coeffs
    _divide(cs, sorted(theta_terms(den, 25 - den, -1, -1, n)))
    return cs


def euler_quintic_rhs(n: int, ring: CoefficientRing = EXACT) -> TruncatedSeries:
    """(q^25;q^25) * (a(q) - q - q^2 b(q)): the 25-step assembly of (q;q),
    from the theta quotients of a(q) and b(q) over Z (see the module
    docstring), reduced into the ring once."""
    if n < 0:
        raise ValueError("order must be >= 0")
    cs = _theta_quotient(10, 5, n)
    b = _theta_quotient(5, 10, n)
    if n >= 1:
        cs[1] -= 1
    cs[2:] = map(sub, cs[2:], b)
    cs = _sparse_product(pentagonal_terms(n, 25), cs, 1, n)
    return TruncatedSeries(ring, cs)
