"""Generating functions of the partition families and the Ramanujan
eta-quotients."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbracelet import (
    EXACT,
    Mod,
    TruncatedSeries,
    euler_quintic_rhs,
    euler_series,
    gen_bracelet,
    gen_broken_diamond,
    gen_l_regular,
    gen_partition,
    ramanujan_a,
    ramanujan_b,
)
from qbracelet import generators
from qbracelet.claims import default_catalog
from qbracelet.generators import (
    RAMANUJAN_A_SPEC,
    bracelet_definition_spec,
    bracelet_intermediate_spec,
    eta_quotient,
    expand_product,
)
from qbracelet.oracles import (
    MR_EXACT_BELOW,
    count_l_regular,
    count_partitions,
    is_prime,
    partition_numbers,
)
from qbracelet.products import ProductSpec, product_series
from qbracelet.sources import expand_source, parse_source
from qbracelet.verify import DEFAULT_ORDER_CAP_EXACT


def test_partition_series_against_enumeration():
    s = gen_partition(9)
    assert s.coeffs == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert gen_partition(40).coeffs == [count_partitions(n) for n in range(41)]


def test_l_regular_series_small():
    assert gen_l_regular(5, 5).coeffs == [1, 1, 2, 3, 5, 6]
    assert gen_l_regular(5, 30).coeffs == [count_l_regular(5, n) for n in range(31)]
    with pytest.raises(ValueError):
        gen_l_regular(1, 10)


def test_broken_diamond_mod3_odd_indices_vanish():
    s = gen_broken_diamond(1, 200).reduce_mod(3)
    assert all(s.coeffs[2 * n + 1] == 0 for n in range(100))
    with pytest.raises(ValueError):
        gen_broken_diamond(0, 10)


def test_broken_diamond_definition_cross_check():
    # (-q;q)/((q;q)^2(-q^{2k+1};q^{2k+1})) expanded by binomial chains
    from qbracelet.products import ProductSpec

    for k in (1, 2):
        m = 2 * k + 1
        spec = ProductSpec.of((1, 1, 1, 1), (-1, 1, 1, -2), (1, m, m, -1))
        assert product_series(spec, 120) == gen_broken_diamond(k, 120)


def test_bracelet_factorizations_agree():
    for k in (3, 5, 7):
        fast = gen_bracelet(k, 300)
        definition = product_series(bracelet_definition_spec(k), 300)
        intermediate = product_series(bracelet_intermediate_spec(k), 300)
        assert fast == definition
        assert fast == intermediate
    with pytest.raises(ValueError):
        gen_bracelet(2, 10)


def test_generating_functions_count_things():
    # constant term 1, all coefficients nonnegative
    for series in (
        gen_partition(300),
        gen_l_regular(5, 300),
        gen_broken_diamond(1, 300),
        gen_bracelet(5, 300),
    ):
        assert series.coeffs[0] == 1
        assert all(c >= 0 for c in series.coeffs)


def test_bracelet_small_values():
    # B_5(1) = 5 and B_5(2) = 19, from the definition via distinct-part and
    # 4-colored partition counts
    s = gen_bracelet(5, 4)
    assert s.coeffs[0] == 1
    assert s.coeffs[1] == 5
    assert s.coeffs[2] == 19


def test_modular_bracelet_matches_exact_reduction():
    exact = gen_bracelet(5, 200)
    for m in (2, 5):
        assert exact.reduce_mod(m) == gen_bracelet(5, 200, Mod(m))


def test_ramanujan_a_b_are_reciprocal():
    n = 400
    assert ramanujan_a(n) * ramanujan_b(n) == TruncatedSeries.one(EXACT, n)
    assert ramanujan_a(4).coeffs[0] == 1


def test_ramanujan_a_matches_its_spec():
    assert ramanujan_a(60) == product_series(RAMANUJAN_A_SPEC, 60)


def test_euler_quintic_assembly():
    n = 1000
    assert euler_quintic_rhs(n) == euler_series(n)


FAMILY_KINDS = ("partition", "lregular", "brokendiamond", "bracelet")
CROSS_ROUTE_ORDER = 600


def _defining_spec(source):
    """The defining product of a partition family, factor by factor."""
    if source.kind == "partition":  # 1/(q;q)
        return ProductSpec.of((-1, 1, 1, -1))
    if source.kind == "lregular":  # (q^L;q^L)/(q;q)
        ell = source.param
        return ProductSpec.of((-1, ell, ell, 1), (-1, 1, 1, -1))
    if source.kind == "brokendiamond":  # (-q;q)/((q;q)^2 (-q^m;q^m))
        m = 2 * source.param + 1
        return ProductSpec.of((1, 1, 1, 1), (-1, 1, 1, -2), (1, m, m, -1))
    assert source.kind == "bracelet"
    return bracelet_definition_spec(source.param)


def _catalog_family_prime_pairs():
    pairs = set()
    for claim in default_catalog():
        if claim.kind == "identity" or not is_prime(claim.modulus):
            continue
        for source in (claim.source, claim.rhs_source):
            if source is not None and source.kind in FAMILY_KINDS:
                pairs.add((source, claim.modulus))
    return sorted(pairs, key=lambda pair: (pair[0].key(), pair[1]))


@pytest.mark.parametrize("source, p", _catalog_family_prime_pairs(), ids=str)
def test_catalog_prime_builds_match_definition(source, p):
    # the Frobenius route against binomial chains that never use it
    fast = expand_source(source, Mod(p), CROSS_ROUTE_ORDER)
    spec = _defining_spec(source)
    assert fast == product_series(spec, CROSS_ROUTE_ORDER, EXACT).reduce_mod(p)


def _catalog_mod2_sources():
    sources = set()
    for claim in default_catalog():
        if claim.kind != "identity" and claim.modulus == 2:
            sources.update(s for s in (claim.source, claim.rhs_source) if s is not None)
    return sorted(sources, key=lambda source: source.key())


@pytest.mark.parametrize("source", _catalog_mod2_sources(), ids=str)
def test_catalog_mod2_builds_match_exact_reduction(source):
    # the bitset route against the pentagonal route over Z, which never
    # reduces an exponent
    n = 2000
    assert expand_source(source, Mod(2), n) == expand_source(source, EXACT, n).reduce_mod(2)


def test_gf2_quotient_makes_no_convolution(kernel_calls):
    conv_mod_calls = kernel_calls("conv_mod")
    gen_bracelet(5, 30572, Mod(2))
    assert conv_mod_calls == []


def test_eta_quotient_frobenius_collapse():
    # B_125 == (q^2;q^2)/(q^250;q^250) and B_11 == (q^2;q^2)/(q^22;q^22) mod p
    n = 600
    assert gen_bracelet(125, n, Mod(5)) == eta_quotient({2: 1, 250: -1}, n, Mod(5))
    assert gen_bracelet(11, n, Mod(11)) == eta_quotient({2: 1, 22: -1}, n, Mod(11))
    assert eta_quotient({1: 5, 5: -1}, n, Mod(5)) == TruncatedSeries.one(Mod(5), n)


def test_eta_quotient_modulus_past_the_primality_bound():
    # no Frobenius split where primality is undecided; Newton still holds
    m = MR_EXACT_BELOW + 2
    exact = gen_bracelet(m + 7, 8).coeffs
    assert gen_bracelet(m + 7, 8, Mod(m)).coeffs == [c % m for c in exact]


def test_eta_quotient_edge_cases():
    assert eta_quotient({}, 7) == TruncatedSeries.one(EXACT, 7)
    assert eta_quotient({3: 0, 50: -2}, 20, Mod(3)) == TruncatedSeries.one(Mod(3), 20)
    assert eta_quotient({1: 1}, 0) == TruncatedSeries.one(EXACT, 0)
    assert eta_quotient({4: 1}, 30) == euler_series(30, 4)
    with pytest.raises(ValueError):
        eta_quotient({0: 1}, 10)


CAP_SOURCES = (
    "partition",
    "lregular:2",
    "lregular:16",
    "brokendiamond:1",
    "brokendiamond:10",
    "bracelet:3",
    "bracelet:5",
    "bracelet:27",
    "bracelet:100",
)
CAP_PRIME = 1_000_003
CAP_PREFIX = 150


@pytest.mark.parametrize("key", CAP_SOURCES)
def test_exact_route_at_the_order_cap(key):
    # the pentagonal recurrences against the modular route, which shares
    # no code with them, and against binomial chains on a prefix
    source = parse_source(key)
    n = DEFAULT_ORDER_CAP_EXACT
    exact = expand_source(source, EXACT, n)
    assert exact.reduce_mod(CAP_PRIME) == expand_source(source, Mod(CAP_PRIME), n)
    definition = product_series(_defining_spec(source), CAP_PREFIX, EXACT)
    assert exact.resized(CAP_PREFIX) == definition
    if source.kind == "partition":
        assert exact.coeffs == partition_numbers(n)


def test_exact_eta_quotient_makes_no_convolution(kernel_calls):
    conv_exact_calls = kernel_calls("conv_exact")
    gen_bracelet(21, 2000)
    assert conv_exact_calls == []


def test_exact_eta_quotient_of_one_factor_is_pentagonal():
    assert eta_quotient({1: 1}, 1000) == euler_series(1000)


def test_corrupted_pentagonal_terms_raise(monkeypatch):
    # a constant term of 2 makes the lead power (f/2)^-5, which is not
    # integral: the checked division must refuse it, never truncate
    real = generators.pentagonal_terms

    def corrupted(n, scale=1):
        return [(0, 2)] + real(n, scale)[1:]

    monkeypatch.setattr(generators, "pentagonal_terms", corrupted)
    with pytest.raises(ArithmeticError):
        gen_bracelet(5, 100)


def test_expand_product_multiplies_its_parts_once(kernel_calls):
    conv_mod_calls = kernel_calls("conv_mod")
    # eta part (q^2;q^2), general part (q;q^3): no powers, no inversion
    spec = ProductSpec.of((-1, 1, 3, 1), (-1, 2, 2, 1))
    got = expand_product(spec, 100, Mod(5))
    assert len(conv_mod_calls) == 1
    assert got == product_series(spec, 100, EXACT).reduce_mod(5)


# rings of the property test, each with the prime whose multiples it draws
PROPERTY_RINGS = {2: 2, 3: 3, 5: 5, 7: 7, 11: 11, 25: 5, 4: 2, None: 3}


@st.composite
def eta_quotient_cases(draw):
    modulus = draw(st.sampled_from(list(PROPERTY_RINGS)))
    p = PROPERTY_RINGS[modulus]
    n = draw(st.integers(0, 150))
    exponents = {}
    if draw(st.booleans()):
        free = st.one_of(st.integers(-9, 9), st.integers(-3, 3).map(lambda d: d * p))
        exponents = draw(st.dictionaries(st.integers(1, 40), free, max_size=4))
    # (q^t;q^t)^{e p^i} (q^{t p^i};q^{t p^i})^{-e}, which is 1 mod p
    cancelling = st.tuples(st.integers(1, 8), st.integers(1, 2), st.integers(-2, 2))
    for t, i, e in draw(st.lists(cancelling, max_size=2)):
        if p**i > 25:
            i = 1
        exponents[t] = exponents.get(t, 0) + e * p**i
        exponents[t * p**i] = exponents.get(t * p**i, 0) - e
    return exponents, n, modulus


@settings(max_examples=150, deadline=None)
@given(eta_quotient_cases())
def test_eta_quotient_mod_m_is_exact_reduced(case):
    exponents, n, modulus = case
    exact = eta_quotient(exponents, n, EXACT)
    spec = ProductSpec.of(*((-1, t, t, e) for t, e in exponents.items() if e))
    assert exact == product_series(spec, n, EXACT)
    if modulus is not None:
        assert eta_quotient(exponents, n, Mod(modulus)) == exact.reduce_mod(modulus)
