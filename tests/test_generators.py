"""Generating functions of the partition families and the Ramanujan
eta-quotients."""

import hashlib
import importlib.util
from math import isqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbracelet import (
    EXACT,
    Mod,
    TruncatedSeries,
    euler_quintic_rhs,
    euler_series,
    ramanujan_a,
    ramanujan_b,
)
from qbracelet import generators
from qbracelet.claims import default_catalog
from qbracelet.generators import (
    RAMANUJAN_A_SPEC,
    bracelet_definition_spec,
    eta_quotient,
    expand_product,
    gf2_bits,
)
from qbracelet.oracles import (
    MR_EXACT_BELOW,
    count_l_regular,
    count_partitions,
    is_prime,
    partition_numbers,
)
from qbracelet.products import ProductSpec, product_series
from qbracelet.sources import (
    bracelet_source,
    broken_diamond_source,
    expand_source,
    lregular_source,
    parse_source,
    partition_source,
)
from qbracelet.theta import cube_terms, pentagonal_terms, theta_f
from qbracelet.verify import DEFAULT_ORDER_CAP_EXACT, SeriesCache, verify


def test_partition_series_against_enumeration():
    s = expand_source(partition_source(), EXACT, 9)
    assert s.coeffs == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    s = expand_source(partition_source(), EXACT, 40)
    assert s.coeffs == [count_partitions(n) for n in range(41)]


def test_l_regular_series_small():
    assert expand_source(lregular_source(5), EXACT, 5).coeffs == [1, 1, 2, 3, 5, 6]
    s = expand_source(lregular_source(5), EXACT, 30)
    assert s.coeffs == [count_l_regular(5, n) for n in range(31)]
    with pytest.raises(ValueError):
        expand_source(lregular_source(1), EXACT, 10)


def test_broken_diamond_mod3_odd_indices_vanish():
    s = expand_source(broken_diamond_source(1), EXACT, 200).reduce_mod(3)
    assert all(s.coeffs[2 * n + 1] == 0 for n in range(100))
    with pytest.raises(ValueError):
        expand_source(broken_diamond_source(0), EXACT, 10)


def test_broken_diamond_definition_cross_check():
    # (-q;q)/((q;q)^2(-q^{2k+1};q^{2k+1})) expanded by binomial chains
    from qbracelet.products import ProductSpec

    for k in (1, 2):
        m = 2 * k + 1
        spec = ProductSpec.of((1, 1, 1, 1), (-1, 1, 1, -2), (1, m, m, -1))
        fast = expand_source(broken_diamond_source(k), EXACT, 120)
        assert product_series(spec, 120) == fast


def test_bracelet_factorizations_agree():
    for k in (3, 5, 7):
        fast = expand_source(bracelet_source(k), EXACT, 300)
        definition = product_series(bracelet_definition_spec(k), 300)
        # the half-rewritten form (q^2;q^2)/((q;q)^k (-q^k;q^k))
        spec = ProductSpec.of((-1, 2, 2, 1), (-1, 1, 1, -k), (1, k, k, -1))
        intermediate = product_series(spec, 300)
        assert fast == definition
        assert fast == intermediate
    with pytest.raises(ValueError):
        expand_source(bracelet_source(2), EXACT, 10)


def test_generating_functions_count_things():
    # constant term 1, all coefficients nonnegative
    for series in (
        expand_source(partition_source(), EXACT, 300),
        expand_source(lregular_source(5), EXACT, 300),
        expand_source(broken_diamond_source(1), EXACT, 300),
        expand_source(bracelet_source(5), EXACT, 300),
    ):
        assert series.coeffs[0] == 1
        assert all(c >= 0 for c in series.coeffs)


def test_bracelet_small_values():
    # B_5(1) = 5 and B_5(2) = 19, from the definition via distinct-part and
    # 4-colored partition counts
    s = expand_source(bracelet_source(5), EXACT, 4)
    assert s.coeffs[0] == 1
    assert s.coeffs[1] == 5
    assert s.coeffs[2] == 19


def test_modular_bracelet_matches_exact_reduction():
    exact = expand_source(bracelet_source(5), EXACT, 200)
    for m in (2, 5):
        assert exact.reduce_mod(m) == expand_source(bracelet_source(5), Mod(m), 200)


def test_ramanujan_a_b_are_reciprocal():
    n = 400
    assert ramanujan_a(n) * ramanujan_b(n) == TruncatedSeries.one(EXACT, n)
    assert ramanujan_a(4).coeffs[0] == 1


def test_ramanujan_a_matches_its_spec():
    assert ramanujan_a(60) == product_series(RAMANUJAN_A_SPEC, 60)


def test_euler_quintic_assembly():
    n = 1000
    assert euler_quintic_rhs(n) == euler_series(n)


@pytest.mark.parametrize("ring", [EXACT, Mod(2), Mod(5), Mod(121)], ids=lambda r: r.key())
@pytest.mark.parametrize("n", [0, 1, 2, 3, 1000])
def test_quintic_theta_route_matches_products(ring, n):
    # the theta quotients against (q^25;q^25)(a - q - q^2 b) with a(q) and
    # b(q) expanded by product_series, the definitional binomial chains
    q1 = TruncatedSeries.monomial(ring, n, 1)
    a, b = ramanujan_a(n, ring), ramanujan_b(n, ring)
    assert euler_quintic_rhs(n, ring) == euler_series(n, 25, ring) * (a - q1 - b.shift(2))


@pytest.mark.parametrize("a", [5, 10])
def test_quintic_thetas_are_their_triple_products(a):
    # f(-q^a, -q^{25-a}) = (q^a, q^{25-a}, q^25; q^25), the identity the
    # theta route of quintic_euler rests on
    n = 1000
    spec = ProductSpec.of((-1, a, 25, 1), (-1, 25 - a, 25, 1), (-1, 25, 25, 1))
    assert theta_f(a, 25 - a, -1, -1, n) == product_series(spec, n)


def test_quintic_euler_makes_no_product_or_convolution(kernel_calls, monkeypatch):
    conv_exact_calls = kernel_calls("conv_exact")
    monkeypatch.setattr(generators, "product_series", None)
    assert euler_quintic_rhs(1000) == euler_series(1000)
    assert conv_exact_calls == []


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


def test_verify_all_modular_builds_match_exact_reduction():
    # every series verify --all builds mod m, the prime-power and composite
    # rings included, against the route over Z, which has no Frobenius
    # split, no Newton step and no bitset
    cache = SeriesCache()
    verify(default_catalog(), cache=cache)
    modular = [build for build in cache.builds if build[1] != "exact"]
    assert {ring for _, ring, _ in modular} >= {"mod4", "mod25", "mod49", "mod121"}
    for key, ring, order in modular:
        source, m, n = parse_source(key), int(ring.removeprefix("mod")), min(order, 2000)
        exact = expand_source(source, EXACT, n).reduce_mod(m)
        assert expand_source(source, Mod(m), n) == exact, (key, ring)


def test_gf2_quotient_makes_no_convolution(kernel_calls):
    conv_mod_calls = kernel_calls("conv_mod")
    expand_source(bracelet_source(5), Mod(2), 30572)
    assert conv_mod_calls == []


def test_eta_quotient_frobenius_collapse():
    # B_125 == (q^2;q^2)/(q^250;q^250) and B_11 == (q^2;q^2)/(q^22;q^22) mod p
    n = 600
    b125 = expand_source(bracelet_source(125), Mod(5), n)
    assert b125 == eta_quotient({2: 1, 250: -1}, n, Mod(5))
    b11 = expand_source(bracelet_source(11), Mod(11), n)
    assert b11 == eta_quotient({2: 1, 22: -1}, n, Mod(11))
    assert eta_quotient({1: 5, 5: -1}, n, Mod(5)) == TruncatedSeries.one(Mod(5), n)


def test_eta_quotient_modulus_past_the_primality_bound():
    # no Frobenius split where primality is undecided; Newton still holds
    m = MR_EXACT_BELOW + 2
    exact = expand_source(bracelet_source(m + 7), EXACT, 8).coeffs
    modular = expand_source(bracelet_source(m + 7), Mod(m), 8).coeffs
    assert modular == [c % m for c in exact]


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


@pytest.mark.parametrize(
    "ring", [EXACT, Mod(2), Mod(5), Mod(25)], ids=lambda r: r.key()
)
def test_negative_order_is_a_value_error(ring):
    # every route, the mod-2 one included, refuses order -1 the same way
    for key in ("partition", "bracelet:5", "product:1,1,4,-2", "quintic_euler"):
        source = parse_source(key)
        with pytest.raises(ValueError, match="order must be >= 0"):
            expand_source(source, ring, -1)
        with pytest.raises(ValueError, match="order must be >= 0"):
            SeriesCache().get(source, ring, -1)


def test_exact_eta_quotient_makes_no_convolution(kernel_calls):
    conv_exact_calls = kernel_calls("conv_exact")
    expand_source(bracelet_source(21), EXACT, 2000)
    assert conv_exact_calls == []


def test_exact_eta_quotient_of_one_factor_is_pentagonal():
    assert eta_quotient({1: 1}, 1000) == euler_series(1000)


def test_corrupted_pentagonal_terms_raise(monkeypatch):
    # a constant term of 2 makes the power (f/2)^-5 of step 1, which is
    # not integral: the checked division must refuse it, never truncate
    real = generators.pentagonal_terms

    def corrupted(n, scale=1):
        return [(0, 2)] + real(n, scale)[1:]

    monkeypatch.setattr(generators, "pentagonal_terms", corrupted)
    with pytest.raises(ArithmeticError):
        expand_source(bracelet_source(5), EXACT, 100)
    # the in-place steps (every |e_t| of these maps is 1 or 3, so each
    # factor is multiplied, divided or, on the starting 1, placed in)
    # refuse any constant term but 1
    for key in ("partition", "lregular:9", "brokendiamond:6", "bracelet:3", "euler:7"):
        with pytest.raises(ArithmeticError):
            expand_source(parse_source(key), EXACT, 100)


# the sparse product (on a series in q^2) and the division, by name
IN_PLACE = {
    "_sparse_product": lambda terms: generators._sparse_product(terms, [1] * 6, 2, 10),
    "_divide": lambda terms: generators._divide([1] + [0] * 10, terms),
}


@pytest.mark.parametrize("apply", list(IN_PLACE))
@pytest.mark.parametrize("terms", [
    [(0, 2), (1, -1), (2, -1)],  # unit terms
    [(0, 2), (1, -3), (3, 5)],  # weighted terms: the cube's divide
    [(1, -1), (2, -1)],  # no constant term
], ids=["unit", "weighted", "missing"])
def test_in_place_routes_refuse_a_constant_term_but_one(apply, terms):
    with pytest.raises(ArithmeticError, match="constant term"):
        IN_PLACE[apply](terms)


def test_power_refuses_terms_other_than_unit():
    # the recurrence's sums are split by sign, so it takes only +1 and -1
    # past f_0; Jacobi's cube has 3, 5, ... and is refused, not misread
    with pytest.raises(ValueError, match=r"must be \+1 or -1"):
        generators._power(cube_terms(50), -2, 50)
    with pytest.raises(ValueError, match=r"must be \+1 or -1"):
        generators._power([(0, 1), (1, -1), (2, 2)], 3, 10)
    assert generators._power([(0, 1), (1, -1)], -1, 5) == [1] * 6


def _record(monkeypatch, name):
    """Record the arguments of every call to generators.<name>."""
    calls = []
    real = getattr(generators, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(generators, name, recording)
    return calls


# (family source or None, exponent map, _power calls, the divisors that
# _divide gets, in call order): |e_t| >= 4 takes the power recurrence,
# |e_t| == 3 the cube's terms once, |e_t| <= 2 the pentagonal terms |e_t|
# times, by increasing t
LEAD_ROUTES = [
    ("partition", {1: -1}, 0, ["pentagonal"]),
    (None, {1: -3}, 0, ["cube"]),
    (None, {1: 1}, 0, []),
    (None, {1: 3}, 0, []),
    ("lregular:9", {1: -1, 9: 1}, 0, ["pentagonal"]),
    ("brokendiamond:6", {1: -3, 2: 1, 13: 1, 26: -1}, 0, ["cube", "pentagonal"]),
    ("bracelet:5", {1: -5, 2: 1, 5: 1, 10: -1}, 1, ["pentagonal"]),
    (None, {1: 2, 3: -1}, 0, ["pentagonal"]),
    (None, {1: -2}, 0, ["pentagonal", "pentagonal"]),
    (None, {1: -5, 2: -2}, 1, ["pentagonal", "pentagonal"]),
    (None, {2: -3, 1: 1}, 0, ["cube"]),
    (None, {3: 2, 1: -7, 2: 9}, 2, []),
]


@pytest.mark.parametrize(
    "key, exponents, power_calls, divisors", LEAD_ROUTES,
    ids=[key or str(exponents) for key, exponents, _, _ in LEAD_ROUTES],
)
def test_lead_exponent_picks_its_route(monkeypatch, key, exponents, power_calls, divisors):
    # each factor's exponent picks its step: only |e_t| >= 4 runs the power
    # recurrence, once per such factor, and only negative e_t divide
    powers = _record(monkeypatch, "_power")
    divides = _record(monkeypatch, "_divide")
    n = 400
    got = eta_quotient(exponents, n)
    assert len(powers) == power_calls
    kinds = ["cube" if any(abs(c) > 1 for _, c in terms) else "pentagonal"
             for _, terms in divides]
    assert kinds == divisors
    if key is not None:  # the map is the family's normal form
        assert expand_source(parse_source(key), EXACT, n) == got


# eta maps whose factors take each exact step, at steps 1 and above, against
# the definitional binomial chains; no map has two factors with |e_t| >= 4,
# so none makes a convolution
EXACT_ROUTE_MAPS = [
    {1: -1}, {1: -3}, {1: 1}, {1: 3}, {2: -1, 5: 1}, {2: -3, 3: 1}, {3: 3, 1: -1},
    {1: -5, 2: -3, 3: 3}, {1: -5, 2: -3}, {2: -5, 4: 3, 6: -3}, {3: -4, 1: 3, 2: -1},
    {1: -5, 2: -2}, {1: -5, 2: 2}, {1: -2}, {1: 2, 3: -1}, {2: 2, 3: -3},
    {2: 3, 5: -1}, {7: 1},
]


@pytest.mark.parametrize("exponents", EXACT_ROUTE_MAPS, ids=str)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 400])
def test_exact_routes_match_the_definition(kernel_calls, exponents, n):
    conv_exact_calls = kernel_calls("conv_exact")
    got = eta_quotient(exponents, n)
    assert conv_exact_calls == []
    spec = ProductSpec.of(*((-1, t, t, e) for t, e in exponents.items()))
    assert got == product_series(spec, n, EXACT)


def _unmerged_gf2_bits(exponents, n):
    """The bitset route with no merge by odd part: each factor's own e_t
    mod 2^bitlength(n // t), one sparse product per binary digit."""
    mask = (1 << (n + 1)) - 1
    bits = 1
    for t, e in exponents.items():
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


def _search_tiers():
    """The bracelet orders the search_mod2 benchmark workload draws from."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.SEARCH_TIERS


# maps whose factors share an odd part, which the bitset route merges
SHARED_ODD_PART_MAPS = [
    {1: -6, 2: 1, 6: 1, 12: -1}, {1: -1, 4: 1}, {1: 1, 2: -1}, {2: -3, 8: 5, 3: 1, 6: -2},
]
SEARCH_ORDER = 48_039  # search --amax 40 --nmax 1200


@pytest.mark.parametrize("exponents", EXACT_ROUTE_MAPS + SHARED_ODD_PART_MAPS, ids=str)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 400])
def test_gf2_bits_match_the_unmerged_route(exponents, n):
    assert gf2_bits(exponents, n) == _unmerged_gf2_bits(exponents, n)
    if n <= 3:  # and the series over Z/2 against the route over Z
        assert eta_quotient(exponents, n, Mod(2)) == eta_quotient(exponents, n).reduce_mod(2)


@pytest.mark.parametrize("k", sorted(k for tier in _search_tiers() for k in tier))
def test_gf2_bits_match_the_unmerged_route_at_the_search_order(k):
    eta = dict(bracelet_source(k).spec.normal_form().eta)
    assert gf2_bits(eta, SEARCH_ORDER) == _unmerged_gf2_bits(eta, SEARCH_ORDER)


def test_gf2_bits_merge_factors_by_odd_part(monkeypatch):
    # B_6 is {1: -6, 2: 1, 6: 1, 12: -1}, merged into {1: -4, 3: -2}: by
    # the binary digits of -4 mod 2^16 and -2 mod 2^14, no (q^2;q^2) and
    # no step twice; without the merge the bits are the same, so only the
    # steps show it
    steps = []
    real = generators.pentagonal_terms

    def recording(n, t):
        steps.append(t)
        return real(n, t)

    monkeypatch.setattr(generators, "pentagonal_terms", recording)
    gf2_bits(dict(bracelet_source(6).spec.normal_form().eta), SEARCH_ORDER)
    assert 2 not in steps
    assert len(set(steps)) == len(steps)
    assert sorted(steps) == sorted([1 << i for i in range(2, 16)] + [3 << i for i in range(1, 14)])


@pytest.mark.parametrize(
    "exponents, sparse_products",
    [({1: 1}, 0), ({1: 2}, 1), ({1: 3}, 0), ({2: 3, 5: -1}, 0), ({7: 1}, 0), ({1: -1, 2: 1}, 1)],
    ids=str,
)
@pytest.mark.parametrize("n", [2, 3, 400])  # at order 0 every factor meets [1]
def test_a_factor_on_the_starting_one_is_placed(monkeypatch, exponents, sparse_products, n):
    # every positive in-place factor is one sparse product.  The first, the
    # smallest t here, when it multiplies the starting 1 takes d == [1],
    # which places its terms; sparse_products counts those applied after
    # another factor.  A factor whose step passes n is 1 and makes none
    calls = _record(monkeypatch, "_sparse_product")
    got = eta_quotient(exponents, n)
    first = min(exponents)
    placed = [True] * (first <= n and exponents[first] > 0) + [False] * sparse_products
    assert [d == [1] for _, d, _, _ in calls] == placed
    spec = ProductSpec.of(*((-1, t, t, e) for t, e in exponents.items()))
    assert got == product_series(spec, n, EXACT)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 400])
def test_multiply_weights_the_cube_terms(n):
    # Jacobi's cube has coefficients 3, 5, ...: each must scale its shifted
    # copy, not only lend it a sign, whether the copy is dense (h == 1) or
    # strided (h > 1); on [1] the product places the terms
    def definition(*factors):
        return product_series(ProductSpec.of(*((-1, t, t, e) for t, e in factors)), n, EXACT)

    cube = cube_terms(n)
    assert generators._sparse_product(cube, [1], 1, n) == definition((1, 3)).coeffs
    product = generators._sparse_product(cube, partition_numbers(n), 1, n)
    assert product == definition((1, 2)).coeffs
    for h in (2, 3):
        product = generators._sparse_product(cube, partition_numbers(n // h), h, n)
        assert product == definition((1, 3), (h, -1)).coeffs


@pytest.mark.parametrize("e", range(-3, 4))
@pytest.mark.parametrize("n", [0, 1, 2, 3, 400, 2000])
def test_placed_and_divided_powers_match_the_recurrence(e, n):
    # each exponent the in-place steps take, against the power recurrence
    got = eta_quotient({1: e}, n).coeffs
    assert got == generators._power(pentagonal_terms(n), e, n)


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


# prime-square rings of the lift, each with its prime
PRIME_SQUARES = {4: 2, 9: 3, 25: 5, 49: 7, 121: 11}


@st.composite
def prime_square_cases(draw):
    """Eta maps at steps 1..30 over Z/p^2 with one or two exponents forced
    to multiples of p (of p^2 too), of both signs."""
    modulus = draw(st.sampled_from(list(PRIME_SQUARES)))
    p = PRIME_SQUARES[modulus]
    steps = st.integers(1, 30)
    exponents = draw(st.dictionaries(steps, st.integers(-12, 12), max_size=3))
    multiple = st.sampled_from([-3, -2, -1, 0, 1, 2, 3, -p, p]).map(lambda a: a * p)
    for t, e in draw(st.lists(st.tuples(steps, multiple), min_size=1, max_size=2)):
        exponents[t] = e
    return exponents, draw(st.integers(0, 600)), modulus


@settings(max_examples=150, deadline=None)
@given(prime_square_cases())
def test_prime_square_lift_is_exact_reduced(case):
    exponents, n, modulus = case
    exact = eta_quotient(exponents, n, EXACT).reduce_mod(modulus)
    assert eta_quotient(exponents, n, Mod(modulus)) == exact


# (eta map, order, modulus) at the edges of the lift
LIFT_EDGES = [
    ({50: -11, 3: 2}, 300, 121),  # t p > n: Y is 1 up to q^n
    ({1: -22}, 10, 121),
    ({1: -10, 3: 4, 6: -2}, 400, 4),  # every exponent a multiple of p
    ({1: -10, 2: 5, 5: 25}, 400, 25),
    ({1: 25, 3: -50}, 400, 25),  # a multiple of p^2: X^a == Y^a
    ({1: -2, 2: 1, 4: -1}, 400, 4),  # B_2's map: Y cancels step p
    ({1: -3, 2: 1, 3: 1, 6: -1}, 400, 9),
    ({1: -5, 2: 1, 5: 1, 10: -1}, 1007, 25),
    ({1: -7, 2: 1, 7: 1, 14: -1}, 600, 49),
    ({1: -11, 2: 1, 11: 1, 22: -1}, 600, 121),
    ({1: -12, 2: 1, 12: 1, 24: -1}, 401, 4),  # bracelet:12 mod 4
    ({1: 11, 11: -1}, 400, 121),  # e_t == p stays as it is
    ({2: 22, 1: -11, 7: 33}, 400, 121),  # several lifted factors
    ({1: -1000003, 2: 1}, 12, 1000003**2),  # p > n: no table over 1..p
]


@pytest.mark.parametrize("exponents, n, modulus", LIFT_EDGES, ids=str)
def test_prime_square_lift_edges(exponents, n, modulus):
    exact = eta_quotient(exponents, n, EXACT).reduce_mod(modulus)
    assert eta_quotient(exponents, n, Mod(modulus)) == exact


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("a", [-1, -3])
def test_prime_square_lift_correction_alone(p, a):
    # (q;q)^{pa} (q^p;q^p)^{-a}: Q = 1, so the quotient is 1 + p a Z with
    # Z_N = -sum_{d | N, p does not divide d} 1/d mod p, and mod 4
    # Z_N = [N is a nonzero square]
    exponents = {1: p * a, p: -a}
    for n in (0, 1, 2, 3, 400):
        got = eta_quotient(exponents, n, Mod(p * p))
        assert got == eta_quotient(exponents, n, EXACT).reduce_mod(p * p), n
        if p == 2:
            z = [int(N > 0 and isqrt(N) ** 2 == N) for N in range(n + 1)]
        else:
            z = [0] + [
                -sum(pow(d, -1, p) for d in range(1, N + 1) if N % d == 0 and d % p)
                for N in range(1, n + 1)
            ]
        want = [int(N == 0) + p * a * c for N, c in enumerate(z)]
        assert got == TruncatedSeries(Mod(p * p), want), n


def test_prime_square_lift_inverts_at_the_reduced_order_only(monkeypatch):
    # B_11 mod 121: (q;q)^-11 is lifted, so no Newton step runs at full
    # order: Q = {2: 1, 22: -1} inverts once, at order 2221 // 22, and
    # the correction raises no (q;q)^11
    orders = []
    real = TruncatedSeries.invert

    def recording(self):
        orders.append(self.order)
        return real(self)

    monkeypatch.setattr(TruncatedSeries, "invert", recording)
    powers = _record(monkeypatch, "_euler_power")
    expand_source(bracelet_source(11), Mod(121), 2221)
    assert orders == [2221 // 22]
    assert 11 not in [e for _, _, e, _ in powers]


def test_prime_square_without_multiples_of_p_keeps_the_modular_route(monkeypatch):
    # bracelet:12 mod 25: 5 divides no exponent, so the map goes to the
    # Frobenius/Newton route whole
    calls = _record(monkeypatch, "_modular_quotient")
    n = 600
    source = bracelet_source(12)
    got = expand_source(source, Mod(25), n)
    assert [live for live, _, _ in calls] == [{1: -12, 2: 1, 12: 1, 24: -1}]
    assert got == expand_source(source, EXACT, n).reduce_mod(25)


@pytest.mark.parametrize("e", range(1, 18))
def test_euler_power_is_the_pth_power(e):
    # the one modular builder of (q^t;q^t)^e, from Jacobi's cube or not,
    # against pow(e): the numerators and denominators of the
    # Frobenius/Newton route
    for m in (4, 9, 12, 25, 121, 1_000_003):
        ring = Mod(m)
        for t in (1, 2, 5):
            for n in (0, 1, 2, 7, 300):
                got = generators._euler_power(n, t, e, ring)
                assert got == euler_series(n, t, ring).pow(e), (m, t, n)


# The catalog builds that take the strided product, at their verify --all
# orders, with the SHA-256 of their coefficients from the dense route.
STRIDED_BUILDS = [
    ("bracelet:125", 5, 25052,
     "0d9c0e20dec79682947db540692f5bd6bb987a74ab33c6189c15f683b4dd79c9"),
    ("bracelet:11", 11, 9822,
     "f746e32bfabda898c04c1d29675c223ac8219f5a74a5f94eeba84f84cb32afee"),
    ("bracelet:7", 7, 3994,
     "ef523cc2023a4647f3477298cb8ea83ab484b8b811704f32978c16baac9f55c5"),
    ("bracelet:25", 5, 2522,
     "645b2b87a84d500ed2d63d0956dc1e66e3732230c63279b494077fc530c923b9"),
    ("bracelet:5", 5, 2042,
     "2628873fe198de77d19ec87cbf557b91a727391ec02b59b1bb7a150811483e8f"),
]


@pytest.mark.parametrize(
    "key, m, n, digest", STRIDED_BUILDS, ids=[f"{b[0]}-mod{b[1]}" for b in STRIDED_BUILDS]
)
def test_strided_builds_at_full_order(key, m, n, digest):
    coeffs = expand_source(parse_source(key), Mod(m), n).coeffs
    assert hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest() == digest


def test_bracelet_125_mod_5_convolves_at_the_compact_order_only(kernel_calls):
    # {2: 1, 250: -1} at order 25,052 // 2: 1/(q^125;q^125) is inverted as
    # 1/(q;q) at order 12,526 // 125 = 100, and (q;q) is multiplied in by
    # strided slices, with no convolution
    conv_mod_calls = kernel_calls("conv_mod")
    expand_source(bracelet_source(125), Mod(5), 25052)
    assert conv_mod_calls
    assert max(n_out for _, _, n_out, _ in conv_mod_calls) <= 100


STRIDED_MODULI = (3, 5, 7, 9, 12, 25, 121)


@st.composite
def shared_denominator_cases(draw):
    """Eta maps with a numerator and with denominator steps sharing a gcd
    h > 1, all steps sharing g >= 1; numerator factors up to the cube make
    dense numerators, single first powers sparse ones."""
    g = draw(st.integers(1, 3))
    h = draw(st.integers(2, 6))
    n = draw(st.integers(1, 300))
    den = draw(st.dictionaries(
        st.integers(1, 6).map(lambda k: g * h * k), st.integers(-3, -1),
        min_size=1, max_size=2,
    ))
    num = draw(st.dictionaries(
        st.integers(1, 12).map(lambda k: g * k), st.integers(1, 3),
        min_size=1, max_size=2,
    ))
    exponents = dict(den)
    for t, e in num.items():
        exponents[t] = exponents.get(t, 0) + e
    return exponents, n


@settings(max_examples=100, deadline=None)
@given(shared_denominator_cases())
def test_strided_and_dense_products_match_the_definition(case):
    # both products, forced in turn, against binomial chains with no Newton
    # step, over prime, prime-power and composite rings
    exponents, n = case
    spec = ProductSpec.of(*((-1, t, t, e) for t, e in exponents.items() if e))
    definition = product_series(spec, n, EXACT)
    for ratio in (0, n + 1):  # never strided, always strided
        with mock.patch.object(generators, "STRIDED_PRODUCT_RATIO", ratio):
            for m in STRIDED_MODULI:
                got = eta_quotient(exponents, n, Mod(m))
                assert got == definition.reduce_mod(m), (ratio, m)
