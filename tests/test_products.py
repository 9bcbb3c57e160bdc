"""Pochhammer factor expansion, product assembly and the normal form."""

from itertools import islice, permutations
from math import comb, isqrt
from operator import add, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbracelet import EXACT, Mod, TruncatedSeries, products, theta
from qbracelet.generators import bracelet_definition_spec, ramanujan_a, ramanujan_b
from qbracelet.oracles import count_partitions, partition_numbers
from qbracelet.products import (
    PochhammerFactor,
    ProductSpec,
    pochhammer_base,
    pochhammer_inverse,
    product_series,
)
from qbracelet.sources import bracelet_source, expand_source, parse_source

# pentagonal exponents 0,1,2,5,7,12 with signs +,-,-,+,+,-
PENTAGONAL_12 = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_euler_factor_expansion():
    s = product_series(ProductSpec.of((-1, 1, 1, 1)), 12)
    assert s.coeffs == PENTAGONAL_12


def test_zero_exponent_is_one():
    s = product_series(ProductSpec.of((-1, 3, 4, 0)), 10)
    assert s == TruncatedSeries.one(EXACT, 10)


def test_negative_exponent_gives_partition_numbers():
    s = product_series(ProductSpec.of((-1, 1, 1, -1)), 9)
    assert s.coeffs == [count_partitions(n) for n in range(10)]


def test_exact_division_chain_gives_partition_numbers():
    # 1/(q;q) to q^2000 by the exact chain, mod 2^170, against the
    # pentagonal recurrence: its coefficients p(n) are the largest an exact
    # inverse chain takes, so it runs nearest its lane bound
    assert pochhammer_inverse(-1, 1, 1, 2000).coeffs == partition_numbers(2000)


def test_exact_product_chain_gives_distinct_part_counts():
    # (-q;q) to q^2000 by the exact chain, mod 2^121, against the list
    # loop: its coefficients Q(n) are the largest an exact product chain
    # takes
    assert pochhammer_base(1, 1, 1, 2000).coeffs == list_chain(1, 1, 1, 2000, None, False)


def test_exact_chain_lanes_bound_the_partition_counts():
    # an exact chain runs mod 2^b and reads lanes in (-2^(b-1), 2^(b-1)):
    # b = isqrt(7n) + 3 for a product, whose |c_i| <= Q(i), and
    # b = isqrt(14n) + 3 for an inverse, whose |c_i| <= p(i); each bound
    # leaves one bit more than the sign bit
    ps, qs = partition_numbers(2000), list_chain(1, 1, 1, 2000, None, False)
    for n in range(2001):
        assert qs[n] < 1 << isqrt(7 * n) + 2, n
        assert ps[n] < 1 << isqrt(14 * n) + 2, n


def test_factor_validation():
    with pytest.raises(ValueError):
        PochhammerFactor(0, 1, 1, 1)
    with pytest.raises(ValueError):
        PochhammerFactor(-1, 0, 1, 1)
    with pytest.raises(ValueError):
        PochhammerFactor(-1, 1, 0, 1)


@pytest.mark.parametrize("ring", [EXACT, Mod(7)])
@pytest.mark.parametrize("build", [pochhammer_base, pochhammer_inverse])
@pytest.mark.parametrize("base", [(-1, 0, 1), (1, 1, 0), (0, 1, 1)])
def test_chain_validation(build, base, ring):
    # over Z/M a division by offset 0 would double m = 0 forever
    with pytest.raises(ValueError):
        build(*base, 5, ring)


def test_empty_spec_is_one():
    assert product_series(ProductSpec(), 7) == TruncatedSeries.one(EXACT, 7)


def test_inverse_pair_cancels():
    spec = ProductSpec.of((-1, 1, 1, 1), (-1, 1, 1, -1))
    assert product_series(spec, 30) == TruncatedSeries.one(EXACT, 30)


def test_bracelet_rewriting_matches_generator():
    spec = ProductSpec.of((-1, 2, 2, 1), (-1, 5, 5, 1), (-1, 1, 1, -5), (-1, 10, 10, -1))
    assert product_series(spec, 20) == expand_source(bracelet_source(5), EXACT, 20)


def test_plus_factor_equals_quotient_identity():
    # (-q^a;q^b) = (q^{2a};q^{2b}) / (q^a;q^b), exercised both ways
    for a, b in [(1, 1), (2, 3), (5, 5)]:
        direct = product_series(ProductSpec.of((1, a, b, 1)), 40)
        quotient = product_series(
            ProductSpec.of((-1, 2 * a, 2 * b, 1), (-1, a, b, -1)), 40
        )
        assert direct == quotient


def test_euler_times_plus_euler_is_even_euler():
    # (q;q)(-q;q) = (q^2;q^2) coefficientwise
    lhs = product_series(ProductSpec.of((-1, 1, 1, 1)), 100) * product_series(
        ProductSpec.of((1, 1, 1, 1)), 100
    )
    rhs = product_series(ProductSpec.of((-1, 2, 2, 1)), 100)
    assert lhs == rhs


def test_modular_expansion_matches_reduction():
    spec = ProductSpec.of((1, 1, 1, 1), (-1, 1, 1, -2))
    exact = product_series(spec, 50)
    direct = product_series(spec, 50, Mod(5))
    assert exact.reduce_mod(5) == direct


def test_pochhammer_base_modular():
    base = pochhammer_base(-1, 1, 1, 12, Mod(2))
    assert base.coeffs == [c % 2 for c in PENTAGONAL_12]


@pytest.mark.parametrize("modulus", [2, 5, 25, 12, None])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("offset, step", [(1, 1), (1, 4), (3, 4), (5, 5), (2, 7)])
def test_division_chain_inverts_binomial_chain(modulus, sign, offset, step):
    ring = EXACT if modulus is None else Mod(modulus)
    inverse = pochhammer_inverse(sign, offset, step, 60, ring)
    assert inverse * pochhammer_base(sign, offset, step, 60, ring) == TruncatedSeries.one(
        ring, 60
    )
    exact = pochhammer_inverse(sign, offset, step, 60)
    assert inverse == (exact if modulus is None else exact.reduce_mod(modulus))


def list_chain(sign, offset, step, n, modulus, divide):
    """1 / (sign q^offset; q^step)_inf when divide, else the product itself,
    to order n mod modulus (exact when modulus is None): one binomial
    1 + sign q^m at a time on a plain list, reduced after each.  It shares
    no code with the packed chain."""
    op = (sub if sign > 0 else add) if divide else (add if sign > 0 else sub)
    cs = [1] + [0] * n
    for m in range(offset, n + 1, step):
        if divide:
            # f_i = c_i - sign f_{i-m}, bottom-up, m coefficients per slice
            for j in range(m, n + 1, m):
                cs[j : j + m] = map(op, cs[j : j + m], cs[j - m : j])
        else:
            cs[m:] = map(op, cs[m:], cs[: n + 1 - m])
        if modulus is not None:
            cs = [c % modulus for c in cs]
    return cs


# rings of the packed chain tests: Z/2 on one-bit lanes, small, composite and
# prime-power moduli, moduli whose M - 1 takes 1, 2, 3, 8, 9 and 16 bytes
# (255 and 256 the last of one byte, 257 and 65537 the first of more), and
# None, the exact integers
CHAIN_MODULI = [
    2, 3, 5, 12, 121, 255, 256, 257, 65537, 2**61 - 1, 2**64 + 13, 2**127 - 1, None
]


@st.composite
def chains(draw):
    step = draw(st.integers(1, 12))
    return draw(st.sampled_from((-1, 1))), draw(st.integers(1, step)), step


@settings(max_examples=150, deadline=None)
@given(chains(), st.integers(0, 400), st.sampled_from(CHAIN_MODULI), st.booleans())
@example((1, 1, 1), 400, 2**64 + 13, True)
@example((-1, 1, 1), 400, 2**127 - 1, False)
@example((1, 1, 1), 400, None, True)
def test_packed_chains_match_list_chains(chain, n, modulus, divide):
    build = pochhammer_inverse if divide else pochhammer_base
    got = build(*chain, n, EXACT if modulus is None else Mod(modulus))
    assert got.coeffs == list_chain(*chain, n, modulus, divide)


def flat_lane_chain(n, k=190):
    """The binomials of (1 + q)^k / (1 - q) to order n, and its coefficients
    sum_{i <= j} C(k, i).  From index k on every coefficient is 2^k, so each
    shift-add doubles these flat lanes exactly."""
    shifts = [(1 << i, 1) for i in range(n.bit_length())] + [(1, 1)] * k
    return shifts, [sum(comb(k, i) for i in range(j + 1)) for j in range(n + 1)]


@pytest.mark.parametrize("n", [200, 400])
def test_packed_chain_reduces_before_a_lane_overflows(n):
    # The in-place reduction takes 1 round at most of these moduli, 2 at
    # 121, 3 at 86 and 4 at 26237.  The flat lanes all hold one value,
    # which each shift-add doubles exactly, so a reduction one doubling
    # late, or a bound tracked one doubling low, overflows them at every
    # modulus here but 257.  2^48 ... 2^170 are the moduli of the exact
    # chains at orders 300, 600 and 2000, and 2^190 fills even their lanes
    shifts, expected = flat_lane_chain(n)
    for m in (3, 5, 86, 121, 255, 256, 257, 26237, 65537, 2**64 + 13,
              2**48, 2**67, 2**94, 2**121, 2**170):
        assert products._packed_chain(shifts, n, m) == [c % m for c in expected], m


@pytest.mark.parametrize("divide", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("offset, step", [(1, 1), (1, 2), (2, 3), (5, 5)])
def test_bit_chains_match_list_chains(sign, offset, step, divide):
    # over Z/2 the sign of a binomial does not matter: one shift-XOR each
    build = pochhammer_inverse if divide else pochhammer_base
    for n in (0, 1, 2, 62, 63, 64, 65, 400):
        got = build(sign, offset, step, n, Mod(2))
        assert got.coeffs == list_chain(sign, offset, step, n, 2, divide)


@pytest.mark.parametrize(
    "m, unpacks", [(2, 0), (3, 1), (121, 1), (257, 1), (2**61 - 1, 1), (None, 1)]
)
def test_modular_chains_never_leave_the_packed_int(kernel_calls, m, unpacks):
    # 1 / (q;q) to q^600 makes 1,196 shift-adds, so the lanes are reduced
    # many times over, each time in place; Z/2 reads its one-bit lanes off
    # without unpacking byte lanes at all, and Z runs mod 2^94
    unpack, pack = kernel_calls("_unpack"), kernel_calls("_pack")
    got = pochhammer_inverse(-1, 1, 1, 600, EXACT if m is None else Mod(m))
    exact = partition_numbers(600)
    assert got.coeffs == (exact if m is None else [c % m for c in exact])
    assert (len(unpack), pack) == (unpacks, [])


def test_chains_are_called_through_their_module_names(monkeypatch):
    # the benchmark's tracer sees a chain only if callers look it up on the
    # module at call time.  Over Z/M this product is one merged chain, so
    # there it makes one _packed_chain call and neither of the two others
    calls = []

    def counting(name, real):
        def wrapped(*args):
            calls.append(name)
            return real(*args)

        return wrapped

    for module in (products, theta):
        for name in ("pochhammer_base", "pochhammer_inverse"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    product_series(ProductSpec.parse("-1,1,3,2;1,2,5,-1"), 50, EXACT)
    assert calls == ["pochhammer_base", "pochhammer_inverse"]
    calls.clear()
    assert theta.jacobi_triple_check(0, 1, 40)
    assert calls == ["pochhammer_base"] * 3
    calls.clear()
    monkeypatch.setattr(
        products, "_packed_chain", counting("_packed_chain", products._packed_chain)
    )
    product_series(ProductSpec.parse("-1,1,3,2;1,2,5,-1"), 50, Mod(7))
    assert calls == ["_packed_chain"]


CHAIN_CALL_LIMIT = 100_000


@pytest.fixture
def chain_calls(monkeypatch):
    """Records the route of every product_series build: the name of each
    pochhammer_base / pochhammer_inverse call, and ("_packed_chain", count)
    for each chain, count the binomials it was given."""
    calls = []

    def chain(shifts, *args):
        # a chain past the limit fails here rather than filling the memory
        shifts = list(islice(shifts, CHAIN_CALL_LIMIT + 1))
        assert len(shifts) <= CHAIN_CALL_LIMIT
        calls.append(("_packed_chain", len(shifts)))
        return real_chain(shifts, *args)

    def named(name, real):
        def wrapped(*args):
            calls.append(name)
            return real(*args)

        return wrapped

    real_chain = products._packed_chain
    monkeypatch.setattr(products, "_packed_chain", chain)
    for name in ("pochhammer_base", "pochhammer_inverse"):
        monkeypatch.setattr(products, name, named(name, getattr(products, name)))
    return calls


@pytest.mark.parametrize(
    "key, n, modulus, route",
    [
        # 1 / (q;q)^3 has 3,994 binomials to q^2000: 2 * 3,994 repeats
        # against 3 products at C(2000) = 264, so it takes pow(3);
        # (-q^4;q^17)^2 has 118, which go into the merged chain twice
        ("-1,1,1,-3;1,4,17,2", 2000, 7,
         ["pochhammer_inverse", ("_packed_chain", 3994), ("_packed_chain", 236)]),
        # every factor merged: three copies of the 12 binomials of (q;q^3),
        # and the 15 of the division by (-q^2;q^5)
        ("-1,1,3,3;1,2,5,-1", 36, 25, [("_packed_chain", 3 * 12 + 15)]),
        # |e| = 1 always merges, since it saves the multiply and costs nothing
        ("-1,1,1,1;1,1,2,-1", 600, 2, [("_packed_chain", 600 + 600)]),
        # (q;q^4)^2 has 500 binomials.  Repeating them replaces its squaring
        # and its multiply, 2 C(2000) = 528 shift-adds: a margin of 28, which
        # pays for the merged chain's own multiply, C(2000) = 264, only with
        # the margin of another factor such as (-q;q)
        ("-1,1,4,2", 2000, 25, ["pochhammer_base", ("_packed_chain", 500)]),
        ("-1,1,4,2;1,1,1,1", 2000, 25, [("_packed_chain", 2 * 500 + 2000)]),
        # every factor on the pow route
        ("-1,1,1,5;-1,1,1,-4", 600, 121,
         ["pochhammer_base", ("_packed_chain", 600),
          "pochhammer_inverse", ("_packed_chain", 1196)]),
        # over Z every factor keeps its own chain, raised to |e|
        ("-1,1,3,3;1,2,5,-1", 36, None,
         ["pochhammer_base", ("_packed_chain", 12),
          "pochhammer_inverse", ("_packed_chain", 15)]),
    ],
)
def test_product_series_merges_the_factors_that_cost_less_repeated(
    chain_calls, key, n, modulus, route
):
    spec = ProductSpec.parse(key)
    ring = EXACT if modulus is None else Mod(modulus)
    got = product_series(spec, n, ring)
    assert chain_calls == route
    chain_calls.clear()
    exact = product_series(spec, n, EXACT)
    assert got == (exact if modulus is None else exact.reduce_mod(modulus))


@pytest.mark.parametrize("sign", [1, -1])
def test_huge_exponents_never_repeat_their_binomials(chain_calls, sign):
    # 99999999999 copies of the 300 binomials of (q;q^2), or of the 600 of
    # its inverse, would be over 10^13 shift-adds; the rule sends the
    # factor to pow, 37 squarings, so no factor's repeats add more binomials
    # than its pow would cost.  A factor with no binomial up to q^600 is 1
    # there for any exponent, and makes no chain at all
    e, n, ring = 99999999999, 600, Mod(7)
    got = product_series(ProductSpec.parse(f"-1,1,2,{sign * e};-1,700,800,{e}"), n, ring)
    build = pochhammer_base if sign > 0 else pochhammer_inverse
    count = products._binomial_count(1, 2, n, sign < 0)
    assert chain_calls == [build.__name__, ("_packed_chain", count)]
    bound = (e.bit_length() + e.bit_count() - 1) * products.CHAIN_PRODUCT_PRICE * isqrt(n + 1)
    assert count <= bound
    assert got == build(-1, 1, 2, n, ring).pow(e)


def test_binomial_counts_are_the_chain_lengths():
    for sign, offset, step, divide in [(1, 1, 1, True), (-1, 3, 7, True), (-1, 2, 2, False)]:
        for n in (0, 1, 2, 63, 64, 600, 601):
            count = products._binomial_count(offset, step, n, divide)
            assert count == len(list(products._binomials(sign, offset, step, n, divide)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: product_series(ProductSpec.parse("1,1,4,-2"), 2000),
        lambda: (ramanujan_a(1000), ramanujan_b(1000)),
        lambda: product_series(ProductSpec.parse("-1,1,5,-3;1,2,5,1"), 600, Mod(25)),
    ],
    ids=["1,1,4,-2-exact-2000", "ramanujan_a_b-exact-1000", "-1,1,5,-3;1,2,5,1-mod25-600"],
)
def test_product_series_never_inverts(monkeypatch, build):
    calls = []
    real = TruncatedSeries.invert

    def counting(self):
        calls.append(self.order)
        return real(self)

    monkeypatch.setattr(TruncatedSeries, "invert", counting)
    build()
    assert calls == []


def test_product_series_raises_huge_exponents_by_squaring():
    # one chain per factor, then pow: 37 squarings for e = 99999999999,
    # where repeating each binomial e times would make 10^11 chain passes.
    # Each factor is 1 + O(q), so its 7th power is 1 + O(q^7) mod 7, and up
    # to q^5 the exact product reduced mod 7 is that with e mod 7
    e = 99999999999
    got = product_series(ProductSpec.parse(f"-1,1,2,{e};1,1,3,{-e}"), 5, Mod(7))
    small = product_series(ProductSpec.parse(f"-1,1,2,{e % 7};1,1,3,{-(e % 7)}"), 5)
    assert got.coeffs == small.reduce_mod(7).coeffs == [1, 6, 4, 6, 3, 2]


def test_spec_key_roundtrip():
    spec = ProductSpec.of((-1, 10, 25, 1), (1, 5, 25, -2))
    assert ProductSpec.parse(spec.key()) == spec
    assert ProductSpec.parse("") == ProductSpec()


def test_spec_str():
    spec = ProductSpec.of((-1, 2, 2, 1), (-1, 1, 1, -5))
    assert str(spec) == "(q^2;q^2)oo/(q;q)oo^5"


def test_product_series_never_multiplies_by_one(kernel_calls):
    conv_mod_calls = kernel_calls("conv_mod")
    spec = ProductSpec.parse("-1,2,2,1")
    expected = pochhammer_base(-1, 2, 2, 100, Mod(5))
    assert product_series(spec, 100, Mod(5)) == expected
    assert expand_source(parse_source("product:-1,2,2,1"), Mod(5), 100) == expected
    assert conv_mod_calls == []


def test_normal_form_rewrites_plus_eta_factors():
    # (-q^t;q^t) = (q^{2t};q^{2t})/(q^t;q^t); general factors stay, merged
    spec = ProductSpec.of((1, 3, 3, 2), (-1, 1, 4, 1), (-1, 6, 6, -2), (-1, 1, 4, 2))
    eta, general = spec.normal_form()
    assert eta == ((3, -2),)
    assert general == ProductSpec.of((-1, 1, 4, 3))
    assert ProductSpec.of((1, 2, 2, 1), (-1, 4, 4, -1)).normal_form() == (
        ((2, -1),),
        ProductSpec(),
    )


def test_bracelet_normal_form_is_its_eta_quotient():
    for k in (3, 5, 125):
        eta, general = bracelet_definition_spec(k).normal_form()
        assert eta == ((1, -k), (2, 1), (k, 1), (2 * k, -1))
        assert general == ProductSpec()


# rings of the property test; None is the exact integers
SPEC_RINGS = [2, 3, 5, 25, 12, None]


@st.composite
def factors(draw):
    step = draw(st.integers(1, 12))
    offset = step if draw(st.booleans()) else draw(st.integers(1, step))
    return draw(st.sampled_from((-1, 1))), offset, step, draw(st.integers(-3, 3))


@st.composite
def product_specs(draw):
    fs = draw(st.lists(factors(), max_size=3))
    if fs:
        # repeat bases, half the time with the exponent that cancels
        for sign, offset, step, e in draw(st.lists(st.sampled_from(fs), max_size=2)):
            fs.append((sign, offset, step, -e if draw(st.booleans()) else e))
    return ProductSpec.of(*draw(st.permutations(fs)))


@settings(max_examples=120, deadline=None)
@given(product_specs(), st.sampled_from(SPEC_RINGS), st.integers(0, 300))
def test_product_sources_match_definition(spec, modulus, n):
    exact = product_series(spec, n, EXACT)
    expected = exact if modulus is None else exact.reduce_mod(modulus)
    ring = EXACT if modulus is None else Mod(modulus)
    assert expand_source(parse_source("product:" + spec.key()), ring, n) == expected
    form = spec.normal_form()
    assert all(ProductSpec(p).normal_form() == form for p in permutations(spec.factors))


# moduli of the modular product property test: Z/2 on one-bit lanes, odd
# primes, a composite, prime squares, a modulus past one byte and 2^61 - 1
MERGED_CHAIN_MODULI = [2, 3, 12, 25, 121, 257, 2**61 - 1]


@st.composite
def powered_factors(draw):
    step = draw(st.integers(1, 25))
    exponent = draw(st.integers(1, 7)) * draw(st.sampled_from((-1, 1)))
    return draw(st.sampled_from((-1, 1))), draw(st.integers(1, step)), step, exponent


@settings(max_examples=80, deadline=None)
@given(
    st.lists(powered_factors(), min_size=1, max_size=3),
    st.sampled_from(MERGED_CHAIN_MODULI),
    st.one_of(st.integers(0, 601), st.just(2000)),
)
@example([(-1, 1, 1, -3), (1, 4, 17, 2)], 2**61 - 1, 2000)
@example([(-1, 1, 1, 7), (1, 1, 25, -7)], 257, 2000)
def test_modular_products_equal_exact_then_reduce(factors, modulus, n):
    # the merged chain and the pow route against the exact product, which
    # takes one chain per factor and pow for every factor
    spec = ProductSpec.of(*factors)
    got = product_series(spec, n, Mod(modulus))
    assert got == product_series(spec, n, EXACT).reduce_mod(modulus)
