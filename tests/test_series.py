"""Core truncated-series arithmetic: operation contracts and ring laws."""

import random

import pytest

from qbracelet import (
    EXACT,
    CoefficientRing,
    Mod,
    NotInvertibleError,
    RingMismatchError,
    TruncatedSeries,
)
from qbracelet.oracles import count_partitions
from qbracelet.products import ProductSpec, product_series
from qbracelet.verify import progression


def series(ring, *coeffs):
    return TruncatedSeries(ring, coeffs)


def random_series(rng, ring, order):
    if ring.is_exact:
        cs = [rng.randrange(-50, 51) for _ in range(order + 1)]
    else:
        cs = [rng.randrange(ring.modulus) for _ in range(order + 1)]
    return TruncatedSeries(ring, cs)


RINGS = [EXACT, Mod(2), Mod(5), Mod(12)]


def test_add_cancellation():
    one_minus_q = series(EXACT, 1, -1, 0, 0)
    q = series(EXACT, 0, 1, 0, 0)
    assert (one_minus_q + q) == TruncatedSeries.one(EXACT, 3)


def test_add_zero_identity():
    x = series(EXACT, 3, 1, 4, 1, 5)
    assert x + TruncatedSeries.zero(EXACT, 4) == x


def test_add_characteristic_two():
    x = series(Mod(2), 1, 1)
    assert (x + x) == TruncatedSeries.zero(Mod(2), 1)


def test_mul_telescoping():
    n = 30
    geo = TruncatedSeries(EXACT, [1] * (n + 1))
    one_minus_q = TruncatedSeries(EXACT, [1, -1] + [0] * (n - 1))
    assert one_minus_q * geo == TruncatedSeries.one(EXACT, n)


def test_mul_identity():
    x = series(EXACT, 5, -3, 2, 7)
    assert x * TruncatedSeries.one(EXACT, 3) == x


def test_mul_orders_truncate_to_minimum():
    x = series(EXACT, 1, 2, 3, 4, 5)
    y = series(EXACT, 1, 1)
    assert (x * y).order == 1
    assert (x * y).coeffs == [1, 3]


def test_ring_mismatch_raises():
    x = series(EXACT, 1, 2)
    y = series(Mod(2), 1, 0)
    with pytest.raises(RingMismatchError):
        _ = x + y
    with pytest.raises(RingMismatchError):
        _ = x * y
    with pytest.raises(RingMismatchError):
        x.equal_upto(y, 1)


@pytest.mark.parametrize("e, convolutions", [(0, 0), (1, 0), (2, 1), (5, 3), (8, 3)])
def test_pow_convolution_count(kernel_calls, e, convolutions):
    x = series(Mod(7), 1, 3, 5, 2)
    conv_mod_calls = kernel_calls("conv_mod")
    power = x.pow(e)
    assert len(conv_mod_calls) == convolutions
    expected = TruncatedSeries.one(Mod(7), 3)
    for _ in range(e):
        expected = expected * x
    assert power == expected


def test_invert_geometric():
    x = TruncatedSeries(EXACT, [1, -1] + [0] * 8)
    assert x.invert().coeffs == [1] * 10


def test_invert_one():
    one = TruncatedSeries.one(EXACT, 5)
    assert one.invert() == one


def test_invert_euler_gives_partition_numbers():
    # independent oracle: direct combinatorial count
    inv = product_series(ProductSpec.of((-1, 1, 1, 1)), 20).invert()
    assert inv.coeffs == [count_partitions(n) for n in range(21)]


def test_invert_requires_unit():
    with pytest.raises(NotInvertibleError):
        series(EXACT, 2, 1).invert()
    with pytest.raises(NotInvertibleError):
        series(Mod(10), 5, 1).invert()
    # 3 is a unit mod 10
    x = series(Mod(10), 3, 1, 4)
    assert (x * x.invert()) == TruncatedSeries.one(Mod(10), 2)


def test_dissect_constant_stream():
    x = TruncatedSeries(EXACT, [1] * 21)
    assert progression(x, 2, 1, (x.order - 1) // 2) == [1] * 10


def test_dissect_identity():
    x = series(EXACT, 4, 8, 15, 16, 23, 42)
    assert progression(x, 1, 0, x.order) == x.coeffs


def test_dissect_pentagonal_class_three_mod_five():
    # exponents n(3n-1)/2 never land in class 3 mod 5
    from qbracelet import euler_series

    e = euler_series(50)
    assert progression(e, 5, 3, (e.order - 3) // 5) == [0] * 10
    pent = {k * (3 * k - 1) // 2 for k in range(-10, 11)}
    assert all(v % 5 != 3 for v in pent if 0 <= v <= 50)


def test_dissect_rejects_degenerate_residue():
    x = series(EXACT, 1, 2, 3)
    with pytest.raises(ValueError):
        progression(x, 5, 4, 0)
    assert progression(x, 3, 2, 0) == [3]


def test_inflate_binomial():
    assert series(EXACT, 1, -1).inflate(2).coeffs == [1, 0, -1]


def test_inflate_identity():
    x = series(EXACT, 1, 2, 3)
    assert x.inflate(1) is x


def test_inflate_euler_by_25():
    from qbracelet import euler_series

    e = euler_series(10).inflate(25).resized(50)
    expect = [0] * 51
    expect[0], expect[25], expect[50] = 1, -1, -1
    assert e.coeffs == expect


def test_shift_monomial():
    assert TruncatedSeries.one(EXACT, 3).shift(1).coeffs == [0, 1, 0, 0]
    x = series(EXACT, 1, 2, 3)
    assert x.shift(0) is x


@pytest.mark.parametrize("order", [0, 1, 3])
def test_shift_past_the_order_keeps_it(order):
    x = TruncatedSeries(EXACT, range(1, order + 2))
    for t in (order + 1, order + 2, 2 * (order + 1) + 1):
        assert x.shift(t) == TruncatedSeries.zero(EXACT, order)


def test_shift_geometric():
    geo = TruncatedSeries(EXACT, [1, -1] + [0] * 8).invert()
    assert geo.shift(2).coeffs == [0, 0] + [1] * 8


def test_reduce_mod():
    assert series(EXACT, 1, -1).reduce_mod(2).coeffs == [1, 1]
    z = TruncatedSeries.zero(EXACT, 4)
    assert z.reduce_mod(7) == TruncatedSeries.zero(Mod(7), 4)
    with pytest.raises(ValueError):
        series(Mod(3), 1).reduce_mod(2)


def test_reduce_mod_partition_multiples_of_five():
    from qbracelet import expand_source
    from qbracelet.sources import partition_source

    p = expand_source(partition_source(), EXACT, 19).reduce_mod(5)
    assert [p.coeffs[i] for i in (4, 9, 14, 19)] == [0, 0, 0, 0]


def test_equal_upto():
    x = series(EXACT, 1, 2, 3, 4)
    assert x.equal_upto(x, 3) == (True, None)
    y = series(EXACT, 1, 2, 9, 4)
    assert x.equal_upto(y, 3) == (False, 2)
    assert x.equal_upto(y, 1) == (True, None)
    with pytest.raises(ValueError):
        x.equal_upto(y, 4)


def test_monomial_and_scale():
    m = TruncatedSeries.monomial(Mod(5), 4, 2, coeff=7)
    assert m.coeffs == [0, 0, 2, 0, 0]
    assert m.scale(-1).coeffs == [0, 0, 3, 0, 0]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.key())
def test_linear_operations_canonicalize_once(ring, monkeypatch):
    # the constructor reduces mod M in one pass; no coefficient goes
    # through ring.normalize on its own
    x, y = series(ring, 3, 0, 4, 1), series(ring, 4, 4, 1, 1)
    norm = ring.normalize
    monkeypatch.setattr(CoefficientRing, "normalize", None)
    assert (x + y).coeffs == list(map(norm, (7, 4, 5, 2)))
    assert (x - y).coeffs == list(map(norm, (-1, -4, 3, 0)))
    assert (-x).coeffs == list(map(norm, (-3, 0, -4, -1)))
    assert x.scale(-3).coeffs == list(map(norm, (-9, 0, -12, -3)))


@pytest.mark.parametrize("ring", [EXACT, Mod(5), Mod(121)], ids=lambda r: r.key())
def test_invert_canonicalizes_once(ring, monkeypatch):
    # each Newton step negates its product in one pass; the coefficients
    # are those of the bottom-up division b_i = -b_0 sum_j x_j b_{i-j}
    rng = random.Random(121)
    x = random_series(rng, ring, 300)
    x = TruncatedSeries(ring, [1] + x.coeffs[1:])
    norm = ring.normalize
    b = [1]
    for i in range(1, 301):
        b.append(norm(-sum(x.coeffs[j] * b[i - j] for j in range(1, i + 1))))
    monkeypatch.setattr(CoefficientRing, "normalize", None)
    assert x.invert().coeffs == b
    assert x.scale(-1).invert().coeffs == [norm(-c) for c in b]


# --- randomized invariants --------------------------------------------------


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.key())
def test_ring_laws_random(ring):
    rng = random.Random(2024)
    for _ in range(60):
        order = rng.randrange(0, 25)
        x = random_series(rng, ring, order)
        y = random_series(rng, ring, order)
        z = random_series(rng, ring, order)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.key())
def test_invert_is_two_sided_inverse_random(ring):
    rng = random.Random(99)
    for _ in range(40):
        order = rng.randrange(0, 30)
        x = random_series(rng, ring, order)
        cs = x.coeffs[:]
        cs[0] = 1 if rng.random() < 0.5 or ring.is_exact else cs[0]
        if not ring.is_unit(cs[0]):
            cs[0] = 1
        x = TruncatedSeries(ring, cs)
        assert x * x.invert() == TruncatedSeries.one(ring, order)
        assert x.invert() * x == TruncatedSeries.one(ring, order)


def test_dissect_reconstruct_random():
    rng = random.Random(5)
    for _ in range(50):
        ring = rng.choice(RINGS)
        order = rng.randrange(1, 40)
        step = rng.randrange(1, min(order, 8) + 1)
        x = random_series(rng, ring, order)
        target = (order // step) * step
        total = TruncatedSeries.zero(ring, target)
        for residue in range(step):
            cs = progression(x, step, residue, (x.order - residue) // step)
            piece = TruncatedSeries(ring, cs).inflate(step).resized(target).shift(residue)
            total = total + piece
        assert total == x.resized(target)


def test_reduce_mod_is_ring_homomorphism_random():
    rng = random.Random(12)
    for _ in range(40):
        order = rng.randrange(0, 25)
        m = rng.choice([2, 3, 5, 9, 121])
        x = random_series(rng, EXACT, order)
        y = random_series(rng, EXACT, order)
        assert (x * y).reduce_mod(m) == x.reduce_mod(m) * y.reduce_mod(m)
        assert (x + y).reduce_mod(m) == x.reduce_mod(m) + y.reduce_mod(m)


def test_inflate_composes_random():
    rng = random.Random(3)
    for _ in range(30):
        order = rng.randrange(0, 20)
        s = rng.randrange(1, 5)
        t = rng.randrange(1, 5)
        x = random_series(rng, rng.choice(RINGS), order)
        assert x.inflate(s * t) == x.inflate(s).inflate(t)
