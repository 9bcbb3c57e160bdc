"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  Congruence checks are exact (tolerance zero); the generous wall
clock bounds catch algorithmic regressions, not machine jitter.
"""

import random
import time
from contextlib import contextmanager

from qbracelet import (
    EXACT,
    Mod,
    TruncatedSeries,
    euler_quintic_rhs,
    euler_series,
    jacobi_triple_check,
    ramanujan_a,
    ramanujan_b,
    theta_f,
)
from qbracelet.claims import CongruenceClaim, resolve_selection
from qbracelet.generators import bracelet_definition_spec
from qbracelet.oracles import count_l_regular, count_partitions, partition_numbers
from qbracelet.products import ProductSpec, product_series
from qbracelet.sources import (
    bracelet_source,
    expand_source,
    lregular_source,
    partition_source,
)
from qbracelet.theta import PrimeContext, p_dissection_f
from qbracelet.verify import progression, verify


@contextmanager
def criterion(number: int, description: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
        )
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def assert_all_pass(reports):
    problems = [
        (r.claim_id, r.status, r.message, r.counterexample)
        for r in reports
        if r.status != "pass"
    ]
    assert not problems, f"non-passing claims: {problems}"


def test_criterion_01_identity_suite():
    with criterion(1, "exact identity suite at order 1000", budget_s=10.0):
        n = 1000
        # pentagonal theorem: theta sum against the binomial-chain product
        pent_sum = theta_f(1, 2, -1, -1, n)
        pent_prod = product_series(ProductSpec.of((-1, 1, 1, 1)), n)
        assert pent_sum == pent_prod

        # quintic splitting of (q;q)
        assert euler_quintic_rhs(n) == euler_series(n)

        # a(q) b(q) = 1
        assert ramanujan_a(n) * ramanujan_b(n) == TruncatedSeries.one(EXACT, n)

        # triple product at z = q^0, -q^0, -q^1
        for t, sz in ((0, 1), (0, -1), (1, -1)):
            assert jacobi_triple_check(t, sz, 200)

        # bracelet generating function: definition vs rewritten form
        for k in (3, 5, 7):
            assert product_series(bracelet_definition_spec(k), 300) == expand_source(
                bracelet_source(k), EXACT, 300
            )


def test_criterion_02_p_dissection_suite():
    with criterion(2, "p-dissection of (q;q): reconstruction and residue "
                      "distinctness", budget_s=5.0):
        for p in (5, 7, 11, 13):
            comps = p_dissection_f(PrimeContext(p), 500)
            total = TruncatedSeries.zero(EXACT, 500)
            for _, s in comps:
                total = total + s
            assert total == euler_series(500)
        for p in (5, 7, 11, 13, 17, 19, 23):
            ctx = PrimeContext(p)
            half = (p - 1) // 2
            classes = {
                (3 * k * k + k) // 2 % p
                for k in range(-half, half + 1)
                if k != ctx.t
            }
            assert ctx.delta % p not in classes


def test_criterion_03_oracle_concordance():
    with criterion(3, "series engine vs enumeration and recurrence oracles",
                   budget_s=5.0):
        part = expand_source(partition_source(), EXACT, 1000)
        lreg = expand_source(lregular_source(5), EXACT, 40)
        for n in range(41):
            assert part.coeffs[n] == count_partitions(n)
            assert lreg.coeffs[n] == count_l_regular(5, n)
        assert part.coeffs == partition_numbers(1000)


def test_criterion_04_classical_congruences():
    with criterion(4, "Ramanujan p(n) congruences and Delta_1(2n+1) mod 3"):
        claims, issues = resolve_selection(["C20", "C1"])
        assert not issues
        reports = verify(claims, n_max=150)
        assert_all_pass(reports)


def test_criterion_05_mod2_theorems():
    with criterion(5, "B_5 mod 2: vanishing at 10n+6/10n+8 and the two "
                      "series congruences", budget_s=30.0):
        claims, issues = resolve_selection(["C6", "C7", "C8"])
        assert not issues
        reports = verify(claims, n_max=500)
        assert_all_pass(reports)


def test_criterion_06_mod2_families(monkeypatch):
    with criterion(6, "b_5/B_5 mod 2 families at prime powers, incl. the "
                      "11560n+7452 instance"):
        claims, issues = resolve_selection(["C10", "C12", "C13"])
        assert not issues
        assert_all_pass(verify(claims))

        c11, issues = resolve_selection(
            ["C11[v=1,a=0]", "C11[v=2,a=0]", "C11[v=1,a=1]", "C11[v=2,a=1]"]
        )
        assert not issues
        monkeypatch.setenv("QBRACELET_ORDER_CAP", "60000")
        assert_all_pass(verify(c11, n_max=100))


def test_criterion_07_mod_p_lemma_and_theorems():
    with criterion(7, "mod p dissection lemma and the prime-power theorems"):
        ids = [
            "C14[p=5,r=1,a=1]", "C14[p=5,r=3,a=1]", "C14[p=5,r=3,a=2]",
            "C15[p=5,r=2,a=1,i=1]", "C15[p=5,r=2,a=1,i=2]",
            "C15[p=5,r=2,a=1,i=3]", "C15[p=5,r=2,a=1,i=4]",
            "C16[p=5,r=3,a=1,j=1]", "C16[p=5,r=3,a=1,j=3]",
            "C17[p=5,a=1,v=1]", "C17[p=5,a=1,v=2]",
            "C19[p=5,a=1]",
        ]
        claims, issues = resolve_selection(ids)
        assert not issues
        assert len(claims) == len(ids)
        reports = verify(claims)
        assert_all_pass(reports)
        # C19's constant right side: the n=0 coefficient is epsilon_5 = -1 mod 5
        b25 = expand_source(bracelet_source(25), Mod(5), 2)
        assert b25.coeffs[2] == 4


def test_criterion_08_corollaries():
    with criterion(8, "corollary progressions mod 5, 7, 11"):
        claims, issues = resolve_selection(
            ["C18[p=5,a=1]", "C18[p=7,a=1]", "C18[p=11,a=1]"]
        )
        assert not issues
        reports = verify(claims, n_max=40)
        assert_all_pass(reports)
        assert [(c.step, c.residue) for c in claims] == [(50, 42), (98, 74), (242, 142)]


def test_criterion_09_imported_regressions():
    with criterion(9, "imported congruence regressions (C2-C5)"):
        claims, issues = resolve_selection(
            [
                "C2[p=5,r=1]", "C2[p=7,r=1]", "C2[p=3,r=2]",
                "C3[p=5,m=2,s=1]", "C3[p=5,m=2,s=3]",
                "C4[m=2,l=3]",
                "C5[k=5]", "C5[k=7]", "C5[k=11]",
            ]
        )
        assert not issues
        assert_all_pass(verify(claims))
        by_id = {c.claim_id: c for c in claims}
        assert by_id["C4[m=2,l=3]"].source.key() == "bracelet:12"
        assert by_id["C4[m=2,l=3]"].modulus == 4


def test_criterion_10_negative_control():
    with criterion(10, "planted false claim B_5(10n+1) mod 2 is refuted with "
                       "a concrete index"):
        planted = CongruenceClaim(
            claim_id="X-planted",
            source=bracelet_source(5),
            step=10,
            residue=1,
            modulus=2,
            default_n_max=50,
        )
        (report,) = verify([planted])
        assert report.status == "fail"
        assert report.counterexample is not None
        n0 = report.counterexample["n"]
        assert 0 <= n0 <= 5
        # recheck the located index through the definitional product route
        idx = 10 * n0 + 1
        independent = product_series(bracelet_definition_spec(5), idx)
        assert independent.coeffs[idx] % 2 == report.counterexample["value"] == 1


def test_criterion_11_randomized_property_suite():
    with criterion(11, "1000 randomized series-arithmetic invariants",
                   budget_s=10.0):
        rng = random.Random(424242)
        rings = [EXACT, Mod(2), Mod(3), Mod(5), Mod(12), Mod(121)]

        def random_series(ring, order):
            if ring.is_exact:
                cs = [rng.randrange(-40, 41) for _ in range(order + 1)]
            else:
                cs = [rng.randrange(ring.modulus) for _ in range(order + 1)]
            return TruncatedSeries(ring, cs)

        for trial in range(1000):
            ring = rings[trial % len(rings)]
            order = rng.randrange(0, 24)
            x = random_series(ring, order)
            y = random_series(ring, order)
            z = random_series(ring, order)

            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

            cs = x.coeffs[:]
            cs[0] = 1 if not ring.is_unit(cs[0]) else cs[0]
            u = TruncatedSeries(ring, cs)
            assert u * u.invert() == TruncatedSeries.one(ring, order)

            step = rng.randrange(1, max(min(order, 7), 1) + 1)
            target = (order // step) * step
            total = TruncatedSeries.zero(ring, target)
            for residue in range(step):
                cs = progression(x, step, residue, (x.order - residue) // step)
                piece = (
                    TruncatedSeries(ring, cs).inflate(step).resized(target)
                    .shift(residue)
                )
                total = total + piece
            assert total == x.resized(target)

            if ring.is_exact:
                m = rng.choice([2, 3, 5, 9, 121])
                assert (x * y).reduce_mod(m) == x.reduce_mod(m) * y.reduce_mod(m)
                assert (x + y).reduce_mod(m) == x.reduce_mod(m) + y.reduce_mod(m)

            s, t = rng.randrange(1, 4), rng.randrange(1, 4)
            assert x.inflate(s * t) == x.inflate(s).inflate(t)
