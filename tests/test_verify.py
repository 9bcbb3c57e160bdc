"""Verification engine behaviour: statuses, caching, determinism."""

import json
import random
import re
import sys
from pathlib import Path

import pytest

from qbracelet.claims import CongruenceClaim, default_catalog, families, resolve_selection
from qbracelet.generators import bracelet_definition_spec
from qbracelet.products import ProductSpec
from qbracelet.rings import EXACT, Mod
from qbracelet.sources import (
    bracelet_source,
    euler_source,
    expand_source,
    lregular_source,
    parse_source,
    partition_source,
    product_source,
)
from qbracelet.series import TruncatedSeries
from qbracelet.verify import (
    SeriesCache,
    issue_report,
    order_cap,
    progression,
    reports_to_json,
    vanishing_bits,
    vanishing_progressions,
    verify,
)


def make_claim(**kw):
    base = dict(
        claim_id="X1",
        source=bracelet_source(5),
        step=10,
        residue=6,
        modulus=2,
        default_n_max=50,
    )
    base.update(kw)
    return CongruenceClaim(**base)


def test_pass_report_fields():
    (report,) = verify([make_claim()])
    assert report.status == "pass"
    assert report.claim_id == "X1"
    assert report.n_checked == 50
    assert report.truncation == 506
    assert report.counterexample is None


def test_planted_false_claim_fails_with_counterexample():
    claim = make_claim(claim_id="X-false", residue=1)
    (report,) = verify([claim])
    assert report.status == "fail"
    assert report.counterexample is not None
    n0 = report.counterexample["n"]
    assert n0 <= 5
    assert report.counterexample["value"] % 2 == 1


def test_counterexample_is_recheckable():
    claim = make_claim(claim_id="X-false", residue=1)
    (report,) = verify([claim])
    n0 = report.counterexample["n"]
    cache = SeriesCache()
    series = cache.get(bracelet_source(5), Mod(2), 10 * n0 + 1)
    assert series.coeffs[10 * n0 + 1] == report.counterexample["value"]


def test_guarded_claim_detects_vanishing_constant():
    # p(5n+4) ≡ 0 (mod 5) holds everywhere, so a constant right side of 1
    # fails at n = 0, where p(4) - 1 ≡ -1 ≡ 4 (mod 5)
    claim = make_claim(
        claim_id="X-guard",
        source=partition_source(),
        step=5,
        residue=4,
        modulus=5,
        rhs_source=product_source(ProductSpec()),
        default_n_max=20,
    )
    (report,) = verify([claim])
    assert report.status == "fail"
    assert report.counterexample == {"n": 0, "value": 4}
    assert report.message == ""


@pytest.mark.parametrize("p, a", [(5, 1), (7, 1), (11, 1), (5, 2)])
def test_c19_constant_and_its_negation(p, a):
    # epsilon_p is -1 for p = 5, 7 and +1 for p = 11; at p = 5, a = 2 the
    # sign is (-1)^2.  Negating it must fail at n = 0.
    claim = families()["C19"].instantiate(p=p, a=a)
    cache = SeriesCache()
    (report,) = verify([claim], cache=cache)
    assert (report.status, report.n_checked) == ("pass", 300)
    negated = CongruenceClaim(**{**claim._asdict(), "rhs_sign": -claim.rhs_sign})
    (report,) = verify([negated], cache=cache)
    assert report.status == "fail"
    assert report.counterexample == {"n": 0, "value": (2 * claim.rhs_sign) % p}


def test_order_cap_produces_error_report():
    claim = make_claim(default_n_max=10_000)
    (report,) = verify([claim])
    assert report.status == "error"
    assert "exceeds" in report.message
    assert report.truncation == 10 * 10_000 + 6


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("QBRACELET_ORDER_CAP", "200")
    assert order_cap(Mod(2)) == 200
    assert order_cap(EXACT) == 200
    (report,) = verify([make_claim()])
    assert report.status == "error"


@pytest.mark.parametrize("raw", ["abc", "-1"])
def test_env_cap_must_be_a_nonnegative_integer(monkeypatch, raw):
    monkeypatch.setenv("QBRACELET_ORDER_CAP", raw)
    for ring in (EXACT, Mod(2)):
        with pytest.raises(ValueError, match="QBRACELET_ORDER_CAP"):
            order_cap(ring)


def test_verify_rejects_negative_n_max():
    with pytest.raises(ValueError, match=">= 0"):
        verify([make_claim()], n_max=-1)


def test_series_cache_shared_across_claims():
    claims, _ = resolve_selection(["C6", "C7"])
    cache = SeriesCache()
    verify(claims, cache=cache)
    built = [b for b in cache.builds if b[0] == "bracelet:5"]
    assert len(built) == 1  # one expansion serves C6[B=6], C6[B=8] and C7


def test_full_catalog_expands_each_source_ring_once():
    cache = SeriesCache()
    reports = verify(default_catalog(), cache=cache)
    assert all(r.status == "pass" for r in reports)
    keys = [(src, ring) for src, ring, _ in cache.builds]
    assert len(keys) == len(set(keys))


def test_cache_grows_monotonically():
    cache = SeriesCache()
    small = cache.get(euler_source(1), Mod(2), 10)
    big = cache.get(euler_source(1), Mod(2), 20)
    again = cache.get(euler_source(1), Mod(2), 5)
    assert small.order == 10
    assert big.order == 20
    assert again is big
    assert len(cache.builds) == 2


def test_reports_sorted_by_claim_id_and_deterministic():
    claims, _ = resolve_selection(["C20", "C1", "C6"])
    r1 = verify(claims)
    r2 = verify(claims)
    ids = [r.claim_id for r in r1]
    assert ids == sorted(ids, key=lambda s: (int(s[1:].split("[")[0]), s))

    def strip(reports):
        out = []
        for r in json.loads(reports_to_json(reports)):
            r.pop("elapsed_ms")
            out.append(r)
        return out

    assert strip(r1) == strip(r2)


def test_json_schema_keys():
    (report,) = verify([make_claim()])
    obj = report.to_json_obj()
    assert set(obj) == {
        "claim_id", "params", "status", "n_checked", "truncation",
        "counterexample", "elapsed_ms",
    }


def test_issue_report_carries_status():
    _, issues = resolve_selection(["C16[p=5,r=1,a=1,j=1]"])
    (issue,) = issues
    report = issue_report(issue)
    assert report.status == "vacuous"
    assert report.claim_id == "C16[p=5,r=1,a=1,j=1]"


def test_nmax_override_applies_to_all_claims():
    claim = make_claim()
    (report,) = verify([claim], n_max=7)
    assert report.n_checked == 7
    assert report.truncation == 76


def test_claim_default_n_max_is_used_as_given():
    (report,) = verify([make_claim(default_n_max=0)])
    assert report.n_checked == 0
    assert report.truncation == 6


def test_progression_allows_residue_past_step():
    series = SeriesCache().get(partition_source(), EXACT, 9)
    assert progression(series, 2, 3, 3) == [3, 7, 15, 30]  # p(3), p(5), p(7), p(9)
    claim = families()["C10"].instantiate(p=17, a=1, i=16)  # residue 1425 > step 1156
    (report,) = verify([claim])
    assert (report.status, report.truncation) == ("pass", 3 * 1156 + 1425)


def test_progression_short_of_n_max_is_an_error():
    # 3n+2 to n=5 needs order 17; a slice would stop at n=2 without a word
    series = TruncatedSeries(EXACT, list(range(11)))
    assert progression(series, 3, 1, 3) == [1, 4, 7, 10]  # reaches order 10
    with pytest.raises(ValueError, match="exceeds series order 10"):
        progression(series, 3, 2, 5)


def test_progression_refuses_a_negative_n_max():
    # the slice end would wrap: [1] here instead of an error
    with pytest.raises(ValueError, match="n_max must be >= 0, got -3"):
        progression(TruncatedSeries(EXACT, [1, 2, 3]), 1, 0, -3)


@pytest.mark.parametrize(
    "step, residue, n_max", [(-1, 5, 3), (1, -2, 0), (0, 3, 3), (0, 0, 0), (-2, -1, 0)]
)
def test_progression_refuses_a_step_below_one_or_a_negative_residue(step, residue, n_max):
    # a slice of (q;q) to q^20 gives [1, 0] for -1n+5 to n=3, the
    # coefficient of q^19 for 1n-2, and Python's own error for step 0
    series = SeriesCache().get(euler_source(1), EXACT, 20)
    message = f"progression {step}n+{residue} needs step >= 1 and residue >= 0"
    with pytest.raises(ValueError) as excinfo:
        progression(series, step, residue, n_max)
    assert str(excinfo.value) == message


def test_progression_refuses_n_max_minus_one():
    # 5n+4 to n=-1 would be the empty list
    x = TruncatedSeries(EXACT, list(range(10)))
    with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
        progression(x, 5, 4, -1)


def _vanishing_by_progression(series, amax, n_max):
    """The reference: every (step, residue) read one progression at a time."""
    return [
        (step, residue)
        for step in range(1, amax + 1)
        for residue in range(step)
        if not any(progression(series, step, residue, n_max))
    ]


def _random_series(rng, modulus, order, density, zeros):
    """A series whose coefficients are nonzero with probability DENSITY,
    with the progressions ZEROS (step, residue) set to zero; the nonzero
    ones include 256 (a zero low byte) and modulus - 1."""
    top = 10**30 if modulus is None else modulus
    pool = [1, top - 1, 256 % top or 1]
    cs = [
        (rng.choice(pool) if rng.random() < 0.5 else rng.randrange(1, top))
        * (rng.choice((1, -1)) if modulus is None else 1)
        if rng.random() < density else 0
        for _ in range(order + 1)
    ]
    for step, residue in zeros:
        cs[residue::step] = [0] * len(cs[residue::step])
    return TruncatedSeries(EXACT if modulus is None else Mod(modulus), cs)


@pytest.mark.parametrize("modulus", [2, 3, 25, 255, 256, 257, 1_000_003, None])
@pytest.mark.parametrize("density", [0.03, 0.5, 1.0])
@pytest.mark.parametrize("amax, n_max", [(1, 0), (1, 7), (6, 0), (7, 9), (12, 30)])
def test_vanishing_progressions_match_the_progression_reader(modulus, density, amax, n_max):
    rng = random.Random(f"{modulus}-{density}-{amax}-{n_max}")
    order = amax * n_max + amax - 1  # exactly the order the search needs
    for planted in range(4):  # progressions set to zero, none the first time
        zeros = [(a, rng.randrange(a)) for a in rng.choices(range(1, amax + 1), k=planted)]
        series = _random_series(rng, modulus, order, density, zeros)
        expected = _vanishing_by_progression(series, amax, n_max)
        assert vanishing_progressions(series, amax, n_max) == expected
        longer = TruncatedSeries(series.ring, series.coeffs + [1] * 5)
        assert vanishing_progressions(longer, amax, n_max) == expected


def test_vanishing_progressions_of_b5_mod_2_include_the_paper_s():
    series = SeriesCache().get(bracelet_source(5), Mod(2), 10 * 40 + 9)
    found = vanishing_progressions(series, 10, 40)
    assert found == _vanishing_by_progression(series, 10, 40)
    assert {(10, 6), (10, 8)} <= set(found)


@pytest.mark.parametrize("modulus", [2, 257, None])
@pytest.mark.parametrize(
    "amax, n_max, order, message",
    [
        (7, 9, 68, "progression 7n+6 to n=9 exceeds series order 68"),  # one short
        (1, 3, 2, "progression 1n+0 to n=3 exceeds series order 2"),
        (3, -1, 10, "progression n_max must be >= 0, got -1"),
        (0, 4, 10, "progression 0n+-1 needs step >= 1 and residue >= 0"),
    ],
)
def test_vanishing_progressions_refuse_what_progression_refuses(
    modulus, amax, n_max, order, message
):
    ring = EXACT if modulus is None else Mod(modulus)
    series = TruncatedSeries(ring, [0] * (order + 1))
    with pytest.raises(ValueError) as excinfo:
        vanishing_progressions(series, amax, n_max)
    assert str(excinfo.value) == message
    with pytest.raises(ValueError) as excinfo:  # the bitset entry point
        vanishing_bits(0, order, amax, n_max)
    assert str(excinfo.value) == message
    with pytest.raises(ValueError) as excinfo:
        progression(series, amax, amax - 1, n_max)
    assert str(excinfo.value) == message


def test_series_congruence_failure_reports_residual():
    # deliberately wrong sign on C14's right-hand side
    claims, _ = resolve_selection(["C14[p=5,r=1,a=1]"])
    good = claims[0]
    bad = CongruenceClaim(
        claim_id="X-sign",
        source=good.source,
        step=good.step,
        residue=good.residue,
        modulus=good.modulus,
        rhs_source=good.rhs_source,
        rhs_sign=-good.rhs_sign,
        default_n_max=50,
    )
    (report,) = verify([bad])
    assert report.status == "fail"
    # at n = 0 the sides are sign * 1 and -sign * 1, so the residual is 2 * sign
    assert report.counterexample == {"n": 0, "value": (2 * good.rhs_sign) % 5}


GOLDEN_VERIFY_ALL = (
    Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "verify_all.json"
)


def test_verify_all_matches_the_golden_reports():
    # the fixed point: every report of `verify --all` but its timing
    text = reports_to_json(verify(default_catalog()))
    stripped = re.sub(r'"elapsed_ms": [^,\n]+', '"elapsed_ms": null', text)
    assert (stripped + "\n").encode() == GOLDEN_VERIFY_ALL.read_bytes()


ALIAS_PAIRS = [
    ("product:-1,2,2,1;1,1,3,-2;1,4,4,1", "product:1,4,4,1;-1,2,2,1;1,1,3,-2"),
    ("product:-1,5,5,1;-1,1,1,-1", "lregular:5"),
    ("product:" + bracelet_definition_spec(7).key(), "bracelet:7"),
]


@pytest.mark.parametrize("first, second", ALIAS_PAIRS)
def test_cache_builds_aliases_once(first, second):
    cache = SeriesCache()
    built = cache.get(parse_source(first), Mod(5), 200)
    assert cache.get(parse_source(second), Mod(5), 150) is built
    assert cache.get(parse_source(second), Mod(5), 200) is built
    assert cache.builds == [(first, "mod5", 200)]


def test_build_plan_shares_aliased_sources():
    definition = parse_source("product:" + bracelet_definition_spec(5).key())
    claims = [
        make_claim(),
        make_claim(claim_id="X2", source=definition, default_n_max=60),
    ]
    cache = SeriesCache()
    reports = verify(claims, cache=cache)
    assert [r.status for r in reports] == ["pass", "pass"]
    assert len(cache.builds) == 1
    assert cache.builds[0][1:] == ("mod2", 606)


def test_a_claim_too_long_to_print_is_an_error_report():
    # neither the statement nor the truncation of this claim can be printed
    (report,) = verify([make_claim(step=10**5000, default_n_max=0)])
    assert (report.status, report.truncation, report.description) == ("error", 0, "")
    assert report.message == f"step has more than {sys.get_int_max_str_digits()} digits"
    reports_to_json([report])
    (report,) = verify([make_claim(modulus=10**5000)])
    assert report.message == f"modulus has more than {sys.get_int_max_str_digits()} digits"


def _two_source_claims():
    # X1 reads bracelet:5; X2 partition; X3 bracelet:5 and, on its right
    # side, lregular:5 (B_5(10n+2) == b_5(n) mod 2)
    return [
        make_claim(),
        make_claim(claim_id="X2", source=partition_source(), step=5, residue=4,
                   modulus=5),
        make_claim(claim_id="X3", residue=2, rhs_source=lregular_source(5)),
    ]


def _json_rows(reports):
    return [{**row, "elapsed_ms": None} for row in json.loads(reports_to_json(reports))]


@pytest.mark.parametrize(
    "broken, errors",
    [("bracelet:5", {"X1", "X3"}), ("lregular:5", {"X3"}), ("partition", {"X2"})],
)
def test_a_failed_build_errors_only_the_claims_that_need_it(monkeypatch, broken, errors):
    engine = sys.modules["qbracelet.verify"]  # qbracelet.verify is the function

    def expand(source, ring, order):
        if source.key() == broken:
            raise RuntimeError(f"cannot build {broken}")
        return expand_source(source, ring, order)

    good = verify(_two_source_claims())
    assert [r.status for r in good] == ["pass"] * 3
    monkeypatch.setattr(engine, "expand_source", expand)
    reports = verify(_two_source_claims())
    assert [r.claim_id for r in reports] == ["X1", "X2", "X3"]
    for report, expect, row in zip(reports, good, _json_rows(good)):
        if report.claim_id in errors:
            assert (report.status, report.message) == (
                "error", f"RuntimeError: cannot build {broken}"
            )
            assert (report.n_checked, report.elapsed_ms) == (0, 0.0)
            assert report.truncation == expect.truncation
        else:
            assert report.status == "pass"
            assert _json_rows([report]) == [row]
    assert [set(row) for row in _json_rows(reports)] == [set(row) for row in _json_rows(good)]


def test_a_failed_comparison_is_an_error_report(monkeypatch):
    engine = sys.modules["qbracelet.verify"]

    def short(source, ring, order):  # one coefficient short of the request
        series = expand_source(source, ring, order)
        return series.resized(order - 1) if source.key() == "bracelet:5" else series

    monkeypatch.setattr(engine, "expand_source", short)
    reports = verify(_two_source_claims())
    # X3 needs only 10*50+2 of the 505 coefficients built for X1's 10*50+6
    assert [(r.claim_id, r.status) for r in reports] == [
        ("X1", "error"), ("X2", "pass"), ("X3", "pass"),
    ]
    assert reports[0].message == (
        "ValueError: progression 10n+6 to n=50 exceeds series order 505"
    )
    assert reports[0].n_checked == 0
