"""Verification engine behaviour: statuses, caching, determinism."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from qbracelet.claims import CongruenceClaim, default_catalog, families, resolve_selection
from qbracelet.generators import bracelet_definition_spec
from qbracelet.products import ProductSpec
from qbracelet.rings import EXACT, Mod
from qbracelet.sources import (
    bracelet_source,
    euler_source,
    parse_source,
    partition_source,
    product_source,
)
from qbracelet.verify import (
    RunConfig,
    SeriesCache,
    issue_report,
    progression,
    reports_to_json,
    verify,
)


def make_claim(**kw):
    base = dict(
        claim_id="X1",
        kind="vanishing",
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
        kind="series",
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
    negated = dataclasses.replace(claim, rhs_sign=-claim.rhs_sign)
    (report,) = verify([negated], cache=cache)
    assert report.status == "fail"
    assert report.counterexample == {"n": 0, "value": (2 * claim.rhs_sign) % p}


def test_order_cap_produces_error_report():
    claim = make_claim(default_n_max=10_000)
    (report,) = verify([claim], RunConfig())
    assert report.status == "error"
    assert "exceeds" in report.message
    assert report.truncation == 10 * 10_000 + 6


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("QBRACELET_ORDER_CAP", "200")
    config = RunConfig()
    assert config.order_cap_mod == 200
    assert config.order_cap_exact == 200
    (report,) = verify([make_claim()], config)
    assert report.status == "error"


def test_env_cap_replaces_only_defaults(monkeypatch):
    monkeypatch.setenv("QBRACELET_ORDER_CAP", "10")
    config = RunConfig(order_cap_mod=99_999)
    assert config.order_cap_mod == 99_999
    assert config.order_cap_exact == 10


@pytest.mark.parametrize("raw", ["abc", "-1"])
def test_env_cap_must_be_a_nonnegative_integer(monkeypatch, raw):
    monkeypatch.setenv("QBRACELET_ORDER_CAP", raw)
    with pytest.raises(ValueError, match="QBRACELET_ORDER_CAP"):
        RunConfig()


@pytest.mark.parametrize(
    "kw", [{"n_max": -1}, {"order_cap_exact": -1}, {"order_cap_mod": -1}]
)
def test_run_config_rejects_negative_values(kw):
    with pytest.raises(ValueError, match=">= 0"):
        RunConfig(**kw)


def test_series_cache_shared_across_claims():
    claims, _ = resolve_selection(["C6", "C7"])
    cache = SeriesCache()
    verify(claims, RunConfig(), cache=cache)
    built = [b for b in cache.builds if b[0] == "bracelet:5"]
    assert len(built) == 1  # one expansion serves C6[B=6], C6[B=8] and C7


def test_full_catalog_expands_each_source_ring_once():
    cache = SeriesCache()
    reports = verify(default_catalog(), RunConfig(), cache=cache)
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
    (report,) = verify([claim], RunConfig(n_max=7))
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


def test_series_congruence_failure_reports_residual():
    # deliberately wrong sign on C14's right-hand side
    claims, _ = resolve_selection(["C14[p=5,r=1,a=1]"])
    good = claims[0]
    bad = CongruenceClaim(
        claim_id="X-sign",
        kind="series",
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
