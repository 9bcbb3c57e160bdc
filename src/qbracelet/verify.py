"""Verification engine: expands claim sources once per (source, ring) pair
and checks every claim against its stated progression and modulus.

Reports never abort the run; per-claim problems (order cap exceeded,
non-invertible constant terms, ...) become ``error`` reports.  Every
series is built once per (normal form, ring) pair before any claim is
evaluated, and reports come out ordered by claim id.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from .claims import CongruenceClaim, SelectionIssue, claim_sort_key, required_truncation
from .rings import EXACT, CoefficientRing, Mod
from .series import TruncatedSeries
from .sources import SeriesSource, expand_source

ORDER_CAP_ENV = "QBRACELET_ORDER_CAP"

DEFAULT_N_MAX = 200
DEFAULT_ORDER_CAP_EXACT = 2_000
DEFAULT_ORDER_CAP_MOD = 50_000


def _env_cap() -> int | None:
    raw = os.environ.get(ORDER_CAP_ENV)
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{ORDER_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"{ORDER_CAP_ENV} must be >= 0, got {cap}")
    return cap


def _default_cap(default: int):
    def factory() -> int:
        cap = _env_cap()
        return default if cap is None else cap

    return field(default_factory=factory)


@dataclass
class RunConfig:
    """Knobs for a verification run.

    ``n_max = None`` means every claim uses its own default; the order caps
    bound how far any one series may be expanded (the environment variable
    ``QBRACELET_ORDER_CAP`` replaces both defaults when set, never a cap
    passed explicitly).
    """

    n_max: int | None = None
    order_cap_exact: int = _default_cap(DEFAULT_ORDER_CAP_EXACT)
    order_cap_mod: int = _default_cap(DEFAULT_ORDER_CAP_MOD)

    def __post_init__(self) -> None:
        if self.n_max is not None and self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        for name in ("order_cap_exact", "order_cap_mod"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def cap_for(self, ring: CoefficientRing) -> int:
        return self.order_cap_exact if ring.is_exact else self.order_cap_mod

    def n_max_for(self, claim: CongruenceClaim) -> int:
        if self.n_max is not None:
            return self.n_max
        return claim.default_n_max if claim.default_n_max else DEFAULT_N_MAX


@dataclass
class VerificationReport:
    claim_id: str
    params: dict[str, int]
    status: str  # pass | fail | vacuous | error
    n_checked: int
    truncation: int
    counterexample: dict[str, int] | None
    elapsed_ms: float
    description: str = ""
    message: str = ""

    def to_json_obj(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "params": self.params,
            "status": self.status,
            "n_checked": self.n_checked,
            "truncation": self.truncation,
            "counterexample": self.counterexample,
            "elapsed_ms": self.elapsed_ms,
        }


def reports_to_json(reports: list[VerificationReport]) -> str:
    return json.dumps(
        [r.to_json_obj() for r in reports], sort_keys=True, indent=2
    )


def _series_key(source: SeriesSource, ring: CoefficientRing) -> tuple:
    return source.identity(), ring.key()


class SeriesCache:
    """(normal form, ring) -> expanded series, grown monotonically in order.

    Sources that spell the same product (a permuted ``product:`` spec,
    ``lregular:5`` and its defining ``product:``) share one entry; each
    build is logged as (source key, ring key, order) of the request that
    made it.
    """

    def __init__(self) -> None:
        self._store: dict[tuple, TruncatedSeries] = {}
        self.builds: list[tuple[str, str, int]] = []

    def get(
        self, source: SeriesSource, ring: CoefficientRing, order: int
    ) -> TruncatedSeries:
        key = _series_key(source, ring)
        cached = self._store.get(key)
        if cached is None or cached.order < order:
            cached = expand_source(source, ring, order)
            self._store[key] = cached
            self.builds.append((source.key(), ring.key(), order))
        return cached


def _claim_ring(claim: CongruenceClaim) -> CoefficientRing:
    return EXACT if claim.kind == "identity" else Mod(claim.modulus)


def _claim_needs(
    claim: CongruenceClaim, n_max: int
) -> list[tuple[SeriesSource, CoefficientRing, int]]:
    ring = _claim_ring(claim)
    needs = [(claim.source, ring, required_truncation(claim, n_max))]
    if claim.kind in ("series", "identity"):
        needs.append(
            (claim.rhs_source, ring, claim.rhs_step * n_max + claim.rhs_residue)
        )
    return needs


def _progression(series: TruncatedSeries, step: int, residue: int, n_max: int) -> list[int]:
    # plain index walk: unlike TruncatedSeries.dissect this tolerates
    # residues >= step, which large family parameters legitimately produce
    return [series.coeffs[step * n + residue] for n in range(n_max + 1)]


def _evaluate(
    claim: CongruenceClaim, n_max: int, cache: SeriesCache
) -> VerificationReport:
    start = time.perf_counter()
    ring = _claim_ring(claim)
    truncation = required_truncation(claim, n_max)
    lhs = cache.get(claim.source, ring, truncation)
    status = "pass"
    counterexample = None
    message = ""

    if claim.kind == "vanishing":
        if claim.guard_nonzero:
            c0 = lhs.coeffs[claim.residue]
            if c0 == 0:
                status = "fail"
                counterexample = {"n": 0, "value": 0}
                message = "guard violated: coefficient at n=0 is 0, expected a unit"
        if status == "pass":
            for n in range(claim.start_n, n_max + 1):
                value = lhs.coeffs[claim.step * n + claim.residue]
                if value != 0:
                    status = "fail"
                    counterexample = {"n": n, "value": value}
                    break
    else:
        rhs_order = claim.rhs_step * n_max + claim.rhs_residue
        rhs = cache.get(claim.rhs_source, ring, rhs_order)
        left = _progression(lhs, claim.step, claim.residue, n_max)
        right = _progression(rhs, claim.rhs_step, claim.rhs_residue, n_max)
        if claim.rhs_sign != 1:
            right = [ring.normalize(claim.rhs_sign * c) for c in right]
        for n, (a, b) in enumerate(zip(left, right)):
            if a != b:
                status = "fail"
                counterexample = {"n": n, "value": ring.normalize(a - b)}
                break

    elapsed = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        claim_id=claim.claim_id,
        params=claim.params_dict(),
        status=status,
        n_checked=n_max,
        truncation=truncation,
        counterexample=counterexample,
        elapsed_ms=round(elapsed, 3),
        description=claim.describe(),
        message=message,
    )


def _error_report(
    claim: CongruenceClaim, n_max: int, message: str
) -> VerificationReport:
    return VerificationReport(
        claim_id=claim.claim_id,
        params=claim.params_dict(),
        status="error",
        n_checked=0,
        truncation=required_truncation(claim, n_max),
        counterexample=None,
        elapsed_ms=0.0,
        description=claim.describe(),
        message=message,
    )


def issue_report(issue: SelectionIssue) -> VerificationReport:
    return VerificationReport(
        claim_id=issue.claim_id,
        params={},
        status=issue.status,
        n_checked=0,
        truncation=0,
        counterexample=None,
        elapsed_ms=0.0,
        description="",
        message=issue.message,
    )


def verify(
    claims: list[CongruenceClaim],
    config: RunConfig | None = None,
    cache: SeriesCache | None = None,
) -> list[VerificationReport]:
    """Check every claim and return one report per claim, ordered by id."""
    config = config or RunConfig()
    cache = cache if cache is not None else SeriesCache()
    claims = sorted(claims, key=claim_sort_key)

    # Plan: per (normal form, ring), the largest order any runnable claim needs.
    plan: dict[tuple, tuple[SeriesSource, CoefficientRing, int]] = {}
    capped: dict[str, str] = {}
    for claim in claims:
        needs = _claim_needs(claim, config.n_max_for(claim))
        over = [
            (ring, order)
            for _, ring, order in needs
            if order > config.cap_for(ring)
        ]
        if over:
            ring, order = over[0]
            capped[claim.claim_id] = (
                f"truncation {order} exceeds the {ring.key()} order cap "
                f"{config.cap_for(ring)}"
            )
            continue
        for source, ring, order in needs:
            key = _series_key(source, ring)
            prev = plan.get(key)
            if prev is None or prev[2] < order:
                plan[key] = (source, ring, order)

    # Build every series once, in source-key order, then evaluate.
    build_errors: dict[tuple, str] = {}
    for source, ring, order in sorted(
        plan.values(), key=lambda need: (need[0].key(), need[1].key())
    ):
        try:
            cache.get(source, ring, order)
        except Exception as exc:  # kept in the report, never aborts the run
            build_errors[_series_key(source, ring)] = f"{type(exc).__name__}: {exc}"

    def run_one(claim: CongruenceClaim) -> VerificationReport:
        n_max = config.n_max_for(claim)
        if claim.claim_id in capped:
            return _error_report(claim, n_max, capped[claim.claim_id])
        for source, ring, _ in _claim_needs(claim, n_max):
            err = build_errors.get(_series_key(source, ring))
            if err:
                return _error_report(claim, n_max, err)
        try:
            return _evaluate(claim, n_max, cache)
        except Exception as exc:
            return _error_report(claim, n_max, f"{type(exc).__name__}: {exc}")

    return [run_one(claim) for claim in claims]
