"""Verification engine: expands claim sources once per (source, ring) pair
and checks every claim as one progression compared against a signed
series (all zeros for a vanishing claim).

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

from .claims import CongruenceClaim, SelectionIssue, claim_sort_key
from .rings import EXACT, CoefficientRing, Mod
from .series import TruncatedSeries
from .sources import SeriesSource, expand_source

ORDER_CAP_ENV = "QBRACELET_ORDER_CAP"

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
        return claim.default_n_max if self.n_max is None else self.n_max


@dataclass
class VerificationReport:
    claim_id: str
    params: dict[str, int]
    status: str  # pass | fail | vacuous | error
    n_checked: int = 0
    truncation: int = 0
    counterexample: dict[str, int] | None = None
    elapsed_ms: float = 0.0
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


def progression(series: TruncatedSeries, step: int, residue: int, n_max: int) -> list[int]:
    """Coefficients at ``step * n + residue`` for n = 0..n_max.

    Unlike ``TruncatedSeries.dissect`` this allows ``residue >= step``,
    which large family parameters legitimately produce.
    """
    return series.coeffs[residue : step * n_max + residue + 1 : step]


Side = tuple[SeriesSource, int, int, int]  # source, step, residue, order


def _sides(claim: CongruenceClaim, n_max: int) -> list[Side]:
    """(source, step, residue, order) of the left side and, unless the claim
    is vanishing, of the right side; each order reaches n = n_max."""
    sides = [(claim.source, claim.step, claim.residue)]
    if claim.kind != "vanishing":
        sides.append((claim.rhs_source, 1, 0))
    return [(source, step, residue, step * n_max + residue)
            for source, step, residue in sides]


def _compare(
    claim: CongruenceClaim,
    n_max: int,
    ring: CoefficientRing,
    sides: list[Side],
    cache: SeriesCache,
) -> tuple[str, dict[str, int] | None]:
    """Check ``lhs(A n + B) == sign * rhs(n)`` for 0 <= n <= n_max; a
    vanishing claim's right side is 0.  Returns (status, counterexample)."""
    left, *rest = [
        progression(cache.get(source, ring, order), step, residue, n_max)
        for source, step, residue, order in sides
    ]
    if rest:
        right = [ring.normalize(claim.rhs_sign * c) for c in rest[0]]
    else:
        right = [0] * len(left)
    for n in range(n_max + 1):
        if left[n] != right[n]:
            return "fail", {"n": n, "value": ring.normalize(left[n] - right[n])}
    return "pass", None


def issue_report(issue: SelectionIssue) -> VerificationReport:
    return VerificationReport(issue.claim_id, {}, issue.status, message=issue.message)


def verify(
    claims: list[CongruenceClaim],
    config: RunConfig | None = None,
    cache: SeriesCache | None = None,
) -> list[VerificationReport]:
    """Check every claim and return one report per claim, ordered by id."""
    config = config or RunConfig()
    cache = cache if cache is not None else SeriesCache()

    # Plan: each claim's sides once; per (normal form, ring), the largest
    # order any claim within the caps needs.
    jobs = []
    plan: dict[tuple, tuple[SeriesSource, CoefficientRing, int]] = {}
    for claim in sorted(claims, key=claim_sort_key):
        n_max = config.n_max_for(claim)
        ring = EXACT if claim.kind == "identity" else Mod(claim.modulus)
        sides = _sides(claim, n_max)
        cap = config.cap_for(ring)
        over = [order for *_, order in sides if order > cap]
        problem = ""
        if over:
            problem = f"truncation {over[0]} exceeds the {ring.key()} order cap {cap}"
        jobs.append((claim, n_max, ring, sides, problem))
        if problem:
            continue
        for source, *_, order in sides:
            key = _series_key(source, ring)
            if key not in plan or plan[key][2] < order:
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

    reports = []
    for claim, n_max, ring, sides, problem in jobs:
        start = time.perf_counter()
        errors = [build_errors.get(_series_key(side[0], ring)) for side in sides]
        problem = problem or next(filter(None, errors), "")
        status, counterexample = "error", None
        if not problem:
            try:
                status, counterexample = _compare(claim, n_max, ring, sides, cache)
            except Exception as exc:
                problem = f"{type(exc).__name__}: {exc}"
        elapsed = 0.0 if status == "error" else (time.perf_counter() - start) * 1000.0
        reports.append(
            VerificationReport(
                claim.claim_id,
                claim.params_dict(),
                status,
                n_checked=0 if status == "error" else n_max,
                truncation=sides[0][3],
                counterexample=counterexample,
                elapsed_ms=round(elapsed, 3),
                description=claim.describe(),
                message=problem,
            )
        )
    return reports
