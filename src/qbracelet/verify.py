"""Verification engine: expands claim sources once per (source, ring) pair
and checks every claim as one progression compared against a signed
series (all zeros for a vanishing claim).

Reports never abort the run; per-claim problems (order cap exceeded,
non-invertible constant terms, ...) become ``error`` reports.  Every
series is built once per (normal form, ring) pair before any claim is
evaluated, and reports come out ordered by claim id.

A run has two inputs: the claims and ``n_max`` (each claim's own default
when None).  How far one series may be expanded is ``order_cap(ring)``:
``QBRACELET_ORDER_CAP`` when set, else 2,000 over Z and 50,000 mod M.
"""

from __future__ import annotations

import json
import os
import time
from typing import NamedTuple

from .claims import (
    CongruenceClaim, SelectionIssue, claim_sort_key, int_str_limit, printable,
)
from .rings import CoefficientRing
from .series import TruncatedSeries
from .sources import SeriesSource, expand_source

ORDER_CAP_ENV = "QBRACELET_ORDER_CAP"

DEFAULT_ORDER_CAP_EXACT = 2_000
DEFAULT_ORDER_CAP_MOD = 50_000


def order_cap(ring: CoefficientRing) -> int:
    """The largest order any one series over ``ring`` may be expanded to:
    ``QBRACELET_ORDER_CAP`` when set, else the ring's default."""
    raw = os.environ.get(ORDER_CAP_ENV)
    if raw is None:
        return DEFAULT_ORDER_CAP_EXACT if ring.is_exact else DEFAULT_ORDER_CAP_MOD
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{ORDER_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"{ORDER_CAP_ENV} must be >= 0, got {cap}")
    return cap


class VerificationReport(NamedTuple):
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


def _progression_end(order: int, step: int, residue: int, n_max: int) -> int:
    """The index ``step * n_max + residue`` of the last coefficient of a
    progression, after refusing a step below 1, a negative residue or
    ``n_max``, and a series of this order too short to reach it."""
    if step < 1 or residue < 0:
        raise ValueError(
            f"progression {step}n+{residue} needs step >= 1 and residue >= 0"
        )
    if n_max < 0:
        raise ValueError(f"progression n_max must be >= 0, got {n_max}")
    last = step * n_max + residue
    if last > order:
        raise ValueError(
            f"progression {step}n+{residue} to n={n_max} exceeds series order "
            f"{order}"
        )
    return last


def progression(series: TruncatedSeries, step: int, residue: int, n_max: int) -> list[int]:
    """Coefficients at ``step * n + residue`` for n = 0..n_max.

    ``residue >= step`` is allowed, since large family parameters
    legitimately produce it.  A step below 1, a negative residue or
    ``n_max``, or a series too short to reach n = n_max, is an error, never
    a shorter or wrong list.
    """
    last = _progression_end(series.order, step, residue, n_max)
    return series.coeffs[residue : last + 1 : step]


# byte 0 -> ASCII "0", any other byte -> "1"
_NONZERO_DIGIT = bytes([48] + [49] * 255)


def vanishing_progressions(
    series: TruncatedSeries, amax: int, n_max: int
) -> list[tuple[int, int]]:
    """Every (step, residue), 1 <= step <= amax and 0 <= residue < step,
    whose progression ``step * n + residue`` is zero for n = 0..n_max, in
    that order: the pairs for which ``progression`` is all zeros.  Refuses
    what ``progression`` refuses for step ``amax`` and residue
    ``amax - 1``, then reads the coefficients once into an int whose bit i
    is set iff c_i != 0 and folds it by :func:`vanishing_bits`."""
    last = _progression_end(series.order, amax, amax - 1, n_max)
    cs = series.coeffs[: last + 1]
    m = series.ring.modulus
    # mod M <= 256 the canonical coefficients are bytes already
    small = m is not None and m <= 256
    digits = bytes(cs if small else map(bool, cs)).translate(_NONZERO_DIGIT)
    return vanishing_bits(int(digits[::-1], 2), last, amax, n_max)


def vanishing_bits(
    nonzero: int, order: int, amax: int, n_max: int
) -> list[tuple[int, int]]:
    """:func:`vanishing_progressions` of a series of this order given as a
    nonnegative int whose bit i is set iff c_i != 0 (over Z/2 the
    coefficients themselves).  For each step a, its low a (n_max + 1) bits
    are folded in half, at a multiple of a, until a bits remain: bit b of
    the result is the OR over the progression a n + b, so its zero bits are
    the residues."""
    _progression_end(order, amax, amax - 1, n_max)
    found = []
    for a in range(1, amax + 1):
        blocks = n_max + 1
        bits = nonzero & ((1 << a * blocks) - 1)
        while blocks > 1:
            blocks = (blocks + 1) // 2
            high = bits >> a * blocks
            bits ^= high << a * blocks
            bits |= high
        found += ((a, b) for b in range(a) if not bits >> b & 1)
    return found


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
        sign, m, rhs = claim.rhs_sign, ring.modulus, rest[0]
        right = [sign * c for c in rhs] if m is None else [sign * c % m for c in rhs]
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
    n_max: int | None = None,
    cache: SeriesCache | None = None,
) -> list[VerificationReport]:
    """Check every claim to ``n_max`` (each claim's own default when None)
    and return one report per claim, ordered by id."""
    if n_max is not None and n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    cache = cache if cache is not None else SeriesCache()

    # Plan: each claim's sides once; per (normal form, ring), the largest
    # order any claim within the caps needs.
    jobs = []
    plan: dict[tuple, tuple[SeriesSource, CoefficientRing, int]] = {}
    for claim in sorted(claims, key=claim_sort_key):
        claim_n_max = claim.default_n_max if n_max is None else n_max
        ring = CoefficientRing(claim.modulus)
        sides = _sides(claim, claim_n_max)
        cap = order_cap(ring)
        over = [order for *_, order in sides if order > cap]
        numbers = {"step": claim.step, "modulus": claim.modulus or 0,
                   "truncation": sides[0][3]}
        long = [name for name, value in numbers.items() if not printable(value)]
        problem = ""
        if long:  # no report, text, JSON or CSV could show the claim
            problem = f"{long[0]} has more than {int_str_limit()} digits"
        elif over:
            problem = f"truncation {over[0]} exceeds the {ring.key()} order cap {cap}"
        jobs.append((claim, claim_n_max, ring, sides, problem, not long))
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
    for claim, claim_n_max, ring, sides, problem, shown in jobs:
        start = time.perf_counter()
        if not problem:
            errors = (build_errors.get(_series_key(side[0], ring)) for side in sides)
            problem = next(filter(None, errors), "")
        status, counterexample = "error", None
        if not problem:
            try:
                status, counterexample = _compare(
                    claim, claim_n_max, ring, sides, cache
                )
            except Exception as exc:
                problem = f"{type(exc).__name__}: {exc}"
        elapsed = 0.0 if status == "error" else (time.perf_counter() - start) * 1000.0
        reports.append(
            VerificationReport(
                claim.claim_id,
                claim.params_dict(),
                status,
                n_checked=0 if status == "error" else claim_n_max,
                truncation=sides[0][3] if shown else 0,
                counterexample=counterexample,
                elapsed_ms=round(elapsed, 3),
                description=claim.describe() if shown else "",
                message=problem,
            )
        )
    return reports
