"""Machine-checkable congruence claims and the built-in catalog.

Every claim says that the progression ``lhs(A n + B)`` equals
``sign * rhs(n)``, the whole right series, modulo M; the three kinds differ
only in the right side and the ring:

* ``vanishing``       no right side: the progression is 0 mod M;
* ``series``          the right side is a signed second series, mod M;
* ``identity``        two exact series agree coefficientwise (no modulus).

Every catalog entry is a :class:`ClaimFamily`.  A family without parameters
(C1, C7, C8, C9) has one claim, whose id is the bare family id; C5, C6 and
C20 accept only their tabulated parameter values.  A family's emitter states
only the claim's fields; ``ClaimFamily.instantiate`` adds the id and
``params`` and validates the parameter ranges strictly: out-of-range
parameters raise :class:`InstantiationError`, while parameter sets that make
the whole family empty (an allowed but contentless statement) raise
:class:`VacuousFamilyError` so the harness can report them as vacuous.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .oracles import is_prime, legendre_symbol
from .products import ProductSpec
from .sources import (
    SeriesSource,
    bracelet_source,
    broken_diamond_source,
    euler_source,
    lregular_source,
    partition_source,
    product_source,
    quintic_euler_source,
)
from .theta import PrimeContext


class InstantiationError(ValueError):
    """Family parameters violate the conditions of the underlying theorem."""


class VacuousFamilyError(InstantiationError):
    """The requested parameters make the family empty rather than wrong."""


@dataclass(frozen=True)
class CongruenceClaim:
    claim_id: str
    kind: str  # vanishing | series | identity
    source: SeriesSource
    step: int
    residue: int
    modulus: int | None  # None only for identity claims
    rhs_source: SeriesSource | None = None
    rhs_sign: int = 1
    default_n_max: int = 200
    params: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("vanishing", "series", "identity"):
            raise ValueError(f"{self.claim_id}: unknown claim kind {self.kind!r}")
        if (self.rhs_source is None) != (self.kind == "vanishing"):
            raise ValueError(f"{self.claim_id}: only a vanishing claim has no rhs_source")
        if (self.modulus is None) != (self.kind == "identity"):
            raise ValueError(f"{self.claim_id}: only an identity claim has no modulus")
        if self.modulus is not None and self.modulus < 2:
            raise ValueError(f"{self.claim_id}: modulus must be >= 2, got {self.modulus}")
        if self.step < 1:
            raise ValueError(f"{self.claim_id}: step must be >= 1")
        if min(self.residue, self.default_n_max) < 0:
            raise ValueError(f"{self.claim_id}: residue and n bound must be >= 0")

    def params_dict(self) -> dict[str, int]:
        return dict(self.params)

    def describe(self) -> str:
        """Human-readable statement in conventional congruence notation."""
        a, b = self.step, self.residue
        arg = f"{a}n+{b}" if a != 1 else (f"n+{b}" if b else "n")
        if self.kind == "vanishing":
            return f"{self.source.symbol()}({arg}) ≡ 0 (mod {self.modulus})"
        if self.kind == "series":
            sign = "-" if self.rhs_sign == -1 else ""
            if self.rhs_source.kind in ("product", "euler", "quintic_euler"):
                rhs = f"{sign}{self.rhs_source.symbol()}"
            else:
                rhs = f"{sign}Σ {self.rhs_source.symbol()}(n) q^n"
            return f"Σ {self.source.symbol()}({arg}) q^n ≡ {rhs} (mod {self.modulus})"
        return f"{self.source.symbol()} = {self.rhs_source.symbol()}"


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise InstantiationError(message)


def _exact_div(num: int, den: int, what: str) -> int:
    if num % den != 0:
        raise InstantiationError(f"{what}: {num} is not divisible by {den}")
    return num // den


def _require_prime(p: int, minimum: int = 5) -> None:
    try:
        prime = p >= minimum and is_prime(p)
    except ValueError as exc:  # beyond the exact range of the primality test
        raise InstantiationError(f"p = {p}: {exc}") from None
    _check(prime, f"p must be a prime >= {minimum}, got {p}")


@dataclass(frozen=True)
class ClaimFamily:
    family_id: str
    param_names: tuple[str, ...]
    emit: Callable[..., dict] = field(repr=False)  # parameters -> claim fields
    default_grid: tuple[tuple[int, ...], ...] = ()

    def claim_id(self, **params: int) -> str:
        if not self.param_names:
            return self.family_id
        inner = ",".join(f"{name}={params[name]}" for name in self.param_names)
        return f"{self.family_id}[{inner}]"

    def instantiate(self, **params: int) -> CongruenceClaim:
        if set(params) != set(self.param_names):
            takes = (
                f"parameters {self.param_names}" if self.param_names
                else "no parameters"
            )
            raise InstantiationError(
                f"{self.family_id} takes {takes}, got {tuple(sorted(params))}"
            )
        return CongruenceClaim(
            self.claim_id(**params),
            **self.emit(**params),
            params=tuple((name, params[name]) for name in self.param_names),
        )

    def default_instances(self) -> list[CongruenceClaim]:
        return [
            self.instantiate(**dict(zip(self.param_names, grid)))
            for grid in self.default_grid
        ]


# --- family emitters -------------------------------------------------------

def _emit_c1() -> dict:
    return dict(
        kind="vanishing", source=broken_diamond_source(1), step=2, residue=1,
        modulus=3, default_n_max=150,
    )


def _emit_c2(p: int, r: int) -> dict:
    _require_prime(p, 2)
    _check(r >= 1, f"r must be >= 1, got {r}")
    k = p**r
    _check(k >= 3, f"k = p^r must be >= 3, got {k}")
    return dict(kind="vanishing", source=bracelet_source(k), step=2, residue=1, modulus=p)


def _emit_c3(p: int, m: int, s: int) -> dict:
    _require_prime(p)
    _check(m >= 1, f"m must be >= 1, got {m}")
    k = p * m
    _check(k >= 3, f"k = p*m must be >= 3, got {k}")
    _check(1 <= s <= p - 1, f"s must lie in 1..{p - 1}, got {s}")
    _check(
        legendre_symbol(12 * s + 1, p) == -1,
        f"12s+1 = {12 * s + 1} is not a quadratic nonresidue mod {p}",
    )
    return dict(
        kind="vanishing", source=bracelet_source(k), step=p, residue=s, modulus=p,
        default_n_max=100,
    )


def _emit_c4(m: int, l: int) -> dict:
    _check(m >= 1, f"m must be >= 1, got {m}")
    _check(l >= 1 and l % 2 == 1, f"l must be odd and >= 1, got {l}")
    k = 2**m * l
    _check(k >= 3, f"k = 2^m l must be >= 3, got {k}")
    return dict(
        kind="vanishing", source=bracelet_source(k), step=2, residue=1, modulus=2**m
    )


_C5_RESIDUES = {5: 7, 7: 11, 11: 21}


def _emit_c5(k: int) -> dict:
    _check(k in _C5_RESIDUES, f"k must be 5, 7 or 11, got {k}")
    return dict(
        kind="vanishing", source=bracelet_source(k), step=2 * k,
        residue=_C5_RESIDUES[k], modulus=k * k, default_n_max=100,
    )


def _emit_c6(B: int) -> dict:
    _check(B in (6, 8), f"B must be 6 or 8, got {B}")
    return dict(
        kind="vanishing", source=bracelet_source(5), step=10, residue=B, modulus=2,
        default_n_max=500,
    )


def _emit_c7() -> dict:
    return dict(
        kind="series", source=bracelet_source(5), step=10, residue=2, modulus=2,
        rhs_source=lregular_source(5), default_n_max=500,
    )


def _emit_c8() -> dict:
    return dict(
        kind="series", source=lregular_source(5), step=2, residue=0, modulus=2,
        rhs_source=product_source(ProductSpec.of((-1, 2, 2, 1))), default_n_max=500,
    )


def _emit_c9() -> dict:
    return dict(
        kind="identity", source=euler_source(1), step=1, residue=0, modulus=None,
        rhs_source=quintic_euler_source(), default_n_max=1000,
    )


def _emit_c10(p: int, a: int, i: int) -> dict:
    _require_prime(p)
    _check(
        legendre_symbol(-10, p) == -1,
        f"(-10/{p}) must be -1 for this family",
    )
    _check(a >= 1, f"alpha must be >= 1, got {a}")
    _check(1 <= i <= p - 1, f"i must lie in 1..{p - 1}, got {i}")
    step = 4 * p ** (2 * a)
    residue = _exact_div((24 * i + 7 * p) * p ** (2 * a - 1) - 1, 6, "C10 residue")
    return dict(
        kind="vanishing", source=lregular_source(5), step=step, residue=residue,
        modulus=2, default_n_max=3,
    )


_C11_TABLE = {1: (1, 31), 2: (1, 79), 3: (2, 83), 4: (2, 107)}


def _emit_c11(v: int, a: int) -> dict:
    _check(v in _C11_TABLE, f"variant must be 1..4, got {v}")
    _check(a >= 0, f"alpha must be >= 0, got {a}")
    extra, c = _C11_TABLE[v]
    step = 4 * 5 ** (2 * a + extra)
    residue = _exact_div(c * 5 ** (2 * a + extra - 1) - 1, 6, "C11 residue")
    return dict(
        kind="vanishing", source=lregular_source(5), step=step, residue=residue,
        modulus=2, default_n_max=100 if a == 0 else 80,
    )


def _emit_c12(p: int, a: int, i: int) -> dict:
    _require_prime(p)
    _check(
        legendre_symbol(-10, p) == -1,
        f"(-10/{p}) must be -1 for this family",
    )
    _check(a >= 1, f"alpha must be >= 1, got {a}")
    _check(1 <= i <= p - 1, f"i must lie in 1..{p - 1}, got {i}")
    step = 40 * p ** (2 * a)
    residue = _exact_div(5 * (24 * i + 7 * p) * p ** (2 * a - 1) + 1, 3, "C12 residue")
    return dict(
        kind="vanishing", source=bracelet_source(5), step=step, residue=residue,
        modulus=2, default_n_max=2,
    )


_C13_TABLE = {1: (0, 31), 2: (0, 79), 3: (1, 83), 4: (1, 107)}


def _emit_c13(v: int, a: int) -> dict:
    _check(v in _C13_TABLE, f"variant must be 1..4, got {v}")
    _check(a >= 1, f"alpha must be >= 1, got {a}")
    extra, c = _C13_TABLE[v]
    step = 8 * 5 ** (2 * a + extra)
    residue = _exact_div(c * 5 ** (2 * a + extra - 1) + 1, 3, "C13 residue")
    return dict(
        kind="vanishing", source=bracelet_source(5), step=step, residue=residue,
        modulus=2, default_n_max=20,
    )


def _emit_c14(p: int, r: int, a: int) -> dict:
    _require_prime(p)
    _check(r >= 1, f"r must be >= 1, got {r}")
    _check(a >= 1 and 2 * a <= r + 1, f"alpha must lie in 1..(r+1)/2, got {a}")
    k = p**r
    step = p ** (2 * a - 1)
    residue = _exact_div(p ** (2 * a) - 1, 12, "C14 residue")
    e = p ** (r - 2 * a + 1)
    rhs = product_source(ProductSpec.of((-1, 2 * p, 2 * p, 1), (-1, 2 * e, 2 * e, -1)))
    sign = PrimeContext(p).epsilon ** a
    return dict(
        kind="series", source=bracelet_source(k), step=step, residue=residue,
        modulus=p, rhs_source=rhs, rhs_sign=sign,
    )


def _emit_c15(p: int, r: int, a: int, i: int) -> dict:
    _require_prime(p)
    _check(r >= 1, f"r must be >= 1, got {r}")
    if r < 2:
        raise VacuousFamilyError(
            "C15 needs r >= 2: for r = 1 the alpha range 1..r/2 is empty"
        )
    _check(a >= 1 and 2 * a <= r, f"alpha must lie in 1..r/2, got {a}")
    _check(1 <= i <= p - 1, f"i must lie in 1..{p - 1}, got {i}")
    step = p ** (2 * a)
    residue = _exact_div((12 * i + p) * p ** (2 * a - 1) - 1, 12, "C15 residue")
    return dict(
        kind="vanishing", source=bracelet_source(p**r), step=step, residue=residue,
        modulus=p, default_n_max=100,
    )


def _emit_c16(p: int, r: int, a: int, j: int) -> dict:
    _require_prime(p)
    _check(r >= 1, f"r must be >= 1, got {r}")
    if r <= 2:
        raise VacuousFamilyError(
            "C16 needs r >= 3: for r <= 2 the alpha range 1..(r-1)/2 is empty"
        )
    _check(a >= 1 and 2 * a <= r - 1, f"alpha must lie in 1..(r-1)/2, got {a}")
    _check(1 <= j <= p - 1, f"j must lie in 1..{p - 1}, got {j}")
    _check(
        legendre_symbol(12 * j + 1, p) == -1,
        f"12j+1 = {12 * j + 1} is not a quadratic nonresidue mod {p}",
    )
    step = p ** (2 * a + 1)
    residue = _exact_div((12 * j + 1) * p ** (2 * a) - 1, 12, "C16 residue")
    return dict(
        kind="vanishing", source=bracelet_source(p**r), step=step, residue=residue,
        modulus=p, default_n_max=40,
    )


def _emit_c17(p: int, a: int, v: int) -> dict:
    _require_prime(p)
    _check(a >= 1, f"alpha must be >= 1, got {a}")
    _check(v in (1, 2), f"variant must be 1 or 2, got {v}")
    k = p ** (2 * a - 1)
    step = 2 * p ** (2 * a - 1)
    residue = _exact_div(p ** (2 * a) - 1, 12, "C17 residue")
    if v == 1:
        rhs = lregular_source(p)
    else:
        rhs = product_source(ProductSpec.of((-1, p, p, 1), (-1, 1, 1, -1)))
    sign = PrimeContext(p).epsilon ** a
    return dict(
        kind="series", source=bracelet_source(k), step=step, residue=residue,
        modulus=p, rhs_source=rhs, rhs_sign=sign,
    )


_C18_CONSTANTS = {5: 101, 7: 127, 11: 155}


def _emit_c18(p: int, a: int) -> dict:
    _check(p in _C18_CONSTANTS, f"p must be 5, 7 or 11, got {p}")
    _check(a >= 1, f"alpha must be >= 1, got {a}")
    c = _C18_CONSTANTS[p]
    k = p ** (2 * a - 1)
    step = 2 * p ** (2 * a)
    residue = _exact_div(c * p ** (2 * a - 1) - 1, 12, "C18 residue")
    return dict(
        kind="vanishing", source=bracelet_source(k), step=step, residue=residue,
        modulus=p, default_n_max=40,
    )


def _emit_c19(p: int, a: int) -> dict:
    _require_prime(p)
    _check(a >= 1, f"alpha must be >= 1, got {a}")
    k = p ** (2 * a)
    step = p ** (2 * a - 1)
    residue = _exact_div(p ** (2 * a) - 1, 12, "C19 residue")
    # C14 at r = 2a: the right side (q^{2p};q^{2p})/(q^{2p};q^{2p}) is 1
    return dict(
        kind="series", source=bracelet_source(k), step=step, residue=residue,
        modulus=p, rhs_source=product_source(ProductSpec()),
        rhs_sign=PrimeContext(p).epsilon ** a, default_n_max=300,
    )


def _emit_c20(m: int) -> dict:
    _check(m in (5, 7, 11), f"m must be 5, 7 or 11, got {m}")
    # Ramanujan's congruences p(mn + 24^{-1} mod m) ≡ 0 (mod m)
    return dict(
        kind="vanishing", source=partition_source(), step=m, residue=pow(24, -1, m),
        modulus=m, default_n_max=150,
    )


_FAMILIES: dict[str, ClaimFamily] = {
    fam.family_id: fam
    for fam in (
        ClaimFamily("C1", (), _emit_c1, ((),)),
        ClaimFamily("C2", ("p", "r"), _emit_c2, ((5, 1), (7, 1), (3, 2))),
        ClaimFamily("C3", ("p", "m", "s"), _emit_c3, ((5, 2, 1), (5, 2, 3))),
        ClaimFamily("C4", ("m", "l"), _emit_c4, ((2, 3),)),
        ClaimFamily("C5", ("k",), _emit_c5, ((5,), (7,), (11,))),
        ClaimFamily("C6", ("B",), _emit_c6, ((6,), (8,))),
        ClaimFamily("C7", (), _emit_c7, ((),)),
        ClaimFamily("C8", (), _emit_c8, ((),)),
        ClaimFamily("C9", (), _emit_c9, ((),)),
        ClaimFamily("C10", ("p", "a", "i"), _emit_c10, ((17, 1, 1), (17, 1, 6))),
        ClaimFamily(
            "C11", ("v", "a"), _emit_c11,
            ((1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (2, 1)),
        ),
        ClaimFamily("C12", ("p", "a", "i"), _emit_c12, ((17, 1, 6),)),
        ClaimFamily("C13", ("v", "a"), _emit_c13, ((1, 1), (2, 1), (3, 1), (4, 1))),
        ClaimFamily("C14", ("p", "r", "a"), _emit_c14, ((5, 1, 1), (5, 3, 1), (5, 3, 2))),
        ClaimFamily(
            "C15", ("p", "r", "a", "i"), _emit_c15,
            ((5, 2, 1, 1), (5, 2, 1, 2), (5, 2, 1, 3), (5, 2, 1, 4)),
        ),
        ClaimFamily("C16", ("p", "r", "a", "j"), _emit_c16, ((5, 3, 1, 1), (5, 3, 1, 3))),
        ClaimFamily("C17", ("p", "a", "v"), _emit_c17, ((5, 1, 1), (5, 1, 2))),
        ClaimFamily("C18", ("p", "a"), _emit_c18, ((5, 1), (7, 1), (11, 1))),
        ClaimFamily("C19", ("p", "a"), _emit_c19, ((5, 1),)),
        ClaimFamily("C20", ("m",), _emit_c20, ((5,), (7,), (11,))),
    )
}


def families() -> dict[str, ClaimFamily]:
    return dict(_FAMILIES)


def default_catalog() -> list[CongruenceClaim]:
    """The default instances of every family, in claim-id order."""
    claims = [c for fam in _FAMILIES.values() for c in fam.default_instances()]
    return sorted(claims, key=claim_sort_key)


_ID_RE = re.compile(r"^(C\d+)(?:\[(.*)\])?$")


def claim_sort_key(claim: CongruenceClaim) -> tuple[int, str]:
    m = _ID_RE.match(claim.claim_id)
    num = int(m.group(1)[1:]) if m else 0
    return (num, claim.claim_id)


@dataclass(frozen=True)
class SelectionIssue:
    claim_id: str
    status: str  # vacuous | error
    message: str


def resolve_selection(
    selections: Iterable[str],
) -> tuple[list[CongruenceClaim], list[SelectionIssue]]:
    """Turn id strings into concrete claims.

    A bare family id selects its default instances; a bracketed id
    instantiates exactly those parameters.  Vacuous instantiations and
    invalid parameters become :class:`SelectionIssue` entries instead of
    aborting the whole selection.
    """
    claims: list[CongruenceClaim] = []
    issues: list[SelectionIssue] = []
    seen: set[str] = set()

    def add(claim: CongruenceClaim) -> None:
        if claim.claim_id not in seen:
            seen.add(claim.claim_id)
            claims.append(claim)

    for text in selections:
        text = text.strip()
        m = _ID_RE.match(text)
        if not m:
            issues.append(SelectionIssue(text, "error", f"unparseable claim id {text!r}"))
            continue
        base, inner = m.group(1), m.group(2)
        if base not in _FAMILIES:
            issues.append(SelectionIssue(text, "error", f"unknown claim id {base!r}"))
            continue
        if inner is None:
            for claim in _FAMILIES[base].default_instances():
                add(claim)
            continue
        try:
            pairs = [piece.partition("=") for piece in inner.split(",")]
            pairs = [(name.strip(), int(value)) for name, _, value in pairs]
        except ValueError:
            issues.append(SelectionIssue(text, "error", f"unparseable parameters in {text!r}"))
            continue
        params = dict(pairs)
        if len(params) < len(pairs):
            names = [name for name, _ in pairs]
            twice = next(name for name in names if names.count(name) > 1)
            issues.append(
                SelectionIssue(text, "error", f"parameter {twice!r} given twice in {text!r}")
            )
            continue
        try:
            add(_FAMILIES[base].instantiate(**params))
        except VacuousFamilyError as exc:
            issues.append(SelectionIssue(text, "vacuous", str(exc)))
        except InstantiationError as exc:
            issues.append(SelectionIssue(text, "error", str(exc)))
    return claims, issues
