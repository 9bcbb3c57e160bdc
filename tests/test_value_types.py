"""The package's value types: immutable, compared by their fields, validated
on construction, and made without importing ``dataclasses`` or ``inspect``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qbracelet.claims import (
    ClaimFamily,
    CongruenceClaim,
    SelectionIssue,
    default_catalog,
    families,
)
from qbracelet.products import PochhammerFactor, ProductSpec
from qbracelet.rings import CoefficientRing, Mod
from qbracelet.sources import SeriesSource, bracelet_source, lregular_source
from qbracelet.theta import PrimeContext
from qbracelet.verify import SeriesCache, VerificationReport, verify

ROOT = Path(__file__).resolve().parents[1]


def test_import_and_catalog_load_no_heavy_module(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "import_probe.py")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert Path(result.stdout.strip()).parent == ROOT / "src" / "qbracelet"


# Each type built twice from equal fields: positionally, then by keyword.
PAIRS = {
    "CoefficientRing": (lambda: CoefficientRing(5), lambda: CoefficientRing(modulus=5)),
    "PochhammerFactor": (
        lambda: PochhammerFactor(-1, 1, 2, 3),
        lambda: PochhammerFactor(sign=-1, offset=1, step=2, exponent=3),
    ),
    "ProductSpec": (
        lambda: ProductSpec.of((-1, 5, 5, 1), (-1, 1, 1, -1)),
        lambda: ProductSpec.parse("-1,5,5,1;-1,1,1,-1"),
    ),
    "SeriesSource": (
        lambda: lregular_source(5),
        lambda: SeriesSource(kind="lregular", param=5, spec=lregular_source(5).spec),
    ),
    "CongruenceClaim": (
        lambda: families()["C7"].instantiate(),
        lambda: CongruenceClaim(**families()["C7"].instantiate()._asdict()),
    ),
    "ClaimFamily": (
        lambda: families()["C2"],
        lambda: ClaimFamily(**families()["C2"]._asdict()),
    ),
    "SelectionIssue": (
        lambda: SelectionIssue("C99", "error", "unknown claim id 'C99'"),
        lambda: SelectionIssue(claim_id="C99", status="error", message="unknown claim id 'C99'"),
    ),
    "PrimeContext": (lambda: PrimeContext(7), lambda: PrimeContext(p=7)),
    "VerificationReport": (
        lambda: VerificationReport("C99", {}, "error", message="unknown claim id 'C99'"),
        lambda: VerificationReport(
            claim_id="C99", params={}, status="error", message="unknown claim id 'C99'"
        ),
    ),
}


@pytest.mark.parametrize("name", PAIRS)
def test_value_is_immutable(name):
    value = PAIRS[name][0]()
    assert type(value).__name__ == name
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("name", PAIRS)
def test_equal_fields_give_equal_values(name):
    first, second = (make() for make in PAIRS[name])
    assert first is not second
    assert first == second
    if name == "VerificationReport":  # its params are a dict, as they always were
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


def _claim(**fields):
    base = dict(claim_id="X1", source=bracelet_source(5), step=10, residue=6, modulus=2)
    return CongruenceClaim(**{**base, **fields})


@pytest.mark.parametrize("make, message", [
    (lambda: CoefficientRing(1), "modulus must be >= 2, got 1"),
    (lambda: Mod(0), "modulus must be >= 2, got 0"),
    (lambda: PochhammerFactor(0, 1, 1), "sign must be +1 or -1"),
    (lambda: PochhammerFactor(1, 0, 1), "offset must be >= 1"),
    (lambda: PochhammerFactor(-1, 1, 0), "step must be >= 1"),
    (lambda: ProductSpec.of((-1, 1, 1, 1), (2, 1, 1, 1)), "sign must be +1 or -1"),
    (lambda: ProductSpec.parse("-1,1,0,1"), "step must be >= 1"),
    (lambda: _claim(step=0), "X1: step must be >= 1"),
    (lambda: _claim(modulus=1), "X1: modulus must be >= 2, got 1"),
    (lambda: _claim(residue=-1), "X1: residue and n bound must be >= 0"),
    (lambda: _claim(modulus=None), "X1: a claim needs a modulus or an rhs_source"),
    (lambda: PrimeContext(4), "p must be a prime >= 5, got 4"),
])
def test_refusals_keep_their_messages(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


# The same table for a valid value given bad fields by ``_replace``, and by
# ``_make``, which ``_replace`` calls.
@pytest.mark.parametrize("value, fields, message", [
    (Mod(5), {"modulus": 1}, "modulus must be >= 2, got 1"),
    (PochhammerFactor(-1, 1, 2), {"sign": 0}, "sign must be +1 or -1"),
    (PochhammerFactor(-1, 1, 2), {"offset": 0}, "offset must be >= 1"),
    (PochhammerFactor(-1, 1, 2), {"step": 0}, "step must be >= 1"),
    (_claim(), {"step": 0}, "X1: step must be >= 1"),
    (_claim(), {"modulus": 1}, "X1: modulus must be >= 2, got 1"),
    (_claim(), {"residue": -3}, "X1: residue and n bound must be >= 0"),
    (_claim(), {"modulus": None}, "X1: a claim needs a modulus or an rhs_source"),
    (PrimeContext(7), {"p": 9}, "p must be a prime >= 5, got 9"),
], ids=lambda x: str(x) if isinstance(x, (dict, str)) else type(x).__name__)
def test_replace_and_make_refuse_like_the_constructor(value, fields, message):
    assert value._replace() == value == type(value)._make(value)
    with pytest.raises(ValueError) as excinfo:
        value._replace(**fields)
    assert str(excinfo.value) == message
    with pytest.raises(ValueError) as excinfo:
        type(value)._make({**value._asdict(), **fields}.values())
    assert str(excinfo.value) == message


# (source key, ring key, order) of every build of ``verify --all``.  A cache
# key that merged two of these, or split one, would change the list.
VERIFY_ALL_BUILDS = [
    ("bracelet:10", "mod5", 503),
    ("bracelet:11", "mod11", 9822),
    ("bracelet:11", "mod121", 2221),
    ("bracelet:12", "mod4", 401),
    ("bracelet:125", "mod5", 25052),
    ("bracelet:25", "mod5", 2522),
    ("bracelet:5", "mod2", 30572),
    ("bracelet:5", "mod25", 1007),
    ("bracelet:5", "mod5", 2042),
    ("bracelet:7", "mod49", 1411),
    ("bracelet:7", "mod7", 3994),
    ("bracelet:9", "mod3", 401),
    ("brokendiamond:1", "mod3", 301),
    ("euler:1", "exact", 1000),
    ("lregular:5", "mod2", 40329),
    ("lregular:5", "mod5", 200),
    ("partition", "mod11", 1656),
    ("partition", "mod5", 754),
    ("partition", "mod7", 1055),
    ("product:", "mod5", 300),
    ("product:-1,10,10,1;-1,2,2,-1", "mod5", 200),
    ("product:-1,10,10,1;-1,50,50,-1", "mod5", 200),
    ("product:-1,2,2,1", "mod2", 500),
    ("quintic_euler", "exact", 1000),
]


def test_verify_all_cache_builds_are_pinned():
    cache = SeriesCache()
    verify(default_catalog(), cache=cache)
    assert cache.builds == VERIFY_ALL_BUILDS
