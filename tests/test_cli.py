"""End-to-end CLI coverage through click's test runner."""

import csv
import dataclasses
import io
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from qbracelet.claims import CongruenceClaim, resolve_selection
from qbracelet.cli import _verify_csv, _verify_text, main
from qbracelet.products import ProductSpec
from qbracelet.sources import (
    bracelet_source,
    euler_source,
    lregular_source,
    partition_source,
    product_source,
    quintic_euler_source,
)
from qbracelet.verify import RunConfig, issue_report, verify


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args, **kw):
    result = runner.invoke(main, list(args), **kw)
    return result


def test_coeffs_partition(runner):
    result = run(runner, "coeffs", "partition", "9")
    assert result.exit_code == 0
    assert result.output.strip() == "1 1 2 3 5 7 11 15 22 30"


def test_coeffs_bracelet_constant(runner):
    result = run(runner, "coeffs", "bracelet:5", "0")
    assert result.exit_code == 0
    assert result.output.strip() == "1"


def test_coeffs_euler_mod2(runner):
    result = run(runner, "coeffs", "euler", "12", "--mod", "2")
    assert result.exit_code == 0
    assert result.output.strip() == "1 1 1 0 0 1 0 1 0 0 0 0 1"


def test_coeffs_csv_format(runner):
    result = run(runner, "coeffs", "partition", "3", "--format", "csv")
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["n", "coefficient"]
    assert rows[1:] == [["0", "1"], ["1", "1"], ["2", "2"], ["3", "3"]]


def test_coeffs_json_format(runner):
    result = run(runner, "coeffs", "lregular:5", "5", "--format", "json")
    data = json.loads(result.output)
    assert data["coefficients"] == [1, 1, 2, 3, 5, 6]
    assert data["source"] == "lregular:5"


def test_coeffs_product_source(runner):
    result = run(runner, "coeffs", "product:-1,1,1,-1", "9")
    assert result.output.strip() == "1 1 2 3 5 7 11 15 22 30"


def test_coeffs_unknown_source_fails(runner):
    result = run(runner, "coeffs", "nonsense:3", "5")
    assert result.exit_code != 0


@pytest.mark.parametrize(
    "source, message",
    [
        ("product:1,2", "product factor '1,2' must be SIGN,OFFSET,STEP,EXP"),
        ("product:-1,1,x,1", "product factor '-1,1,x,1' must be SIGN,OFFSET,STEP,EXP"),
        ("euler:0", "euler step must be >= 1"),
        ("bracelet:x", "source 'bracelet' parameter must be an integer, got 'x'"),
    ],
)
def test_malformed_source_is_a_one_line_error(runner, source, message):
    result = run(runner, "coeffs", source, "5")
    assert result.exit_code == 1
    assert result.output.splitlines() == [f"Error: {message}"]


def test_coeffs_cap(runner, monkeypatch):
    monkeypatch.setenv("QBRACELET_ORDER_CAP", "100")
    result = run(runner, "coeffs", "partition", "101")
    assert result.exit_code != 0
    assert "cap" in result.output


@pytest.mark.parametrize(
    "raw, message",
    [("abc", "must be an integer, got 'abc'"), ("-5", "must be >= 0, got -5")],
)
def test_bad_env_cap_is_a_one_line_error(runner, monkeypatch, raw, message):
    monkeypatch.setenv("QBRACELET_ORDER_CAP", raw)
    result = run(runner, "coeffs", "partition", "5")
    assert result.exit_code == 1
    assert result.output.splitlines() == [f"Error: QBRACELET_ORDER_CAP {message}"]


def test_dissect_vanishing_progression(runner):
    result = run(runner, "dissect", "bracelet:5", "10", "6", "--mod", "2", "-N", "100")
    assert result.exit_code == 0
    assert set(result.output.split()) == {"0"}


def test_dissect_identity(runner):
    result = run(runner, "dissect", "partition", "1", "0", "-N", "5")
    assert result.output.strip() == "1 1 2 3 5 7"


def test_dissect_matches_coeffs_lemma(runner):
    lhs = run(runner, "dissect", "bracelet:5", "10", "2", "--mod", "2", "-N", "60")
    rhs = run(runner, "coeffs", "lregular:5", "60", "--mod", "2")
    assert lhs.output == rhs.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["--", "-2", "1"], "STEP must be >= 1"),
        (["-N", "0", "--", "2", "-1"], "RESIDUE must satisfy 0 <= RESIDUE < STEP"),
    ],
)
def test_dissect_rejects_bad_progression(runner, args, message):
    result = run(runner, "dissect", "partition", *args)
    assert result.exit_code == 1
    assert result.output.splitlines() == [f"Error: {message}"]


def test_verify_pass_and_exit_zero(runner):
    result = run(runner, "verify", "--claims", "C6", "--nmax", "100")
    assert result.exit_code == 0
    assert "B_5(10n+6) ≡ 0 (mod 2): PASS n≤100" in result.output


def test_verify_exit_code_on_error(runner):
    result = run(runner, "verify", "--claims", "NOPE")
    assert result.exit_code == 1
    assert "ERROR" in result.output


def test_verify_vacuous_exit_zero(runner):
    result = run(runner, "verify", "--claims", "C16[p=5,r=1,a=1,j=1]")
    assert result.exit_code == 0
    assert "VACUOUS" in result.output


def test_verify_json_schema(runner):
    result = run(runner, "verify", "--claims", "C20", "--format", "json")
    assert result.exit_code == 0
    reports = json.loads(result.output)
    assert len(reports) == 3
    for obj in reports:
        assert set(obj) == {
            "claim_id", "params", "status", "n_checked", "truncation",
            "counterexample", "elapsed_ms",
        }
        assert obj["status"] == "pass"


def test_verify_json_deterministic(runner):
    a = run(runner, "verify", "--claims", "C1,C20", "--format", "json").output
    b = run(runner, "verify", "--claims", "C1,C20", "--format", "json").output

    def strip(text):
        data = json.loads(text)
        for obj in data:
            obj.pop("elapsed_ms")
        return data

    assert strip(a) == strip(b)


def test_verify_csv(runner):
    result = run(runner, "verify", "--claims", "C1", "--format", "csv")
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0][:2] == ["claim_id", "status"]
    assert rows[1][0] == "C1"
    assert rows[1][1] == "pass"


def test_verify_requires_selection(runner):
    result = run(runner, "verify")
    assert result.exit_code != 0


@pytest.mark.parametrize("claims", [("",), (",",), ("", ","), (",,", "")])
def test_verify_empty_selection_is_a_usage_error(runner, claims):
    # an empty id list checks nothing, so it must not pass
    neither = run(runner, "verify")
    result = run(runner, "verify", *(a for c in claims for a in ("--claims", c)))
    assert result.exit_code == neither.exit_code == 2
    assert result.output == neither.output
    assert "Error: select claims with --claims or pass --all" in result.output


def test_verify_all_with_claims_is_a_usage_error(runner):
    # --all would silently override the selection
    neither = run(runner, "verify")
    result = run(runner, "verify", "--all", "--claims", "C6")
    assert result.exit_code == neither.exit_code == 2
    assert result.output == neither.output
    assert result.output.splitlines()[-1] == (
        "Error: select claims with --claims or pass --all, not both"
    )


GOLDEN_TEXT = Path(__file__).resolve().parent / "golden" / "verify_all.txt"


def test_verify_all_text_is_pinned(runner, monkeypatch):
    # every description and verdict of the catalog, which the JSON golden
    # (statuses and counterexamples only) does not cover
    monkeypatch.delenv("QBRACELET_ORDER_CAP", raising=False)
    result = run(runner, "verify", "--all")
    assert result.exit_code == 0
    assert result.output == GOLDEN_TEXT.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--all", "--nmax", "-1"),
        ("search", "5", "--amax", "3", "--nmax", "-1", "--mod", "2"),
    ],
)
def test_negative_nmax_is_a_usage_error(runner, args):
    result = run(runner, *args)
    assert result.exit_code == 2
    assert "Invalid value for '--nmax'" in result.output
    assert "Traceback" not in result.output


def test_search_rediscovers_catalog_mod2(runner):
    result = run(runner, "search", "5", "--amax", "10", "--mod", "2",
                 "--nmax", "200")
    assert result.exit_code == 0
    assert "B_5(10n+6) ≡ 0 (mod 2)" in result.output
    assert "B_5(10n+8) ≡ 0 (mod 2)" in result.output
    assert "candidate (bounded evidence only)" in result.output


def test_search_rediscovers_mod25(runner):
    result = run(runner, "search", "5", "--amax", "10", "--mod", "25",
                 "--nmax", "100", "--format", "json")
    data = json.loads(result.output)
    assert {"k": 5, "step": 10, "residue": 7, "modulus": 25, "n_checked": 100,
            "note": "candidate (bounded evidence only)"} in data


@pytest.mark.parametrize("nmax, found", [(5, True), (6, False)])
def test_search_checks_n_equal_to_nmax(runner, nmax, found):
    # B_5(9n+7) is even for n < 6 and odd at n = 6
    result = run(runner, "search", "5", "--amax", "9", "--mod", "2",
                 "--nmax", str(nmax))
    assert result.exit_code == 0
    assert ("B_5(9n+7) ≡ 0 (mod 2)" in result.output) == found


def test_search_csv(runner):
    result = run(runner, "search", "5", "--amax", "10", "--mod", "2",
                 "--nmax", "200", "--format", "csv")
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["k", "step", "residue", "modulus", "n_checked"]
    assert ["5", "10", "6", "2", "200"] in rows[1:]
    assert all(len(row) == 5 for row in rows)


def test_search_trivial_step_is_empty(runner):
    result = run(runner, "search", "5", "--amax", "1", "--mod", "2",
                 "--nmax", "50")
    assert result.exit_code == 0
    assert "0 candidates" in result.output


def test_verify_out_of_table_parameter_is_one_error_line(runner):
    result = run(runner, "verify", "--claims", "C6[B=7]")
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "C6[B=7]: ERROR (B must be 6 or 8, got 7)",
        "-- 1 claims: 1 error",
    ]


RENDERED_TEXT = """\
X1: p(5n+4) ≡ 0 (mod 5): PASS n≤1
X2: Σ (q;q)oo(n) q^n ≡ -(q;q)oo (mod 2): PASS n≤10
X3: (q;q)oo = (q^25;q^25)oo*(a(q)-q-q^2*b(q)): PASS n≤30
X4: (q;q)oo(n+3) ≡ 0 (mod 2): FAIL at n=2 (value 1)
X5: Σ p(n) q^n ≡ Σ b_5(n) q^n (mod 3): FAIL at n=5 (value 1)
X6: Σ p(5n+4) q^n ≡ 1 (mod 5): FAIL at n=0 (value 4)
X7: ERROR (truncation 56 exceeds the mod2 order cap 10)
C16[p=5,r=1,a=1,j=1]: VACUOUS \
(C16 needs r >= 3: for r <= 2 the alpha range 1..(r-1)/2 is empty)
C99: ERROR (unknown claim id 'C99')
-- 9 claims: 2 error, 3 fail, 3 pass, 1 vacuous
"""

RENDERED_CSV = """\
claim_id,status,n_checked,truncation,counterexample_n,counterexample_value,elapsed_ms\r
X1,pass,1,9,,,0.0\r
X2,pass,10,10,,,0.0\r
X3,pass,30,30,,,0.0\r
X4,fail,5,8,2,1,0.0\r
X5,fail,8,8,5,1,0.0\r
X6,fail,1,9,0,4,0.0\r
X7,error,0,56,,,0.0\r
"C16[p=5,r=1,a=1,j=1]",vacuous,0,0,,,0.0\r
C99,error,0,0,,,0.0\r
"""


def test_verify_rendering_is_pinned(monkeypatch, capsys):
    # one run through every report shape; elapsed_ms is masked to 0.0
    monkeypatch.delenv("QBRACELET_ORDER_CAP", raising=False)
    claims = [
        CongruenceClaim("X1", "vanishing", partition_source(), 5, 4, 5,
                        default_n_max=1),
        CongruenceClaim("X2", "series", euler_source(1), 1, 0, 2,
                        rhs_source=euler_source(1), rhs_sign=-1, default_n_max=10),
        CongruenceClaim("X3", "identity", euler_source(1), 1, 0, None,
                        rhs_source=quintic_euler_source(), default_n_max=30),
        # planted: (q;q) has odd coefficients at q^5 and q^7
        CongruenceClaim("X4", "vanishing", euler_source(1), 1, 3, 2,
                        default_n_max=5),
        # planted: p(5) = 7 but b_5(5) = 6
        CongruenceClaim("X5", "series", partition_source(), 1, 0, 3,
                        rhs_source=lregular_source(5), default_n_max=8),
        # planted: a constant right side of 1, but p(4) = 5 ≡ 0 (mod 5)
        CongruenceClaim("X6", "series", partition_source(), 5, 4, 5,
                        rhs_source=product_source(ProductSpec()), default_n_max=1),
        CongruenceClaim("X7", "vanishing", bracelet_source(5), 10, 6, 2,
                        default_n_max=5),
    ]
    _, issues = resolve_selection(["C16[p=5,r=1,a=1,j=1]", "C99"])
    reports = verify(claims, RunConfig(order_cap_mod=10))
    reports += [issue_report(issue) for issue in issues]
    reports = [dataclasses.replace(r, elapsed_ms=0.0) for r in reports]
    _verify_text(reports)
    assert capsys.readouterr().out == RENDERED_TEXT
    _verify_csv(reports)
    assert capsys.readouterr().out == RENDERED_CSV
