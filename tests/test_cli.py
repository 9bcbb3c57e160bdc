"""End-to-end CLI coverage through click's test runner."""

import csv
import io
import json

import pytest
from click.testing import CliRunner

from qbracelet.cli import main


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


def test_search_trivial_step_is_empty(runner):
    result = run(runner, "search", "5", "--amax", "1", "--mod", "2",
                 "--nmax", "50")
    assert result.exit_code == 0
    assert "0 candidates" in result.output
