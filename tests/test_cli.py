"""End-to-end CLI coverage through click's test runner."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from qbracelet import generators
from qbracelet.claims import CongruenceClaim, resolve_selection
from qbracelet.cli import _print_reports, main
from qbracelet.products import ProductSpec, product_series
from qbracelet.rings import Mod
from qbracelet.sources import (
    bracelet_source,
    euler_source,
    expand_source,
    lregular_source,
    partition_source,
    product_source,
    quintic_euler_source,
)
from qbracelet.series import TruncatedSeries
from qbracelet.verify import (
    SeriesCache,
    VerificationReport,
    issue_report,
    progression,
    verify,
)


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


def run_subprocess(cwd, *args):
    """The CLI in a fresh interpreter on this checkout's sources; an input
    that never returns fails by the 30 s timeout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", "from qbracelet.cli import main; main()", *args],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=30,
    )


def test_coeffs_huge_non_lead_exponent_returns(tmp_path):
    # (-q;q)^e is the eta-quotient {1: -e, 2: e}; both factors take the
    # power recurrence once, and applying either e times in place would
    # never end
    key = "1,1,1,99999999999999"
    result = run_subprocess(tmp_path, "coeffs", f"product:{key}", "5")
    assert result.returncode == 0, result.stderr
    expected = product_series(ProductSpec.parse(key), 5).coeffs
    assert [int(c) for c in result.stdout.split()] == expected


@pytest.mark.parametrize(
    "claim, power",
    [
        # its message used to format 5^100000, past the int-to-str limit
        ("C2[p=5,r=100000]", "5^100000"),
        # these used to compute p^r for as long as one cared to wait
        ("C2[p=5,r=100000000]", "5^100000000"),
        ("C14[p=5,r=1000000000,a=1]", "5^1000000000"),
    ],
)
def test_verify_refuses_a_power_too_long_to_print(tmp_path, claim, power):
    result = run_subprocess(tmp_path, "verify", "--claims", claim)
    assert result.returncode == 1, result.stderr
    limit = sys.get_int_max_str_digits()
    assert result.stdout.splitlines() == [
        f"{claim}: ERROR ({power} has more than {limit} digits)",
        "-- 1 claims: 1 error",
    ]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "args, what",
    [
        # each family power prints, but the step or the truncation does not
        (["--claims", "C14[p=5,r=6150,a=3075]"], "truncation"),
        (["--claims", "C10[p=17,a=1000,i=1]", "--nmax", "1" + "0" * 2000], "truncation"),
        (["--claims", "C12[p=17,a=1747,i=1]"], "step"),
        # 5^6151 prints, and C7 takes it to the step 8·5^6152, which does not
        (["--claims", "C13[v=1,a=3076]"], "step"),
    ],
)
def test_verify_refuses_a_statement_too_long_to_print(tmp_path, args, what, fmt):
    result = run_subprocess(tmp_path, "verify", *args, "--format", fmt)
    assert result.returncode == 1, result.stderr
    claim = args[1]
    if fmt == "text":
        limit = sys.get_int_max_str_digits()
        assert result.stdout.splitlines() == [
            f"{claim}: ERROR ({what} has more than {limit} digits)",
            "-- 1 claims: 1 error",
        ]
    elif fmt == "json":
        [report] = json.loads(result.stdout)
        assert (report["claim_id"], report["status"]) == (claim, "error")
        assert report["truncation"] == 0
    else:
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert rows[1:] == [[claim, "error", "0", "0", "", "", "0.0"]]


@pytest.mark.parametrize(
    "args, cap",
    [
        (["search", "5", "--amax", "1" + "0" * 4000, "--mod", "2",
          "--nmax", "1" + "0" * 400], 50_000),
        (["dissect", "bracelet:5", "1" + "0" * 4000, "1", "-N", "1" + "0" * 400], 2_000),
    ],
)
def test_an_order_too_long_to_print_is_a_one_line_error(runner, args, cap):
    result = run(runner, *args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    limit = sys.get_int_max_str_digits()
    assert result.output == (
        f"Error: required order of more than {limit} digits exceeds the cap {cap} "
        "(override with QBRACELET_ORDER_CAP)\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "args",
    [
        ["coeffs", "bracelet:99999999999999999", "300"],
        # B(2n) at n = 144 is the coefficient of q^288 of the source
        ["dissect", "bracelet:99999999999999999", "2", "0", "-N", "150"],
    ],
)
def test_a_coefficient_too_long_to_print_is_a_one_line_error(runner, args, fmt):
    result = run(runner, *args, "--format", fmt)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    limit = sys.get_int_max_str_digits()
    assert result.output == (
        f"Error: the coefficient of q^288 has more than {limit} digits\n"
    )


def test_verify_checks_a_long_printable_power(runner):
    result = run(runner, "verify", "--claims", "C2[p=5,r=3000]")
    assert result.exit_code == 0
    assert result.output.endswith("-- 1 claims: 1 pass\n")


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
        ("bracelet", "source 'bracelet' needs a parameter, e.g. bracelet:5"),
        ("partition:3", "source 'partition' takes no parameter"),
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
    # every command, even one that expands nothing (C99 is not in the catalog)
    monkeypatch.setenv("QBRACELET_ORDER_CAP", raw)
    for args in (
        ("coeffs", "partition", "5"),
        ("dissect", "partition", "2", "1"),
        ("search", "5", "--amax", "2", "--mod", "2", "--nmax", "3"),
        ("verify", "--all"),
        ("verify", "--claims", "C99"),
    ):
        result = run(runner, *args)
        assert result.exit_code == 1, args
        assert result.output.splitlines() == [
            f"Error: QBRACELET_ORDER_CAP {message}"
        ], args


@pytest.mark.parametrize("command", ["coeffs", "dissect", "verify", "search"])
def test_help_ignores_a_bad_env_cap(runner, monkeypatch, command):
    monkeypatch.setenv("QBRACELET_ORDER_CAP", "abc")
    result = run(runner, command, "--help")
    assert result.exit_code == 0
    assert result.output.startswith("Usage:")


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
        (["2", "1", "--order=-1"], "order must be >= 0"),
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


SEARCH_5_MOD_2 = """\
B_5(4n+3) ≡ 0 (mod 2)  [candidate (bounded evidence only), n≤40]
B_5(8n+3) ≡ 0 (mod 2)  [candidate (bounded evidence only), n≤40]
B_5(8n+6) ≡ 0 (mod 2)  [candidate (bounded evidence only), n≤40]
B_5(8n+7) ≡ 0 (mod 2)  [candidate (bounded evidence only), n≤40]
B_5(10n+6) ≡ 0 (mod 2)  [candidate (bounded evidence only), n≤40]
B_5(10n+8) ≡ 0 (mod 2)  [candidate (bounded evidence only), n≤40]
-- 6 candidates
"""


def test_search_mod2_builds_no_series(runner, monkeypatch):
    # mod 2 the search folds the bitset of the bracelet's eta map itself
    def refuse(*args, **kwargs):
        raise AssertionError("search --mod 2 built a series")

    monkeypatch.setattr(generators, "_gf2_quotient", refuse)
    monkeypatch.setattr(SeriesCache, "get", refuse)
    monkeypatch.setattr(TruncatedSeries, "__init__", refuse)
    result = run(runner, "search", "5", "--amax", "10", "--nmax", "40", "--mod", "2")
    assert result.exit_code == 0
    assert result.stdout_bytes.decode("utf-8") == SEARCH_5_MOD_2


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


@pytest.mark.parametrize(
    "args, lines",
    [
        (["search", "2", "--amax", "2", "--mod", "2"], ["Error: k must be >= 3"]),
        (["search", "5", "--amax", "0", "--mod", "2"], ["Error: amax must be >= 1"]),
        (["search", "5", "--amax", "2", "--mod", "3", "--mod", "1"],
         ["Error: moduli must be >= 2"]),
        (["coeffs", "partition", "--", "-3"], ["Error: N must be >= 0"]),
        (["verify", "--claims", "C14[p=x]"],
         ["C14[p=x]: ERROR (unparseable parameters in 'C14[p=x]')",
          "-- 1 claims: 1 error"]),
    ],
)
def test_bad_input_is_one_line_and_exit_one(runner, args, lines):
    result = run(runner, *args)
    assert result.exit_code == 1
    assert result.output.splitlines() == lines


def test_verify_out_of_table_parameter_is_one_error_line(runner):
    result = run(runner, "verify", "--claims", "C6[B=7]")
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "C6[B=7]: ERROR (B must be 6 or 8, got 7)",
        "-- 1 claims: 1 error",
    ]


_SEARCH_NOTE = "candidate (bounded evidence only)"
_SEARCH_HITS = [(4, 3), (8, 3), (8, 6), (8, 7), (10, 6), (10, 8)]

PINNED_OUTPUT = {
    ("coeffs", "euler", "8"): {
        "text": "1 -1 -1 0 0 1 0 1 0\n",
        "json": '{"coefficients": [1, -1, -1, 0, 0, 1, 0, 1, 0], "modulus": null, '
                '"order": 8, "source": "euler:1"}\n',
        "csv": "n,coefficient\r\n0,1\r\n1,-1\r\n2,-1\r\n3,0\r\n4,0\r\n5,1\r\n6,0\r\n"
               "7,1\r\n8,0\r\n",
    },
    ("coeffs", "partition", "6", "--mod", "3"): {
        "text": "1 1 2 0 2 1 2\n",
        "json": '{"coefficients": [1, 1, 2, 0, 2, 1, 2], "modulus": 3, "order": 6, '
                '"source": "partition"}\n',
        "csv": "n,coefficient\r\n0,1\r\n1,1\r\n2,2\r\n3,0\r\n4,2\r\n5,1\r\n6,2\r\n",
    },
    ("dissect", "bracelet:5", "10", "2", "--mod", "2", "-N", "8"): {
        "text": "1 1 0 1 1 0 0 1 1\n",
        "json": '{"coefficients": [1, 1, 0, 1, 1, 0, 0, 1, 1], "modulus": 2, '
                '"order": 8, "residue": 2, "source": "bracelet:5", "step": 10}\n',
        "csv": "n,coefficient\r\n0,1\r\n1,1\r\n2,0\r\n3,1\r\n4,1\r\n5,0\r\n6,0\r\n"
               "7,1\r\n8,1\r\n",
    },
    ("search", "5", "--amax", "10", "--mod", "2", "--nmax", "20"): {
        "text": "".join(
            f"B_5({a}n+{b}) ≡ 0 (mod 2)  [{_SEARCH_NOTE}, n≤20]\n" for a, b in _SEARCH_HITS
        ) + "-- 6 candidates\n",
        "json": "[" + ", ".join(
            f'{{"k": 5, "modulus": 2, "n_checked": 20, "note": "{_SEARCH_NOTE}", '
            f'"residue": {b}, "step": {a}}}'
            for a, b in _SEARCH_HITS
        ) + "]\n",
        "csv": "k,step,residue,modulus,n_checked\r\n"
               + "".join(f"5,{a},{b},2,20\r\n" for a, b in _SEARCH_HITS),
    },
    ("search", "5", "--amax", "1", "--mod", "2", "--nmax", "5"): {
        "text": "-- 0 candidates\n",
        "json": "[]\n",
        "csv": "k,step,residue,modulus,n_checked\r\n",
    },
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("args", list(PINNED_OUTPUT))
def test_coefficient_and_search_rendering_is_pinned(runner, args, fmt):
    # the exact bytes: spacing, key order and the CSV's \r\n line ends
    result = run(runner, *args, "--format", fmt)
    assert result.exit_code == 0
    assert result.stdout_bytes.decode("utf-8") == PINNED_OUTPUT[args][fmt]


def _search_by_progression(k, amax, nmax, moduli):
    """What search prints, from every progression read one at a time, in
    each format: the reference for the one-fold scan."""
    order = amax * nmax + amax - 1
    found = [
        (k, a, b, m, nmax)
        for m in sorted(set(moduli))
        for series in [expand_source(bracelet_source(k), Mod(m), order)]
        for a in range(1, amax + 1)
        for b in range(a)
        if not any(progression(series, a, b, nmax))
    ]
    header = ["k", "step", "residue", "modulus", "n_checked"]
    out = io.StringIO()
    csv.writer(out).writerows([header, *found])
    return found, {
        "text": "".join(
            f"B_{k}({a}n+{b}) ≡ 0 (mod {m})  [{_SEARCH_NOTE}, n≤{nmax}]\n"
            for _, a, b, m, _ in found
        ) + f"-- {len(found)} candidates\n",
        "json": json.dumps([dict(zip(header, f), note=_SEARCH_NOTE) for f in found],
                           sort_keys=True) + "\n",
        "csv": out.getvalue(),
    }


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_search_over_several_moduli_matches_the_progression_reader(runner, fmt):
    # 257 is past one byte per coefficient; moduli print in increasing order
    found, expected = _search_by_progression(5, 12, 60, [257, 2, 5])
    assert {m for *_, m, _ in found} == {2, 5}
    result = run(runner, "search", "5", "--amax", "12", "--nmax", "60",
                 "--mod", "257", "--mod", "2", "--mod", "5", "--format", fmt)
    assert result.exit_code == 0
    assert result.stdout_bytes.decode("utf-8") == expected[fmt]


RENDERED_TEXT = """\
X1: p(5n+4) ≡ 0 (mod 5): PASS n≤1
X2: Σ (q;q)oo(n) q^n ≡ -(q;q)oo (mod 2): PASS n≤10
X3: (q;q)oo = (q^25;q^25)oo*(a(q)-q-q^2*b(q)): PASS n≤30
X4: (q;q)oo(n+3) ≡ 0 (mod 2): FAIL at n=2 (value 1)
X5: Σ p(n) q^n ≡ Σ b_5(n) q^n (mod 3): FAIL at n=5 (value 1)
X6: Σ p(5n+4) q^n ≡ 1 (mod 5): FAIL at n=0 (value 4)
X7: ERROR (truncation 50006 exceeds the mod2 order cap 50000)
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
X7,error,0,50006,,,0.0\r
"C16[p=5,r=1,a=1,j=1]",vacuous,0,0,,,0.0\r
C99,error,0,0,,,0.0\r
"""


def test_verify_rendering_is_pinned(monkeypatch, capsys):
    # one run through every report shape; elapsed_ms is masked to 0.0
    monkeypatch.delenv("QBRACELET_ORDER_CAP", raising=False)
    claims = [
        CongruenceClaim("X1", partition_source(), 5, 4, 5,
                        default_n_max=1),
        CongruenceClaim("X2", euler_source(1), 1, 0, 2,
                        rhs_source=euler_source(1), rhs_sign=-1, default_n_max=10),
        CongruenceClaim("X3", euler_source(1), 1, 0, None,
                        rhs_source=quintic_euler_source(), default_n_max=30),
        # planted: (q;q) has odd coefficients at q^5 and q^7
        CongruenceClaim("X4", euler_source(1), 1, 3, 2,
                        default_n_max=5),
        # planted: p(5) = 7 but b_5(5) = 6
        CongruenceClaim("X5", partition_source(), 1, 0, 3,
                        rhs_source=lregular_source(5), default_n_max=8),
        # planted: a constant right side of 1, but p(4) = 5 ≡ 0 (mod 5)
        CongruenceClaim("X6", partition_source(), 5, 4, 5,
                        rhs_source=product_source(ProductSpec()), default_n_max=1),
        # past the default mod-M order cap: 10 * 5000 + 6 > 50,000
        CongruenceClaim("X7", bracelet_source(5), 10, 6, 2,
                        default_n_max=5000),
    ]
    _, issues = resolve_selection(["C16[p=5,r=1,a=1,j=1]", "C99"])
    reports = verify(claims)
    reports += [issue_report(issue) for issue in issues]
    reports = [VerificationReport(**{**r._asdict(), "elapsed_ms": 0.0}) for r in reports]
    _print_reports("text", reports)
    assert capsys.readouterr().out == RENDERED_TEXT
    _print_reports("csv", reports)
    assert capsys.readouterr().out == RENDERED_CSV
