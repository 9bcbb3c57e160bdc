"""Command-line front end: coefficient dumps, dissections, claim
verification, and bounded congruence search."""

from __future__ import annotations

import csv
import io
import json
import re
import sys

import click

from .claims import default_catalog, resolve_selection
from .rings import EXACT, CoefficientRing, Mod
from .sources import bracelet_source, expand_source, parse_source
from .verify import (
    RunConfig,
    SeriesCache,
    issue_report,
    progression,
    reports_to_json,
    verify,
)


def _config(**kwargs) -> RunConfig:
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:  # a malformed QBRACELET_ORDER_CAP
        raise click.ClickException(str(exc)) from None


def _check_cap(order: int, ring: CoefficientRing, config: RunConfig) -> None:
    cap = config.cap_for(ring)
    if order > cap:
        raise click.ClickException(
            f"required order {order} exceeds the cap {cap} "
            f"(override with QBRACELET_ORDER_CAP)"
        )


def _expand(source: str, mod: int | None, order: int):
    """Parse SOURCE and expand it to ORDER; bad input is a one-line error."""
    config = _config()
    try:
        ring = EXACT if mod is None else Mod(mod)
        _check_cap(order, ring, config)
        src = parse_source(source)
        return src, expand_source(src, ring, order)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None


def _echo_csv(header: list[str], rows) -> None:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    click.echo(out.getvalue(), nl=False)


def _dump_coefficients(coeffs: list[int], fmt: str, meta: dict) -> None:
    if fmt == "text":
        click.echo(" ".join(str(c) for c in coeffs))
    elif fmt == "json":
        click.echo(json.dumps({**meta, "coefficients": coeffs}, sort_keys=True))
    else:
        _echo_csv(["n", "coefficient"], enumerate(coeffs))


@click.group()
def main() -> None:
    """q-series expansion and congruence verification for partition families.

    Sources are named like: partition, euler[:t], lregular:L, bracelet:K,
    brokendiamond:K, product:SIGN,OFFSET,STEP,EXP[;...].
    """


@main.command()
@click.argument("source")
@click.argument("n", type=int)
@click.option("--mod", type=int, default=None, help="Reduce coefficients mod M.")
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text"
)
def coeffs(source: str, n: int, mod: int | None, fmt: str) -> None:
    """Print coefficients 0..N of SOURCE."""
    if n < 0:
        raise click.ClickException("N must be >= 0")
    src, series = _expand(source, mod, n)
    _dump_coefficients(
        series.coeffs, fmt, {"source": src.key(), "modulus": mod, "order": n}
    )


@main.command()
@click.argument("source")
@click.argument("step", type=int)
@click.argument("residue", type=int)
@click.option("-N", "--order", "order", type=int, default=50,
              help="Order of the dissected series (default 50).")
@click.option("--mod", type=int, default=None, help="Reduce coefficients mod M.")
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text"
)
def dissect(
    source: str, step: int, residue: int, order: int, mod: int | None, fmt: str
) -> None:
    """Print coefficients 0..N of the progression STEP*n + RESIDUE of SOURCE."""
    if order < 0:
        raise click.ClickException("order must be >= 0")
    if step < 1:
        raise click.ClickException("STEP must be >= 1")
    if not 0 <= residue < step:
        raise click.ClickException("RESIDUE must satisfy 0 <= RESIDUE < STEP")
    src, series = _expand(source, mod, step * order + residue)
    _dump_coefficients(
        series.dissect(step, residue).coeffs,
        fmt,
        {
            "source": src.key(),
            "modulus": mod,
            "step": step,
            "residue": residue,
            "order": order,
        },
    )


def _verify_text(reports) -> None:
    for r in reports:
        label = r.description or r.claim_id
        if r.status == "pass":
            line = f"{r.claim_id}: {label}: PASS n≤{r.n_checked}"
        elif r.status == "fail":
            ce = r.counterexample or {}
            line = (
                f"{r.claim_id}: {label}: FAIL at n={ce.get('n')} "
                f"(value {ce.get('value')})"
            )
        elif r.status == "vacuous":
            line = f"{r.claim_id}: VACUOUS ({r.message})"
        else:
            line = f"{r.claim_id}: ERROR ({r.message})"
        click.echo(line)
    counts = {}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    click.echo(f"-- {len(reports)} claims: {summary}")


def _verify_csv(reports) -> None:
    _echo_csv(
        [
            "claim_id",
            "status",
            "n_checked",
            "truncation",
            "counterexample_n",
            "counterexample_value",
            "elapsed_ms",
        ],
        (
            [
                r.claim_id,
                r.status,
                r.n_checked,
                r.truncation,
                (r.counterexample or {}).get("n", ""),
                (r.counterexample or {}).get("value", ""),
                r.elapsed_ms,
            ]
            for r in reports
        ),
    )


@main.command(name="verify")
@click.option("--claims", "claim_ids", multiple=True,
              help="Claim ids, e.g. C6 or C15[p=5,r=2,a=1,i=1]; repeatable.")
@click.option("--all", "run_all", is_flag=True, help="Run the whole catalog.")
@click.option("--nmax", type=click.IntRange(min=0), default=None,
              help="Check n <= NMAX for every claim (default: per-claim).")
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text"
)
def verify_cmd(
    claim_ids: tuple[str, ...], run_all: bool, nmax: int | None, fmt: str
) -> None:
    """Verify congruence claims; exit code 0 iff nothing failed or errored."""
    ids: list[str] = []
    for chunk in claim_ids:
        # split on commas that separate ids, not the ones inside [...]
        ids.extend(part for part in re.split(r",(?![^\[]*\])", chunk) if part)
    if run_all and claim_ids or not run_all and not ids:
        raise click.UsageError("select claims with --claims or pass --all, not both")
    if run_all:
        selected = default_catalog()
        issues = []
    else:
        selected, issues = resolve_selection(ids)
    config = _config(n_max=nmax)
    reports = verify(selected, config)
    reports.extend(issue_report(issue) for issue in issues)
    if fmt == "json":
        click.echo(reports_to_json(reports))
    elif fmt == "csv":
        _verify_csv(reports)
    else:
        _verify_text(reports)
    if any(r.status in ("fail", "error") for r in reports):
        sys.exit(1)


@main.command()
@click.argument("k", type=int)
@click.option("--amax", type=int, required=True, help="Largest progression step.")
@click.option("--mod", "moduli", type=int, multiple=True, required=True,
              help="Modulus to test; repeatable.")
@click.option("--nmax", type=click.IntRange(min=0), default=100, show_default=True,
              help="Check n <= NMAX along each progression.")
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text"
)
def search(k: int, amax: int, moduli: tuple[int, ...], nmax: int, fmt: str) -> None:
    """Find progressions (A <= AMAX, B < A) with B_K(An+B) ≡ 0 mod M for all
    checked n.  Bounded evidence only: candidates, not theorems."""
    if k < 3:
        raise click.ClickException("k must be >= 3")
    if amax < 1:
        raise click.ClickException("amax must be >= 1")
    if min(moduli) < 2:
        raise click.ClickException("moduli must be >= 2")
    config = _config()
    order = amax * nmax + amax - 1
    _check_cap(order, Mod(max(moduli)), config)
    source = bracelet_source(k)
    cache = SeriesCache()
    found = []
    for m in sorted(set(moduli)):
        series = cache.get(source, Mod(m), order)
        for step in range(1, amax + 1):
            for residue in range(step):
                if not any(progression(series, step, residue, nmax)):
                    found.append(
                        {"k": k, "step": step, "residue": residue, "modulus": m,
                         "n_checked": nmax}
                    )
    note = "candidate (bounded evidence only)"
    if fmt == "json":
        click.echo(json.dumps([{**f, "note": note} for f in found], sort_keys=True))
    elif fmt == "csv":
        header = ["k", "step", "residue", "modulus", "n_checked"]
        _echo_csv(header, ([f[name] for name in header] for f in found))
    else:
        for f in found:
            click.echo(
                f"B_{f['k']}({f['step']}n+{f['residue']}) ≡ 0 "
                f"(mod {f['modulus']})  [{note}, n≤{f['n_checked']}]"
            )
        click.echo(f"-- {len(found)} candidates")


if __name__ == "__main__":
    main()
