"""Command-line front end: coefficient dumps, dissections, claim
verification, and bounded congruence search.  Every result is printed by
:func:`_emit`, the one writer of text, JSON and CSV."""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from collections import Counter
from itertools import chain

import click

from .claims import default_catalog, int_str_limit, printable, resolve_selection
from .generators import gf2_bits
from .rings import EXACT, CoefficientRing, Mod
from .sources import bracelet_source, expand_source, parse_source
from .verify import (
    issue_report,
    order_cap,
    progression,
    reports_to_json,
    vanishing_bits,
    vanishing_progressions,
    verify,
)


def _check_cap(order: int, ring: CoefficientRing) -> None:
    try:
        cap = order_cap(ring)
    except ValueError as exc:  # a malformed QBRACELET_ORDER_CAP
        raise click.ClickException(str(exc)) from None
    if order > cap:
        shown = order if printable(order) else f"of more than {int_str_limit()} digits"
        raise click.ClickException(
            f"required order {shown} exceeds the cap {cap} "
            f"(override with QBRACELET_ORDER_CAP)"
        )


def _emit(fmt: str, text_lines, json_text, header: list[str], rows) -> None:
    """Print one result as FMT: the TEXT_LINES, the string JSON_TEXT()
    returns, or a CSV table of HEADER and ROWS.  Only the chosen one is
    built, and nothing else writes to stdout."""
    if fmt == "json":
        click.echo(json_text())
    elif fmt == "csv":
        out = io.StringIO()
        csv.writer(out).writerows([header, *rows])
        click.echo(out.getvalue(), nl=False)
    else:
        click.echo("\n".join(text_lines))


def _print_progression(source: str, mod: int | None, fmt: str, order: int,
                       step: int, residue: int, meta: dict) -> None:
    """Print coefficients 0..ORDER of the progression STEP*n + RESIDUE of
    SOURCE, with META added to the JSON object.  Bad input, or a
    coefficient too long to print, is a one-line error."""
    last = step * order + residue
    try:
        ring = CoefficientRing(mod)
        _check_cap(last, ring)
        src = parse_source(source)
        series = expand_source(src, ring, last)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None
    coeffs = progression(series, step, residue, order)
    if not printable(max(map(abs, coeffs))):
        n = next(n for n, c in enumerate(coeffs) if not printable(c))
        raise click.ClickException(
            f"the coefficient of q^{step * n + residue} has more than "
            f"{int_str_limit()} digits"
        )
    _emit(
        fmt,
        (" ".join(map(str, cs)) for cs in [coeffs]),  # joined only for text
        lambda: json.dumps({"source": src.key(), "modulus": mod, "order": order,
                            **meta, "coefficients": coeffs}, sort_keys=True),
        ["n", "coefficient"],
        enumerate(coeffs),
    )


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text"
)


@click.group()
def main() -> None:
    """q-series expansion and congruence verification for partition families.

    Sources are named like: partition, euler[:t], quintic_euler, lregular:L,
    bracelet:K, brokendiamond:K, product:SIGN,OFFSET,STEP,EXP[;...].
    """


@main.command()
@click.argument("source")
@click.argument("n", type=int)
@click.option("--mod", type=int, default=None, help="Reduce coefficients mod M.")
@_format_option
def coeffs(source: str, n: int, mod: int | None, fmt: str) -> None:
    """Print coefficients 0..N of SOURCE."""
    if n < 0:
        raise click.ClickException("N must be >= 0")
    _print_progression(source, mod, fmt, n, 1, 0, {})


@main.command()
@click.argument("source")
@click.argument("step", type=int)
@click.argument("residue", type=int)
@click.option("-N", "--order", "order", type=int, default=50,
              help="Order of the dissected series (default 50).")
@click.option("--mod", type=int, default=None, help="Reduce coefficients mod M.")
@_format_option
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
    _print_progression(
        source, mod, fmt, order, step, residue, {"step": step, "residue": residue}
    )


def _report_lines(reports):
    for r in reports:
        label = r.description or r.claim_id
        ce = r.counterexample or {}
        if r.status == "pass":
            yield f"{r.claim_id}: {label}: PASS n≤{r.n_checked}"
        elif r.status == "fail":
            yield (f"{r.claim_id}: {label}: FAIL at n={ce.get('n')} "
                   f"(value {ce.get('value')})")
        else:  # vacuous or error
            yield f"{r.claim_id}: {r.status.upper()} ({r.message})"
    counts = sorted(Counter(r.status for r in reports).items())
    yield f"-- {len(reports)} claims: " + ", ".join(f"{v} {k}" for k, v in counts)


def _print_reports(fmt: str, reports) -> None:
    _emit(
        fmt,
        _report_lines(reports),
        lambda: reports_to_json(reports),
        ["claim_id", "status", "n_checked", "truncation", "counterexample_n",
         "counterexample_value", "elapsed_ms"],
        (
            [r.claim_id, r.status, r.n_checked, r.truncation,
             (r.counterexample or {}).get("n", ""),
             (r.counterexample or {}).get("value", ""), r.elapsed_ms]
            for r in reports
        ),
    )


@main.command(name="verify")
@click.option("--claims", "claim_ids", multiple=True,
              help="Claim ids, e.g. C6 or C15[p=5,r=2,a=1,i=1]; repeatable.")
@click.option("--all", "run_all", is_flag=True, help="Run the whole catalog.")
@click.option("--nmax", type=click.IntRange(min=0), default=None,
              help="Check n <= NMAX for every claim (default: per-claim).")
@_format_option
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
    selected, issues = (default_catalog(), []) if run_all else resolve_selection(ids)
    _check_cap(0, EXACT)  # a malformed cap fails even a run that expands nothing
    reports = verify(selected, n_max=nmax)
    reports.extend(issue_report(issue) for issue in issues)
    _print_reports(fmt, reports)
    if any(r.status in ("fail", "error") for r in reports):
        sys.exit(1)


@main.command()
@click.argument("k", type=int)
@click.option("--amax", type=int, required=True, help="Largest progression step.")
@click.option("--mod", "moduli", type=int, multiple=True, required=True,
              help="Modulus to test; repeatable.")
@click.option("--nmax", type=click.IntRange(min=0), default=100, show_default=True,
              help="Check n <= NMAX along each progression.")
@_format_option
def search(k: int, amax: int, moduli: tuple[int, ...], nmax: int, fmt: str) -> None:
    """Find progressions (A <= AMAX, B < A) with B_K(An+B) ≡ 0 mod M for all
    checked n.  Bounded evidence only: candidates, not theorems."""
    if k < 3:
        raise click.ClickException("k must be >= 3")
    if amax < 1:
        raise click.ClickException("amax must be >= 1")
    if min(moduli) < 2:
        raise click.ClickException("moduli must be >= 2")
    order = amax * nmax + amax - 1
    _check_cap(order, Mod(max(moduli)))
    source = bracelet_source(k)
    found = []
    for m in sorted(set(moduli)):
        if m == 2:  # the bitset of the eta map, which is all of B_k's normal form
            bits = gf2_bits(dict(source.spec.normal_form().eta), order)
            pairs = vanishing_bits(bits, order, amax, nmax)
        else:
            series = expand_source(source, Mod(m), order)
            pairs = vanishing_progressions(series, amax, nmax)
        found += ((k, step, residue, m, nmax) for step, residue in pairs)
    note = "candidate (bounded evidence only)"
    header = ["k", "step", "residue", "modulus", "n_checked"]
    _emit(
        fmt,
        chain(
            (f"B_{k}({a}n+{b}) ≡ 0 (mod {m})  [{note}, n≤{nmax}]"
             for _, a, b, m, _ in found),
            [f"-- {len(found)} candidates"],
        ),
        lambda: json.dumps([dict(zip(header, f), note=note) for f in found],
                           sort_keys=True),
        header,
        found,
    )


if __name__ == "__main__":
    main()
