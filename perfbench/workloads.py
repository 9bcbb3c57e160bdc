"""The benchmark's workloads: seeded inputs, one timed iteration, output checks.

Each workload is built from the seed alone and keeps its generated inputs in
``inputs`` so that any run can be replayed.  ``prepare`` computes the expected
outputs by an independent route (or loads the seed commit's outputs from
``golden/``) before anything is timed.  ``run`` is one timed iteration and goes
through the program's public entry points, looked up on their modules at call
time so that the tracer's rebinding sees them.  ``check`` returns the number
of operations the iteration attempted and how many of them failed.

Why these four:

* ``verify_all`` is ``qbracelet verify --all``, the users' headline run; it is
  dominated by general-modulus ``pow`` and ``invert`` at large order.
* ``search_mod2`` is the ``search`` CLI at the modular order cap over Z/2: the
  mod-2 kernel at top order plus the progression scan.
* ``coeffs_exact`` is the ``coeffs`` CLI at the exact order cap: the bignum
  kernel and output formatting, with no modular kernel at all.
* ``product_mix`` requests generalized ``product:`` sources twice through one
  ``SeriesCache``, the second time with the factors permuted: the definitional
  ``products`` route, composite moduli and cache keying.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _module(name: str):
    return sys.modules[f"qbracelet.{name}"]


def _invoke(argv: list[str]):
    """Run the qbracelet CLI in-process; returns (exit code, stdout, error)."""
    from click.testing import CliRunner

    result = CliRunner().invoke(_module("cli").main, argv)
    error = None
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        error = f"{type(result.exception).__name__}: {result.exception}"
    return result.exit_code, result.stdout, error


_ELAPSED = re.compile(r'"elapsed_ms": [^,\n]+')


def strip_elapsed(report_json: str) -> str:
    """Report JSON with every ``elapsed_ms`` value replaced by null."""
    return _ELAPSED.sub('"elapsed_ms": null', report_json)


class VerifyAll:
    """``verify(default_catalog())``, the same as
    ``qbracelet verify --all --format json``.  Fixed: the seed is unused."""

    def __init__(self, seed: int) -> None:
        self.inputs = {"argv": ["verify", "--all", "--format", "json"]}

    def prepare(self) -> None:
        self.golden = (GOLDEN / "verify_all.json").read_text().rstrip("\n")
        self.golden_reports = json.loads(self.golden)
        self.ops_per_iteration = len(self.golden_reports)

    def run(self) -> str:
        engine = _module("verify")
        return engine.reports_to_json(engine.verify(_module("claims").default_catalog()))

    def check(self, text: str) -> tuple[int, int, list[str]]:
        expected = self.golden_reports
        got = strip_elapsed(text)
        if got == self.golden and all(r["status"] == "pass" for r in expected):
            return len(expected), 0, []
        reports = json.loads(got)
        failed = abs(len(reports) - len(expected)) + sum(
            a != b or a["status"] != "pass" for a, b in zip(reports, expected)
        )
        return len(expected), max(failed, 1), [
            "verify --all report differs from the seed commit's output"
        ]


# Bracelet orders K for search, in three tiers of similar cost (measured
# interleaved at the seed commit: the tiers' calls take about 0.88, 1.0 and
# 1.06 times the median call); one K per tier keeps every seed's total close.
SEARCH_TIERS = ((6, 8, 16), (5, 12, 17, 18, 24), (7, 9, 10, 11, 13, 14, 20))
# amax * nmax + amax - 1 = 48,039, just under the 50,000 modular order cap
SEARCH_OPTIONS = ["--amax", "40", "--nmax", "1200", "--mod", "2", "--format", "json"]


class SearchMod2:
    """``qbracelet search K --amax 40 --nmax 1200 --mod 2`` for three K."""

    ops_per_iteration = len(SEARCH_TIERS)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        ks = [rng.choice(tier) for tier in SEARCH_TIERS]
        rng.shuffle(ks)
        self.inputs = {"argv": [["search", str(k), *SEARCH_OPTIONS] for k in ks]}

    def prepare(self) -> None:
        self.golden = json.loads((GOLDEN / "search_mod2.json").read_text())

    def run(self) -> list:
        return [_invoke(argv) for argv in self.inputs["argv"]]

    def check(self, results: list) -> tuple[int, int, list[str]]:
        failed, messages = 0, []
        for argv, (code, out, error) in zip(self.inputs["argv"], results):
            k = int(argv[1])
            problem = error or (f"exit code {code}" if code else None)
            if problem is None:
                found = json.loads(out)
                pairs = [[c["step"], c["residue"]] for c in found]
                if pairs != self.golden[str(k)]:
                    problem = "candidates differ from the seed commit's"
                elif any((c["k"], c["modulus"], c["n_checked"]) != (k, 2, 1200)
                         for c in found):
                    problem = "candidate fields are wrong"
                elif k == 5 and not {(10, 6), (10, 8)} <= {tuple(p) for p in pairs}:
                    problem = "B_5(10n+6), B_5(10n+8) not found"
            if problem:
                failed += 1
                messages.append(f"search {k}: {problem}")
        return len(results), failed, messages


COEFFS_ORDER = 2000  # the exact-integer order cap
COEFFS_CHECK_ORDER = 150
COEFFS_CHECK_PRIME = 1_000_003  # the whole output is also checked modulo this
# At order 2000 an exact bracelet:K expansion costs about a + b*K seconds
# (K = 3..40, within the timing noise), so two bracelet sources whose orders
# sum to COEFFS_BRACELET_SUM cost the same for every seed.  The smaller order
# is drawn from COEFFS_BRACELET_SMALL, which keeps the larger one, and with it
# the peak memory, in a narrow band.
COEFFS_BRACELET_SUM = 30
COEFFS_BRACELET_SMALL = (3, 10)


def _definition_spec(products, family: str, param: int):
    """The defining product of a partition family, factor by factor."""
    if family == "lregular":  # (q^L;q^L)/(q;q)
        return products.ProductSpec.of((-1, param, param, 1), (-1, 1, 1, -1))
    if family == "brokendiamond":  # (-q;q)/((q;q)^2 (-q^m;q^m)), m = 2k+1
        m = 2 * param + 1
        return products.ProductSpec.of((1, 1, 1, 1), (-1, 1, 1, -2), (1, m, m, -1))
    return _module("generators").bracelet_definition_spec(param)


class CoeffsExact:
    """``qbracelet coeffs SRC 2000`` over the exact integers for partition,
    one l-regular, one broken-diamond and two bracelet sources."""

    ops_per_iteration = 5

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        k = rng.randint(*COEFFS_BRACELET_SMALL)
        sources = [
            "partition",
            f"lregular:{rng.randint(2, 16)}",
            f"brokendiamond:{rng.randint(1, 10)}",
            f"bracelet:{k}",
            f"bracelet:{COEFFS_BRACELET_SUM - k}",
        ]
        rng.shuffle(sources)
        self.inputs = {"argv": [["coeffs", s, str(COEFFS_ORDER)] for s in sources]}

    def prepare(self) -> None:
        """Per source: the prefix from the defining product (or the pentagonal
        recurrence), and all coefficients from the modular kernel path."""
        products, rings, sources = _module("products"), _module("rings"), _module("sources")
        self.expected = {}
        for argv in self.inputs["argv"]:
            family, _, param = argv[1].partition(":")
            if family == "partition":
                prefix = _module("oracles").partition_numbers(COEFFS_CHECK_ORDER)
            else:
                spec = _definition_spec(products, family, int(param))
                prefix = products.product_series(spec, COEFFS_CHECK_ORDER, rings.EXACT).coeffs
            residues = sources.expand_source(
                sources.parse_source(argv[1]), rings.Mod(COEFFS_CHECK_PRIME), COEFFS_ORDER
            ).coeffs
            self.expected[argv[1]] = (prefix, residues)

    def run(self) -> list:
        return [_invoke(argv) for argv in self.inputs["argv"]]

    def check(self, results: list) -> tuple[int, int, list[str]]:
        failed, messages = 0, []
        for argv, (code, out, error) in zip(self.inputs["argv"], results):
            problem = error or (f"exit code {code}" if code else None)
            if problem is None:
                coeffs = [int(c) for c in out.split()]
                prefix, residues = self.expected[argv[1]]
                if len(coeffs) != COEFFS_ORDER + 1:
                    problem = f"{len(coeffs)} coefficients"
                elif coeffs[: COEFFS_CHECK_ORDER + 1] != prefix:
                    problem = "prefix differs from the defining product"
                elif [c % COEFFS_CHECK_PRIME for c in coeffs] != residues:
                    problem = f"differs from the expansion mod {COEFFS_CHECK_PRIME}"
            if problem:
                failed += 1
                messages.append(f"coeffs {argv[1]}: {problem}")
        return len(results), failed, messages


PRODUCT_RINGS = (2, 5, 7, 25, 121, 12, None)  # None: the exact integers
PRODUCT_SPECS_PER_RING = 6
PRODUCT_ORDER_MOD = 600
PRODUCT_ORDER_EXACT = 300
# Definitional work of one iteration, in binomial steps (see _binomial_steps);
# every seed's draw is held within PRODUCT_WORK_BAND of it.
PRODUCT_WORK = 5_500_000
PRODUCT_WORK_BAND = 0.01
PRODUCT_CHECK_ORDER = 100


def _binomial_steps(offset: int, step: int, n: int) -> int:
    """Inner-loop steps of expanding (±q^offset; q^step) to order n one
    binomial at a time: each binomial 1 ± q^m touches indices m..n."""
    return sum(n - m + 1 for m in range(offset, n + 1, step))


def _draw_spec(rng: random.Random) -> list[tuple[int, int, int, int]]:
    factors: dict[tuple[int, int, int], int] = {}
    count = rng.randint(2, 4)
    while len(factors) < count:
        step = rng.randint(1, 25)
        base = (rng.choice((-1, 1)), rng.randint(1, step), step)
        factors.setdefault(base, rng.choice((-3, -2, -1, 1, 2, 3)))
    spec = [(*base, e) for base, e in factors.items()]
    if all(f[3] > 0 for f in spec):
        i = rng.randrange(count)
        spec[i] = (*spec[i][:3], -spec[i][3])
    return spec


def _spec_key(spec) -> str:
    return "product:" + ";".join(",".join(map(str, f)) for f in spec)


class ProductMix:
    """Seeded generalized products, each requested twice through one
    ``SeriesCache``: as drawn, then with its factors permuted."""

    ops_per_iteration = 2 * PRODUCT_SPECS_PER_RING * len(PRODUCT_RINGS)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(100_000):
            requests, work = [], 0
            for modulus in PRODUCT_RINGS * PRODUCT_SPECS_PER_RING:
                order = PRODUCT_ORDER_EXACT if modulus is None else PRODUCT_ORDER_MOD
                spec = _draw_spec(rng)
                permuted = rng.sample(spec, len(spec))
                builds = 1 if permuted == spec else 2
                work += builds * sum(_binomial_steps(f[1], f[2], order) for f in spec)
                requests.append({"source": _spec_key(spec),
                                 "permuted": _spec_key(permuted),
                                 "modulus": modulus, "order": order})
            if abs(work / PRODUCT_WORK - 1) <= PRODUCT_WORK_BAND:
                break
        else:
            raise RuntimeError("no product_mix draw within the work band")
        rng.shuffle(requests)
        self.inputs = {"requests": requests, "binomial_steps": work}

    def prepare(self) -> None:
        products, rings = _module("products"), _module("rings")
        self.expected = []
        for r in self.inputs["requests"]:
            spec = products.ProductSpec.parse(r["source"].partition(":")[2])
            exact = products.product_series(spec, PRODUCT_CHECK_ORDER, rings.EXACT)
            if r["modulus"] is not None:
                exact = exact.reduce_mod(r["modulus"])
            self.expected.append(exact.coeffs)

    def run(self) -> list:
        engine, sources, rings = _module("verify"), _module("sources"), _module("rings")
        cache = engine.SeriesCache()
        results = []
        for r in self.inputs["requests"]:
            ring = rings.EXACT if r["modulus"] is None else rings.Mod(r["modulus"])
            pair = []
            for key in (r["source"], r["permuted"]):
                try:
                    pair.append(cache.get(sources.parse_source(key), ring, r["order"]))
                except Exception as exc:  # counted as a failed operation
                    pair.append(f"{type(exc).__name__}: {exc}")
            results.append(pair)
        return results

    def check(self, results: list) -> tuple[int, int, list[str]]:
        failed, messages = 0, []
        for r, expected, pair in zip(self.inputs["requests"], self.expected, results):
            first = pair[0]
            for i, got in enumerate(pair):
                if isinstance(got, str):
                    problem = got
                elif len(got.coeffs) != r["order"] + 1:
                    problem = "wrong order"
                elif got.coeffs[: PRODUCT_CHECK_ORDER + 1] != expected:
                    problem = "prefix differs from exact-then-reduce"
                elif i == 1 and not isinstance(first, str) and got.coeffs != first.coeffs:
                    problem = "permuted request differs from the original"
                else:
                    continue
                failed += 1
                messages.append(f"{r['source' if i == 0 else 'permuted']}: {problem}")
        return 2 * len(results), failed, messages


WORKLOADS = {
    "verify_all": VerifyAll,
    "search_mod2": SearchMod2,
    "coeffs_exact": CoeffsExact,
    "product_mix": ProductMix,
}
