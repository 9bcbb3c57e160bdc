"""Outside-in tracing of qbracelet for the benchmark's per-layer metrics.

The program has no timing hooks of its own, so the tracer rebinds the public
functions of each layer to timing wrappers.  A function imported by name into
other modules (``from .theta import euler_series``) is looked up there, not in
its home module, so every loaded ``qbracelet`` module attribute that holds the
original object is rebound.  Methods are rebound on their class and the CLI
commands on their click ``Command`` objects.  Spans are kept in memory as
``[name, start, end, parent index, attrs]`` lists; :meth:`Tracer.uninstall`
restores every binding.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SMALL_ORDER = 1024  # kernel-call size bucket edge, in n_out
MODULUS_CLASSES = ("m2", "prime", "prime_power", "composite")

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS: list[tuple[str, str, str]] = (
    [
        (f"kernel.conv_mod.{cls}.{field}", unit, "lower")
        for cls in MODULUS_CLASSES
        for field, unit in (("calls", "count"), ("s", "s"), ("coeffs_out", "count"))
    ]
    + [
        ("kernel.conv_exact.calls", "count", "lower"),
        ("kernel.conv_exact.s", "s", "lower"),
        ("kernel.conv_exact.coeffs_out", "count", "lower"),
    ]
    + [
        (f"series.{op}.{field}", unit, "lower")
        for op in ("mul", "pow", "invert")
        for field, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("theta.euler_series.calls", "count", "lower"),
        ("theta.euler_series.s", "s", "lower"),
        ("products.pochhammer_base.calls", "count", "lower"),
        ("products.pochhammer_base.s", "s", "lower"),
        ("products.pochhammer_base.binomials", "count", "lower"),
        ("sources.expand.calls", "count", "lower"),
        ("sources.expand.s", "s", "lower"),
        ("verify.cache.gets", "count", "lower"),
        ("verify.cache.builds", "count", "lower"),
        ("verify.cache.hit_ratio", "ratio", "higher"),
        ("verify.evaluate_s", "s", "lower"),
        ("claims.catalog_s", "s", "lower"),
        ("cli.scan_s", "s", "lower"),
        ("cli.output_s", "s", "lower"),
        ("rings.normalize.calls", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def modulus_class(m: int) -> str:
    """m2, prime, prime_power or composite."""
    if m == 2:
        return "m2"
    p = 2
    while m % p:
        p += 1
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        return "composite"
    return "prime" if k == 1 else "prime_power"


def _kernel_mod_attrs(x, y, n_out, m):
    return (modulus_class(m), n_out)


def _kernel_exact_attrs(x, y, n_out):
    return ("exact", n_out)


def _pochhammer_attrs(sign, offset, step, n, ring=None):
    # number of binomials (1 + sign q^m), m = offset, offset + step, ... <= n
    return (n - offset) // step + 1 if n >= offset else 0


def _expand_attrs(source, ring, order):
    return (source.key(), ring.key(), order)


class Tracer:
    """Span recorder that rebinds qbracelet's layer entry points."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.normalize_calls = 0
        self.unbound: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrapper(self, fn, name, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    attrs(*args, **kwargs) if attrs else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_attr(self, owner, attr, name, attrs=None) -> None:
        if owner is None or not hasattr(owner, attr):
            self.unbound.append(name)
            return
        self._set(owner, attr, self._wrapper(getattr(owner, attr), name, attrs))

    def _wrap_everywhere(self, home, attr, name, attrs=None) -> None:
        original = getattr(sys.modules.get(home), attr, None)
        if original is None:
            self.unbound.append(name)
            return
        traced = self._wrapper(original, name, attrs)
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "qbracelet":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, traced)

    def install(self) -> None:
        mods = sys.modules
        kernel = mods["qbracelet._kernel"]
        # series.py looks the kernels up on the _kernel module at every call
        self._wrap_attr(kernel, "conv_mod", "kernel.conv_mod", _kernel_mod_attrs)
        self._wrap_attr(kernel, "conv_exact", "kernel.conv_exact", _kernel_exact_attrs)
        series_cls = mods["qbracelet.series"].TruncatedSeries
        self._wrap_attr(series_cls, "__mul__", "series.mul")
        self._wrap_attr(series_cls, "pow", "series.pow")
        self._wrap_attr(series_cls, "invert", "series.invert")
        self._wrap_everywhere("qbracelet.theta", "euler_series", "theta.euler_series")
        self._wrap_everywhere(
            "qbracelet.products", "pochhammer_base", "products.pochhammer_base",
            _pochhammer_attrs,
        )
        self._wrap_everywhere(
            "qbracelet.sources", "expand_source", "sources.expand", _expand_attrs
        )
        # the package __init__ shadows the engine module with the verify function
        engine = mods["qbracelet.verify"]
        self._wrap_attr(engine.SeriesCache, "get", "verify.cache.get")
        self._wrap_everywhere("qbracelet.verify", "verify", "verify.verify")
        self._wrap_everywhere(
            "qbracelet.claims", "default_catalog", "claims.default_catalog"
        )
        cli = mods.get("qbracelet.cli")
        if cli is not None:
            self._wrap_attr(cli.search, "callback", "cli.search")
            self._wrap_attr(cli.coeffs, "callback", "cli.coeffs")
        ring_cls = mods["qbracelet.rings"].CoefficientRing
        original = ring_cls.normalize
        tracer = self

        @functools.wraps(original)
        def normalize(ring, c):
            tracer.normalize_calls += 1
            return original(ring, c)

        self._set(ring_cls, "normalize", normalize)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _ancestor(self, i: int, names: tuple[str, ...]) -> str | None:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return self.spans[parent][0]
            parent = self.spans[parent][3]
        return None

    def layer_metrics(self, lo: int, hi: int, normalize_calls: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded in [lo, hi)."""
        m: dict[str, float] = {name: 0 for name, _, _ in LAYER_METRICS}
        spans = self.spans
        child_s: dict[int, float] = defaultdict(float)
        for i in range(lo, hi):
            parent = spans[i][3]
            if parent >= 0:
                child_s[parent] += spans[i][2] - spans[i][1]
        build_under = {"verify.verify": 0.0, "cli.coeffs": 0.0}
        get_under_search = 0.0
        totals = defaultdict(float)
        for i in range(lo, hi):
            name, start, end, parent, attrs = spans[i]
            d = end - start
            totals[name] += d
            if name in ("kernel.conv_mod", "kernel.conv_exact"):
                cls, n_out = attrs
                prefix = "kernel.conv_exact" if cls == "exact" else f"kernel.conv_mod.{cls}"
                m[prefix + ".calls"] += 1
                m[prefix + ".s"] += d
                m[prefix + ".coeffs_out"] += n_out + 1
            elif name.startswith("series."):
                m[name + ".calls"] += 1
                m[name + ".self_s"] += d - child_s[i]
            elif name == "products.pochhammer_base":
                m[name + ".calls"] += 1
                m[name + ".s"] += d
                m[name + ".binomials"] += attrs
            elif name in ("theta.euler_series", "sources.expand"):
                m[name + ".calls"] += 1
                m[name + ".s"] += d
                if name == "sources.expand":
                    if parent >= 0 and spans[parent][0] == "verify.cache.get":
                        m["verify.cache.builds"] += 1
                    owner = self._ancestor(i, tuple(build_under))
                    if owner is not None:
                        build_under[owner] += d
            elif name == "verify.cache.get":
                m["verify.cache.gets"] += 1
                if self._ancestor(i, ("cli.search",)) is not None:
                    get_under_search += d
        gets = m["verify.cache.gets"]
        if gets:
            m["verify.cache.hit_ratio"] = (gets - m["verify.cache.builds"]) / gets
        m["verify.evaluate_s"] = totals["verify.verify"] - build_under["verify.verify"]
        m["claims.catalog_s"] = totals["claims.default_catalog"]
        m["cli.scan_s"] = totals["cli.search"] - get_under_search
        m["cli.output_s"] = totals["cli.coeffs"] - build_under["cli.coeffs"]
        m["rings.normalize.calls"] = normalize_calls
        return m

    def build_table(self, lo: int, hi: int) -> list[dict]:
        """Series builds in [lo, hi), slowest first."""
        rows = [
            {"source": s[4][0], "ring": s[4][1], "order": s[4][2],
             "s": s[2] - s[1]}
            for s in self.spans[lo:hi]
            if s[0] == "sources.expand"
        ]
        return sorted(rows, key=lambda r: -r["s"])

    def kernel_buckets(self, lo: int, hi: int, backend: str) -> list[dict]:
        """Kernel calls in [lo, hi) by (modulus class, size, backend)."""
        buckets: dict[tuple[str, str], list] = {}
        for name, start, end, _, attrs in self.spans[lo:hi]:
            if not name.startswith("kernel."):
                continue
            cls, n_out = attrs
            size = f"n_out<={SMALL_ORDER}" if n_out <= SMALL_ORDER else f"n_out>{SMALL_ORDER}"
            row = buckets.setdefault((cls, size), [0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += n_out + 1
        return [
            {"class": cls, "size": size, "backend": backend,
             "calls": calls, "s": s, "coeffs_out": out}
            for (cls, size), (calls, s, out) in sorted(buckets.items())
        ]

    def span_dump(self, lo: int, hi: int) -> list[dict]:
        t0 = self.spans[lo][1] if hi > lo else 0.0
        return [
            {"name": s[0], "start": s[1] - t0, "end": s[2] - t0,
             "parent": s[3] - lo if s[3] >= lo else None, "attrs": s[4]}
            for s in self.spans[lo:hi]
        ]
