"""In-memory span recorder for the traced run, and the wrappers it installs.

A span is `[name, start, end, parent, request]`: `parent` indexes the same
list (-1 for a root) and `request` is the request id.  Times come from
`time.monotonic`, which is CLOCK_MONOTONIC on Linux and so comparable across
the processes of one machine; the traced CLI children rely on that.

Wrappers are installed only in a traced run.  Each wraps a public function at
a module boundary and is bound in the defining module and in every
`neutral_sampler` module that imported the same object by name (for example
both `basis.build_basis` and `transient.build_basis`).  Hit and miss counts
come from each `lru_cache`'s own `cache_info()`.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter


class Recorder:
    """Spans and counters of one process, kept in memory until it ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), None, parent, self.request])
        self._stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index][2] = time.monotonic()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span %d closed while %d is open" % (index, popped))

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)


def _spanned(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.call(name, fn, *args, **kwargs)
        if after is not None:
            after(result, args)
        return result
    return wrapper


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _on_miss(rec: Recorder, cached, counter: str, size=len):
    """Add size(result) to `counter` when the call was a cache miss."""
    state = {"misses": cached.cache_info().misses}

    def after(result, args):
        misses = cached.cache_info().misses
        if misses != state["misses"]:
            state["misses"] = misses
            rec.counts[counter] += size(result)
    return after


def _rebind(original, replacement):
    """Bind `replacement` wherever a neutral_sampler module holds `original`."""
    for name, module in list(sys.modules.items()):
        if name != "neutral_sampler" and not name.startswith("neutral_sampler."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


#: Cached functions whose cache_info() feeds a hit ratio: metric prefix,
#: module and attribute.
CACHED = (
    ("combinatorics.set_partitions", "combinatorics", "enumerate_set_partitions"),
    ("sampling.expansion", "sampling", "expansion_of_monomial_sampler"),
    ("moments.power_sum_moment", "moments", "power_sum_moment"),
    ("basis.build_basis", "basis", "build_basis"),
)


def install(rec: Recorder) -> dict:
    """Wrap the layer boundaries of the imported program; returns the
    original cached functions by metric prefix for `cache_stats`."""
    from neutral_sampler import (asymptotics, basis, combinatorics, moments,
                                 sampling, transient, verify)

    originals = {prefix: getattr(sys.modules["neutral_sampler." + mod], attr)
                 for prefix, mod, attr in CACHED}

    def wrap(module, attr, replacement_for):
        original = getattr(module, attr)
        _rebind(original, replacement_for(original))

    wrap(combinatorics, "enumerate_set_partitions", lambda f: _spanned(
        rec, "combinatorics.set_partitions", f,
        _on_miss(rec, f, "combinatorics.set_partitions.count")))
    wrap(sampling, "expansion_of_monomial_sampler", lambda f: _spanned(
        rec, "sampling.expansion", f, _on_miss(rec, f, "sampling.expansion.terms")))
    wrap(sampling, "monomial_sampler_expansion",
         lambda f: _spanned(rec, "sampling.evaluate", f))
    wrap(sampling, "monomial_sampler_bruteforce",
         lambda f: _spanned(rec, "sampling.bruteforce", f))
    wrap(sampling, "power_sum_product",
         lambda f: _counted(rec, "sampling.power_sum_product.calls", f))
    wrap(moments, "power_sum_moment",
         lambda f: _spanned(rec, "moments.power_sum_moment", f))
    wrap(moments, "esf_monomial_moment",
         lambda f: _counted(rec, "moments.esf.calls", f))
    wrap(basis, "build_basis", lambda f: _spanned(
        rec, "basis.build_basis", f, _on_miss(rec, f, "basis.elements")))
    wrap(basis, "inner_product", lambda f: _spanned(rec, "basis.inner_product", f))

    def scan(f):
        def after(rows, args):
            rec.counts["asymptotics.points"] += len(rows)
            rec.counts["asymptotics.uncertified_rows"] += sum(
                1 for r in rows if getattr(r, "underflow", False))
        return _spanned(rec, "asymptotics.scan", f, after)
    for attr in ("ldp_slope_scan", "moment_limit_scan", "lemma41_order_scan"):
        wrap(asymptotics, attr, scan)

    def suite(f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            rows = f(*args, **kwargs)
            while True:
                index = rec.open("verify")
                try:
                    row = next(rows)
                except StopIteration:
                    return
                finally:
                    rec.close(index)
                rec.counts["verify.checks"] += 1
                rec.counts["verify.failures"] += not row[1]
                yield row
        return wrapper
    wrap(verify, "run_suite", suite)

    ev = transient.SpectralEvaluator
    ev.__init__ = _counted(rec, "transient.evaluator.count", ev.__init__)
    ev.eigen_coefficients = _spanned(rec, "transient.eigen_coefficients",
                                     ev.eigen_coefficients)

    def finite_t(f):
        @functools.wraps(f)
        def wrapper(self, a, x, t):
            if isinstance(t, float) and math.isinf(t):
                return f(self, a, x, t)
            return rec.call("transient.combine", f, self, a, x, t)
        return wrapper
    ev.sampling_probability = finite_t(ev.sampling_probability)
    ev.moment = finite_t(ev.moment)
    return originals


def cache_stats(originals: dict) -> dict:
    """[hits, misses] of each wrapped lru_cache in this process."""
    return {prefix: [f.cache_info().hits, f.cache_info().misses]
            for prefix, f in originals.items()}


def cached_entries() -> int:
    """Entries held by every lru_cache of the imported program (0 when cold)."""
    total = 0
    for name, module in list(sys.modules.items()):
        if name == "neutral_sampler" or name.startswith("neutral_sampler."):
            for value in vars(module).values():
                if hasattr(value, "cache_info"):
                    total += value.cache_info().currsize
    return total


# -- analysis (harness side) ----------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    return [(s[2] - s[1]) - covered(children.get(i, ()), s[1], s[2])
            for i, s in enumerate(spans)]


def request_mismatches(spans, selfs, tol: float = 1e-6) -> int:
    """Requests whose self times do not sum to their root span's duration."""
    sums: dict[int, float] = {}
    roots: dict[int, float] = {}
    for s, own in zip(spans, selfs):
        sums[s[4]] = sums.get(s[4], 0.0) + own
        if s[3] < 0:
            roots[s[4]] = roots.get(s[4], 0.0) + (s[2] - s[1])
    return sum(1 for req, dur in roots.items() if abs(sums[req] - dur) > tol)


def by_name(spans, selfs) -> dict[str, list]:
    """name -> [calls, total self seconds]."""
    out: dict[str, list] = {}
    for s, own in zip(spans, selfs):
        acc = out.setdefault(s[0], [0, 0.0])
        acc[0] += 1
        acc[1] += own
    return out
