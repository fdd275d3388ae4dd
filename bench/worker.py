"""Run one round of benchmark requests in this fresh interpreter.

Reads `{"requests": [...], "trace": bool, "out_dir": str}` as JSON on stdin
and writes one JSON object on stdout: per-request latency, output and error,
the round's wall time, peak RSS, whether every program cache was empty
before the first request, and in a traced round the spans, counters and
cache statistics.  One client sends one request at a time (closed loop).

Run by `run.py`; the program is imported from `src` through PYTHONPATH.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import mpmath

import spans

CLI_TIMEOUT_S = 60
HERE = os.path.dirname(os.path.abspath(__file__))


def fmt(value):
    """Exact values as rationals, floats with 40 significant digits."""
    if value is None:
        return None
    if isinstance(value, (Fraction, int)):
        return str(value)
    return mpmath.nstr(value, 40)


def prepare(req: dict, ns, trace_path=None):
    """A zero-argument call for one request and a formatter for its result."""
    op = req["op"]
    if op == "cli":
        return _cli_call(req["argv"], trace_path), None
    eta = ns.IntegerPartition.parse(req["eta"])
    x = ns.FrequencyVector.parse(req["x"])
    if op == "t0":
        return (lambda: ns.sampling_probability(eta, x)), fmt
    theta = Fraction(req["theta"])
    if op == "transient":
        t = math.inf if req["t"] == "inf" else float(req["t"])
        tp = ns.TimePoint(t, theta)
        return (lambda: ns.transient_sampling_probability(eta, x, tp)), fmt
    k = Fraction(req["k"])
    if op == "ldp":
        def ldp_rows(rows):
            return [[str(r.theta), fmt(r.probability), fmt(r.slope),
                     fmt(r.abs_error), r.underflow] for r in rows]
        return (lambda: ns.ldp_slope_scan(req["n"], eta, k, [theta], x)), ldp_rows
    if op == "mls":
        regime = ns.RegimeSpec.logarithmic(k)

        def mls_rows(rows):
            return [[str(r.theta), fmt(r.computed), fmt(r.predicted),
                     fmt(r.error)] for r in rows]
        return (lambda: ns.moment_limit_scan(eta, x, regime, [theta])), mls_rows
    raise ValueError("unknown op %r" % op)


def _cli_call(argv, trace_path):
    if trace_path is None:
        cmd = [sys.executable, "-m", "neutral_sampler.cli"] + list(argv)
    else:
        cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_path] + list(argv)

    def call():
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        return {"rc": proc.returncode, "stdout": out, "stderr": err[-2000:]}
    return call


def main():
    spec = json.load(sys.stdin)
    import neutral_sampler as ns

    cold = spans.cached_entries() == 0
    rec = spans.Recorder() if spec["trace"] else None
    originals = spans.install(rec) if rec else {}
    trace_paths = [None] * len(spec["requests"])
    if rec and spec["requests"] and spec["requests"][0]["op"] == "cli":
        trace_paths = [os.path.join(spec["out_dir"], "cli-span-%d.json" % i)
                       for i in range(len(spec["requests"]))]
    calls = [prepare(req, ns, path) for req, path in zip(spec["requests"], trace_paths)]

    raw, latency, errors, child_caches = [], [], [], []
    begin = time.perf_counter()
    for i, (call, _) in enumerate(calls):
        if rec:
            rec.request = i
            root = rec.open("request")
        t0 = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # a failed request is counted, not fatal
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        latency.append(time.perf_counter() - t0)
        if rec:
            rec.close(root)
            if trace_paths[i] is not None:
                child_caches.append(
                    _adopt_child(rec, root, i, trace_paths[i], result))
        raw.append(result)
        errors.append(error)
    wall = time.perf_counter() - begin

    outputs = [None if r is None else (f(r) if f else r) for r, (_, f) in zip(raw, calls)]
    report = {
        "latency_s": latency,
        "outputs": outputs,
        "errors": errors,
        "wall_s": wall,
        "cold": cold,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if rec:
        caches = spans.cache_stats(originals)
        for child in filter(None, child_caches):
            for key, (hits, misses) in child.items():
                caches[key][0] += hits
                caches[key][1] += misses
        report.update(spans=rec.spans, counts=dict(rec.counts), caches=caches)
    json.dump(report, sys.stdout)


def _adopt_child(rec, root, request, path, result):
    """Append a traced CLI child's spans under the request span; returns
    the child's cache statistics (None when it wrote no trace)."""
    rec.counts["cli.nonzero_exits"] += 0 if result and result["rc"] == 0 else 1
    try:
        with open(path) as fh:
            child = json.load(fh)
    except FileNotFoundError:
        return None
    os.remove(path)
    offset = len(rec.spans)
    for name, start, end, parent, _ in child["spans"]:
        rec.spans.append([name, start, end,
                          root if parent < 0 else parent + offset, request])
    rec.counts.update(child["counts"])
    return child["caches"]


if __name__ == "__main__":
    main()
