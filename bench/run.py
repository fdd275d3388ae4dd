"""Layered benchmark of neutral_sampler.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src`.
NAME is one of workloads.WORKLOADS, or `all` to run each in turn.

Every workload is closed-loop: one client, one request at a time.  A run is
a sequence of rounds, each in a fresh interpreter with no warm-up, so every
cache starts cold, as it does for each CLI call and each new theta.

With --trace 0 the run measures set-up (interpreter launch until the package
is imported), probes max_n_in_budget in killed-at-budget children, then runs
rounds until S seconds have passed and reports the end-to-end metrics.  With
--trace 1 it runs a fixed number of rounds twice each, untraced and traced,
and reports the per-layer metrics of `layers.py`; all spans are written to
.bench_out/trace-NAME.json.  Either way every output is checked
(`checks.py`) and the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import checks
import layers
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
ENV = dict(os.environ, PYTHONPATH=SRC)

SETUP_LAUNCHES = 7
WORKER_TIMEOUT_S = 120
#: Rounds of the traced run; fixed so that its counts repeat exactly.
TRACE_ROUNDS = {"t0_distribution": 2, "transient_grid": 2,
                "ldp_theta_scan": 1, "cli_mix": 1}
#: The tail percentile of each workload: the highest of p50, p75, p90, p95
#: that leaves at least ten requests beyond it in one round (in the whole
#: run for cli_mix, whose rounds are too small).  It is fixed, not chosen per
#: run, so that a faster program is still compared at the same percentile.
TAIL_PERCENTILE = {"t0_distribution": 95.0, "transient_grid": 95.0,
                   "ldp_theta_scan": 90.0, "cli_mix": 75.0}
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("max_n_in_budget", "n"),
)


# -- environment -------------------------------------------------------------

def git_commit(root: str):
    """HEAD of a git checkout at `root`, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(seed: int) -> dict:
    import mpmath

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "neutral_sampler")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"commit": git_commit(ROOT), "source_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "seed": seed}


# -- set-up and probe ------------------------------------------------------------

def measure_setup(launches: int = SETUP_LAUNCHES) -> dict:
    """Medians over fresh interpreters of: launch to first statement
    (interpreter), first statement to package imported (import), and their
    sum (setup)."""
    code = ("import time; t = time.monotonic(); import neutral_sampler; "
            "print(t, time.monotonic())")
    interp, imports, total = [], [], []
    for _ in range(launches):
        launched = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=ENV, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        started, ready = map(float, done.stdout.split())
        interp.append(started - launched)
        imports.append(ready - started)
        total.append(ready - launched)
    return {"setup_s": statistics.median(total),
            "cli.interpreter_s": statistics.median(interp),
            "cli.import_s": statistics.median(imports)}


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def probe_rung(route: str, n: int, seed: int, budget: float):
    """Seconds the rung took, or None if it failed or ran out of budget."""
    if route == "cli":
        cfg = os.path.join(OUT_DIR, "probe.cfg")
        with open(cfg, "w") as fh:
            fh.write("max_n = %d\n" % n)
        cmd = [sys.executable, "-m", "neutral_sampler.cli", "--config", cfg,
               "sample-prob", "--eta", ",".join(["1"] * n),
               "--x", workloads.probe_inputs(seed)["x"]]
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=ENV, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            return None
        finally:
            _stop(proc)
        elapsed = time.monotonic() - start
        return elapsed if proc.returncode == 0 and elapsed <= budget else None
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), route, str(n), str(seed)]
    proc = subprocess.Popen(cmd, env=ENV, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], 60)
        if not readable or proc.stdout.readline().strip() != "ready":
            return None
        try:
            proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0:
            return None
        elapsed = float(proc.stdout.read())
        return elapsed if elapsed <= budget else None
    finally:
        _stop(proc)
        proc.stdout.close()


def probe_max_n(workload: str, seed: int):
    """Largest n of the ladder whose rung finishes within the budget, with
    the seconds of every rung tried (None for the one that did not)."""
    spec = workloads.PROBES[workload]
    lo, hi = spec["ladder"]
    best, rungs = lo - 1, []
    for n in range(lo, hi + 1):
        took = probe_rung(spec["route"], n, seed, spec["budget_s"])
        rungs.append((n, took))
        if took is None:
            break
        best = n
    return best, rungs


# -- rounds --------------------------------------------------------------------

def run_worker(requests: list, trace: bool) -> dict:
    """One round in a fresh interpreter; a crashed round fails every request."""
    spec = json.dumps({"requests": requests, "trace": trace, "out_dir": OUT_DIR})
    try:
        done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                              input=spec, env=ENV, cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
        if done.returncode == 0:
            return json.loads(done.stdout)
        error = done.stderr[-2000:]
    except subprocess.TimeoutExpired:
        error = "round timed out after %d s" % WORKER_TIMEOUT_S
    return {"latency_s": [], "outputs": [None] * len(requests),
            "errors": [error] * len(requests), "wall_s": 0.0, "cold": True,
            "maxrss_kb": 0, "children_maxrss_kb": 0}


def timed_rounds(workload: str, seed: int, seconds: float) -> list:
    """Rounds 0, 1, ... until `seconds` have passed; the last one finishes."""
    rounds, start = [], time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        requests = workloads.round_requests(workload, seed, len(rounds))
        rounds.append((requests, run_worker(requests, trace=False)))
    return rounds


# -- metrics ---------------------------------------------------------------------

def percentile(samples: list, p: float):
    """(value, samples beyond it) at percentile p, by nearest rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload: str, rounds: list, setup: dict, max_n: int) -> tuple[dict, dict]:
    """The end-to-end values, and notes on how each was taken.

    The host's speed switches between states every few seconds, and each
    round runs in one process of a second or so, so a median pooled over
    the run jumps with the share of rounds that ran slow.  Per-round
    statistics averaged over the rounds move smoothly with that share
    instead."""
    reports = [rep for _, rep in rounds if rep["latency_s"]]
    latencies = [t for rep in reports for t in rep["latency_s"]]
    p = TAIL_PERCENTILE[workload]
    per_round = len(rounds[0][0]) * (1 - p / 100) >= 10
    if per_round:
        tail_s = statistics.fmean(percentile(rep["latency_s"], p)[0] for rep in reports)
        beyond = len(rounds[0][0]) - math.ceil(p / 100 * len(rounds[0][0]))
        tail_note = "p%g of each round (%d of %d requests beyond it), mean over %d rounds" % (
            p, beyond, len(rounds[0][0]), len(reports))
    else:
        tail_s, beyond = percentile(latencies, p)
        tail_note = "p%g of %d requests, %d beyond it" % (p, len(latencies), beyond)
    rss_key = "children_maxrss_kb" if workload == "cli_mix" else "maxrss_kb"
    values = {
        "setup_s": setup["setup_s"],
        "throughput_rps": len(latencies) / sum(rep["wall_s"] for rep in reports),
        "latency_p50_ms": 1000 * statistics.fmean(
            statistics.median(rep["latency_s"]) for rep in reports),
        "latency_tail_ms": 1000 * tail_s,
        "peak_rss_mb": max(rep[rss_key] for _, rep in rounds) / 1024,
        "max_n_in_budget": max_n,
    }
    notes = {
        "setup_s": "median of %d launches" % SETUP_LAUNCHES,
        "throughput_rps": "%d requests in %d rounds of %d" % (
            len(latencies), len(reports), len(rounds[0][0])),
        "latency_p50_ms": "median of each round, mean over %d rounds" % len(reports),
        "latency_tail_ms": tail_note,
        "peak_rss_mb": "max over rounds of the %s" % (
            "largest CLI child" if workload == "cli_mix" else "worker process"),
    }
    return values, notes


def check_rounds(workload: str, seed: int, rounds: list) -> tuple[int, int]:
    """(attempted, failed) over all rounds: raised, wrong or off-digest."""
    records = [(index, req, out)
               for index, (requests, rep) in enumerate(rounds)
               for req, out in zip(requests, rep["outputs"])]
    errors = [err for _, rep in rounds for err in rep["errors"]]
    failed = {i for i, err in enumerate(errors) if err is not None}
    failed |= checks.CHECKS[workload](records, seed)
    if seed == checks.DEFAULT_SEED:
        failed |= checks.check_digests(workload, records, checks.load_digests())
    for i in sorted(failed)[:5]:
        print("FAILED %s: %s" % (json.dumps(records[i][1]),
                                 errors[i] or "output check"), file=sys.stderr)
    return len(records), len(failed)


# -- one workload ------------------------------------------------------------------

def run_measured(workload: str, seed: int, seconds: float):
    setup = measure_setup()
    max_n, rungs = probe_max_n(workload, seed)
    rounds = timed_rounds(workload, seed, seconds)
    values, notes = end_to_end(workload, rounds, setup, max_n)
    spec = workloads.PROBES[workload]
    notes["max_n_in_budget"] = "budget %g s, rungs %s" % (spec["budget_s"], " ".join(
        "%d:%s" % (n, "killed" if t is None else "%.3f" % t) for n, t in rungs))
    units = dict(END_TO_END)
    return rounds, {name: (values[name], units[name], notes.get(name, ""))
                    for name, _ in END_TO_END}, 0


def run_traced(workload: str, seed: int, env: dict):
    setup = measure_setup()
    rounds, all_spans, counts, caches = [], [], {}, {}
    plain_wall = traced_wall = 0.0
    first_request = 0
    for index in range(TRACE_ROUNDS[workload]):
        requests = workloads.round_requests(workload, seed, index)
        plain = run_worker(requests, trace=False)
        traced = run_worker(requests, trace=True)
        rounds += [(requests, plain), (requests, traced)]
        plain_wall += plain["wall_s"]
        traced_wall += traced["wall_s"]
        offset = len(all_spans)
        for name, start, end, parent, req in traced.get("spans", []):
            all_spans.append([name, start, end, parent + offset if parent >= 0 else -1,
                              first_request + req])
        first_request += len(requests)
        for key, value in traced.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        for key, (hits, misses) in traced.get("caches", {}).items():
            acc = caches.setdefault(key, [0, 0])
            acc[0] += hits
            acc[1] += misses
    selfs = spans.self_times(all_spans)
    mismatches = spans.request_mismatches(all_spans, selfs)
    extra = {"cli.interpreter_s": setup["cli.interpreter_s"],
             "cli.import_s": setup["cli.import_s"],
             "trace.overhead_ratio": traced_wall / plain_wall - 1 if plain_wall else 0.0}
    values = layers.per_layer_values(spans.by_name(all_spans, selfs), counts, caches, extra)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "trace-%s.json" % workload), "w") as fh:
        json.dump({"env": env, "spans": all_spans}, fh)
    print("# trace: %d spans, %d requests whose self times do not sum to their "
          "duration" % (len(all_spans), mismatches))
    return rounds, {name: (values[name], unit, "") for name, unit in layers.PER_LAYER}, mismatches


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run, check and report one workload; returns (correct, attempted,
    failed, metrics)."""
    env = fingerprint(seed)
    if trace:
        rounds, metrics, broken = run_traced(workload, seed, env)
    else:
        rounds, metrics, broken = run_measured(workload, seed, seconds)
    env["cold_caches"] = all(rep["cold"] for _, rep in rounds)
    attempted, failed = check_rounds(workload, seed, rounds)
    print("# %s seed=%d trace=%d rounds=%d%s" % (
        workload, seed, trace, len(rounds), " (each round untraced, then traced)" if trace else ""))
    for name, (value, unit, note) in metrics.items():
        print("%-40s %14.6g %-6s %s" % (name, value, unit, note))
    print("%-40s %14.6g %-6s %d of %d requests" % (
        "failed_ratio", failed / attempted, "ratio", failed, attempted))
    print("env " + json.dumps(env, sort_keys=True))
    correct = failed == 0 and broken == 0 and env["cold_caches"]
    return correct, attempted, failed, {name: {"value": value, "unit": unit}
                                        for name, (value, unit, _) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "neutral_sampler", "__init__.py")):
        print("error: run from the root of a neutral-sampler checkout "
              "(no src/neutral_sampler here)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.path.insert(0, SRC)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, tried, bad, values = run_workload(name, args.seed, args.seconds, bool(args.trace))
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
        if len(names) == 1:
            metrics = values
        else:
            metrics.update({"%s.%s" % (name, k): v for k, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
