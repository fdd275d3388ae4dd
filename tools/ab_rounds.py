"""Compare two checkouts round by round on the same benchmark requests.

    python3 tools/ab_rounds.py BASE CHANGE --workload NAME --rounds N --seed S

Round i takes its requests from BASE's `bench/workloads.round_requests(NAME,
S, i)`.  Each checkout runs them in a fresh interpreter on its own `src` and
`bench/worker.prepare`, timed as `bench/worker.py` times them (the prepare
step, which parses the inputs, timed apart); the two run back to back, BASE
first in even rounds, so host drift between rounds cancels in the per-round
ratio.  Each side's interpreters write and read bytecode under a directory of
that side's own, empty at the start (PYTHONPYCACHEPREFIX, with
PYTHONDONTWRITEBYTECODE dropped), so .pyc files left in either checkout count
for neither.  Each cli_mix command runs through `cli.main` in an interpreter
of its own, timed from before `import neutral_sampler.cli` (nothing imports
`mpmath` earlier): the launch both sides share is untimed.  A round's peak
RSS is the VmHWM of its interpreter, for cli_mix of the largest command's.
After its requests, each side takes its set-up time with its own
`bench/run.measure_setup()`, and before the first round its max_n_in_budget
with its own `bench/run.probe_max_n(NAME, S)`, both from inside its checkout.
BASE's `bench/run.end_to_end` turns each side's rounds into the benchmark's
end-to-end metrics, over the whole run and for each round.

An mpf in a result is a float output, compared by its raw `_mpf_` tuple.  A
command's stdout is parsed as JSON: a string field that reads as an integer
or a fraction is an exact output, and any other decimal string is a float
output, compared as text.  Every other value (a command's exit code, its
stderr, a stdout that is not JSON) is an exact output.  After the last
request, each lru_cache on a module or class of the package gives its hits
and misses; `ab_rounds.py . .` reads one checkout's traffic.

Each side's outputs then go through BASE's `bench/checks.CHECKS[NAME]` (at
seed 1 also the round-0 digests) in an interpreter on that side's `src`; a
request that raised or a command that exited nonzero fails as well.

Prints each round, then per metric of BASE's `BENCHMARK.json` each side's
value, the change/base ratio, the median per-round ratio and the rounds
CHANGE won in the metric's `better` direction (ties count for neither side),
flagged where CHANGE is worse than BASE by more than the metric's bound; the
same for the prepare time; the outputs that differ; the failures (a round
whose t grid repeats a time says so); and each side's cache hits and misses
summed over the rounds.  Exits 1 if CHANGE fails a request that BASE passes
or an output of CHANGE disagrees with BASE's under BASE's
`bench/checks.same`; failures both sides share are printed, not counted.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import importlib
import io
import itertools
import json
import os
import pkgutil
import re
import statistics
import subprocess
import sys
import tempfile
import time

CHILD = "--child"
SIDES = ("base", "change")
#: The per-round prepare time, reported beside the benchmark's metrics.
PREPARE = {"name": "prepare_s", "better": "lower", "bound": None}
#: Lines of a failure listing printed before the rest are only counted.
LISTED = 10
DIFFER = "float outputs %d differ of %d; exact outputs %d differ of %d"
EXACT_TEXT = re.compile(r"-?\d+(/\d+)?")
DECIMAL_TEXT = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def values(result):
    """Yield ("float", [sign, man, exp, bc]) for each mpf in `result`,
    ("float", text) for each decimal string that is no integer or fraction,
    and ("exact", [type name, repr]) for every other value."""
    if hasattr(result, "_mpf_"):
        yield "float", list(result._mpf_)
    elif (isinstance(result, str) and DECIMAL_TEXT.fullmatch(result)
          and not EXACT_TEXT.fullmatch(result)):
        yield "float", result
    elif hasattr(result, "_fields"):  # a FrozenRecord row
        yield from values([getattr(result, name) for name in result._fields])
    elif isinstance(result, (list, tuple)):
        for item in result:
            yield from values(item)
    elif isinstance(result, dict):
        yield from values([result[key] for key in sorted(result)])
    else:
        yield "exact", [type(result).__name__, repr(result)]


def run_cli(argv: list) -> dict:
    """Import the CLI and run one command in this interpreter; its exit code
    and output as `bench/worker.py` reports a command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            from neutral_sampler import cli
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse and parser.exit() leave this way
            rc = exc.code if isinstance(exc.code, int) else 1
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def command_values(result: dict):
    """The values of one command: its exit code, its stdout parsed as JSON,
    field by field (a stdout that is not JSON is one value), and its stderr."""
    try:
        stdout = json.loads(result["stdout"])
    except ValueError:
        stdout = result["stdout"]
    return values([result["rc"], stdout, result["stderr"]])


def cache_counts() -> dict:
    """{name: [hits, misses]} of every lru_cache defined on a module or on a
    class of the package, named as in `tests/test_caches.CACHES`."""
    import neutral_sampler
    counts = {}
    for info in pkgutil.iter_modules(neutral_sampler.__path__):
        module = importlib.import_module("neutral_sampler." + info.name)
        for attr, value in vars(module).items():
            if getattr(value, "__module__", None) == module.__name__:
                owned = vars(value) if isinstance(value, type) else {None: value}
                for name, cached in owned.items():
                    if hasattr(cached, "cache_info"):
                        counts[".".join(filter(None, (info.name, attr, name)))] = list(
                            cached.cache_info()[:2])
    return counts


def peak_rss_kb() -> int:
    """This interpreter's own peak resident set (VmHWM), in kB."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def run_round(requests: list, setup: bool) -> dict:
    """Time the requests as `bench/worker.py` does; their latency, output,
    values and error, the loop's wall time, the prepare time, the peak RSS,
    the cache counts and, if `setup`, `run.measure_setup()`'s set-up time."""
    cli = requests[0]["op"] == "cli"
    prepare_s = None
    if cli:
        calls = [(functools.partial(run_cli, req["argv"]), None) for req in requests]
    else:
        import neutral_sampler as ns
        import worker
        t0 = time.perf_counter()
        calls = [worker.prepare(req, ns) for req in requests]
        prepare_s = time.perf_counter() - t0

    results, latency, errors = [], [], []
    begin = time.perf_counter()
    for call, _ in calls:
        t0 = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # a failed request is counted, not fatal
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        latency.append(time.perf_counter() - t0)
        if isinstance(result, dict) and result["rc"] != 0:  # a failed command
            error = "exit %s: %s" % (result["rc"], result["stderr"].strip())
        results.append(result)
        errors.append(error)
    wall = time.perf_counter() - begin
    report = {"wall_s": wall, "latency_s": latency, "errors": errors,
              "prepare_s": prepare_s, "maxrss_kb": peak_rss_kb(),
              "outputs": [None if r is None else (f(r) if f else r)
                          for r, (_, f) in zip(results, calls)],
              "values": [[] if r is None else list((command_values if cli else values)(r))
                         for r in results],
              "caches": cache_counts()}
    if setup:
        import run
        report["setup_s"] = run.measure_setup()["setup_s"]
    return report


def child_env(pycache: str) -> dict:
    """The environment of one side's children: bytecode is written, under
    `pycache`, a directory of that side's own that starts empty, so that both
    sides compile what they import in their first round and read it back
    after, whatever .pyc files either checkout or the caller's settings hold."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def child(checkout: str) -> int:
    """Run the job on stdin in this interpreter, started inside `checkout`,
    and print its report as JSON.  A round and a probe import the checkout's
    `bench`; a check imports BASE's `bench/checks.py` on the checkout's `src`."""
    job = json.load(sys.stdin)
    bench = job.get("bench") or os.path.join(checkout, "bench")
    sys.path[:0] = [os.path.join(checkout, "src"), bench]
    if job["kind"] == "round":
        report = run_round(job["requests"], job["setup"])
    elif job["kind"] == "probe":
        import run
        os.makedirs(run.OUT_DIR, exist_ok=True)
        report = {"max_n": run.probe_max_n(job["workload"], job["seed"])[0]}
    else:
        import checks
        records = job["records"]
        failed = checks.CHECKS[job["workload"]](records, job["seed"])
        if job["seed"] == checks.DEFAULT_SEED:
            failed |= checks.check_digests(job["workload"], records, checks.load_digests())
        report = {"failed": sorted(failed)}
    json.dump(report, sys.stdout)
    return 0


def run_child(checkout: str, env: dict, job: dict) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), CHILD, checkout],
        input=json.dumps(job), cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit("error: %s exited %d: %s" % (
            checkout, done.returncode, done.stderr[-2000:]))
    return json.loads(done.stdout)


def add_counts(totals: dict, counts: dict):
    """Add each pair of `counts` into the pair of the same key in `totals`."""
    for name, pair in counts.items():
        totals[name] = [a + b for a, b in zip(totals.get(name, (0, 0)), pair)]


def run_side(checkout: str, env: dict, requests: list) -> dict:
    """One round of `checkout` in a fresh interpreter (one per cli_mix
    command, the last of which also takes the set-up time)."""
    parts = [[req] for req in requests] if requests[0]["op"] == "cli" else [requests]
    report = dict(wall_s=0.0, latency_s=[], errors=[], outputs=[], values=[], caches={})
    prepare, rss = [], []
    for i, part in enumerate(parts):
        setup = i == len(parts) - 1
        got = run_child(checkout, env, {"kind": "round", "requests": part, "setup": setup})
        add_counts(report["caches"], got.pop("caches"))
        prepare.append(got.pop("prepare_s"))
        rss.append(got.pop("maxrss_kb"))
        if setup:
            report["setup_s"] = got.pop("setup_s")
        for key, value in got.items():
            report[key] += value
    report["prepare_s"] = None if None in prepare else sum(prepare)
    report["maxrss_kb"] = report["children_maxrss_kb"] = max(rss)
    return report


def side_values(run, workload: str, rounds: list, max_n: int) -> dict:
    """The end-to-end metrics of `rounds` [(requests, report)] as BASE's
    `run.end_to_end` takes them, with the median set-up time of the rounds
    and the summed prepare time."""
    setup = {"setup_s": statistics.median(rep["setup_s"] for _, rep in rounds)}
    got, _ = run.end_to_end(workload, rounds, setup, max_n)
    prepare = [rep["prepare_s"] for _, rep in rounds]
    got["prepare_s"] = None if None in prepare else sum(prepare)
    return got


def compare(base: list, change: list) -> dict:
    """{kind: [differing, outputs]} over the values of each request, by
    position; a value on one side only differs, counted by its kind."""
    counts = {"float": [0, 0], "exact": [0, 0]}
    for ref, got in zip(base, change):
        for a, b in itertools.zip_longest(ref, got):
            kind = (a or b)[0]
            counts[kind][0] += a != b
            counts[kind][1] += 1
    return counts


def grid_note(requests: list) -> str:
    """For a transient round, the t strings it asks for twice for one
    (eta, x), or that it asks for none twice."""
    seen = collections.Counter((req["eta"], req["x"], req["t"])
                               for req in requests if req["op"] == "transient")
    repeats = sorted({key[2] for key, count in seen.items() if count > 1})
    if repeats:
        return "; t grid repeats %s" % ", ".join(repeats)
    return "; t grid distinct" if seen else ""


def check_side(checkout: str, env: dict, bench: str, workload: str, seed: int,
               records: list, rounds: list) -> dict:
    """{record index: why} of each request of `rounds` [(requests, report)]
    of `checkout` that raised, or that BASE's checks in `bench` fail on the
    checkout's `src`; `records` holds (round, request index, request)."""
    outputs = [out for _, rep in rounds for out in rep["outputs"]]
    errors = [err for _, rep in rounds for err in rep["errors"]]
    checked = run_child(checkout, env, {
        "kind": "check", "bench": bench, "workload": workload, "seed": seed,
        "records": [[i, req, out] for (i, _, req), out in zip(records, outputs)]})
    failed = {k: "output check" for k in checked["failed"]}
    failed.update((k, err) for k, err in enumerate(errors) if err)
    return failed


def summarize(rounds: list, totals: tuple, metrics: list) -> list:
    """One dict per entry of `metrics` (`name`, `better`, `bound` as in
    BENCHMARK.json) from `rounds`, a list of (base values, change values)
    dicts keyed by metric name, and `totals`, the pair over the whole run:
    both values, change/base, the median per-round ratio, the rounds CHANGE
    won and tied, and whether CHANGE is worse than its bound allows."""
    out = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        pairs = [(b[name], c[name]) for b, c in rounds if None not in (b[name], c[name])]
        ratios = [c / b for b, c in pairs if b]
        base, change = (side[name] for side in totals)
        ratio = change / base if base else None
        out.append({
            "name": name, "base": base, "change": change, "ratio": ratio,
            "round_ratio": statistics.median(ratios) if ratios else None,
            "wins": sum(1 for b, c in pairs if sign * (c - b) > 0),
            "ties": sum(1 for b, c in pairs if c == b), "rounds": len(pairs),
            "worse": None not in (ratio, metric["bound"])
            and sign * (ratio - 1) < -metric["bound"],
        })
    return out


def listed(lines: list, prefix: str):
    """Print the first LISTED of `lines` after `prefix`, and how many more."""
    for line in lines[:LISTED]:
        print(prefix + line)
    if len(lines) > LISTED:
        print("%s... and %d more" % (prefix, len(lines) - LISTED))


def number(value) -> str:
    return "n/a" if value is None else "%.6g" % value


def percent(ratio) -> str:
    return "n/a" if ratio is None else "%.4f (%+.1f %%)" % (ratio, 100 * (ratio - 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    # Each child starts inside its checkout, where a relative path would
    # resolve a second time.
    args.base, args.change = os.path.abspath(args.base), os.path.abspath(args.change)
    for checkout in (args.base, args.change):
        if not os.path.isfile(os.path.join(checkout, "bench", "worker.py")):
            parser.error("%s has no bench/worker.py" % checkout)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    bench = os.path.join(args.base, "bench")
    sys.path.insert(0, bench)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r" % args.workload)
    with tempfile.TemporaryDirectory(prefix="ab_rounds-") as pycache:
        return run_ab(args, bench, {side: child_env(os.path.join(pycache, side))
                                    for side in SIDES})


def run_ab(args, bench: str, envs: dict) -> int:
    """Run the rounds of `args` with each side's children in its environment
    of `envs`, print the report and return the exit code."""
    import checks
    import run
    import workloads
    with open(os.path.join(args.base, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"] + [PREPARE]

    max_n = {side: run_child(getattr(args, side), envs[side], {
        "kind": "probe", "workload": args.workload, "seed": args.seed})["max_n"]
        for side in SIDES}
    rounds, per_round, records = {side: [] for side in SIDES}, [], []
    disagree, bits, caches = [], {}, {side: {} for side in SIDES}
    for i in range(args.rounds):
        requests = workloads.round_requests(args.workload, args.seed, i)
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        reports = {side: run_side(getattr(args, side), envs[side], requests)
                   for side in order}
        per_round.append(tuple(side_values(run, args.workload, [(requests, reports[side])],
                                           max_n[side]) for side in SIDES))
        for side in SIDES:
            add_counts(caches[side], reports[side].pop("caches"))
            rounds[side].append((requests, reports[side]))
        for j, (req, ref, got) in enumerate(zip(requests, reports["base"]["outputs"],
                                                reports["change"]["outputs"])):
            records.append((i, j, req))
            if None not in (ref, got) and not checks.same(
                    checks.digest_output(req, ref), checks.digest_output(req, got)):
                disagree.append("round %d request %d: outputs disagree: %s" % (
                    i, j, json.dumps(req)))
        counts = compare(*(reports[side].pop("values") for side in SIDES))
        add_counts(bits, counts)
        print("round %d (%s first): %s; %s%s" % (i, order[0], "; ".join(
            "%s %s -> %s" % (m["name"], *(number(side[m["name"]]) for side in per_round[-1]))
            for m in metrics), DIFFER % (*counts["float"], *counts["exact"]),
            grid_note(requests)), flush=True)

    totals = tuple(side_values(run, args.workload, rounds[side], max_n[side])
                   for side in SIDES)
    print("%s, %d rounds at seed %d: base -> change, change/base, median per round" % (
        args.workload, args.rounds, args.seed))
    for row in summarize(per_round, totals, metrics):
        print("%-16s %s -> %s; %s; per round %s; change won %d of %d (%d ties)%s" % (
            row["name"], number(row["base"]), number(row["change"]),
            percent(row["ratio"]), percent(row["round_ratio"]), row["wins"], row["rounds"],
            row["ties"], "; WORSE THAN BOUND" if row["worse"] else ""))
    print(DIFFER % (*bits["float"], *bits["exact"]))

    failed = {side: check_side(getattr(args, side), envs[side], bench, args.workload,
                               args.seed, records, rounds[side]) for side in SIDES}
    shared = collections.Counter(records[k][0] for k in failed["base"].keys() & failed["change"])
    print("failures: base %d, change %d, shared %d" % (
        len(failed["base"]), len(failed["change"]), sum(shared.values())))
    for i, count in sorted(shared.items()):
        print("shared: round %d, %d requests fail on both sides%s" % (
            i, count, grid_note(rounds["base"][i][0])))
    only = {side: ["round %d request %d: %s only: %s: %s" % (
        *records[k][:2], side, failed[side][k], json.dumps(records[k][2]))
        for k in sorted(failed[side].keys() - failed[other].keys())]
        for side, other in (("base", "change"), ("change", "base"))}
    listed(only["base"], "")
    listed(only["change"] + disagree, "FAILED ")
    print("cache hits and misses: base -> change")
    for name in sorted(caches["base"].keys() | caches["change"].keys()):
        print("%-44s %s %s -> %s %s" % (name, *caches["base"].get(name, "--"),
                                         *caches["change"].get(name, "--")))
    return 1 if only["change"] or disagree else 0


if __name__ == "__main__":
    sys.exit(child(sys.argv[2]) if sys.argv[1:2] == [CHILD] else main())
