"""Compare two checkouts round by round on the same benchmark requests.

    python3 tools/ab_rounds.py BASE CHANGE --workload NAME --rounds N --seed S

Round i takes its requests from BASE's `bench/workloads.round_requests(NAME,
S, i)`.  Each checkout runs them in a fresh interpreter on its own `src` and
`bench/worker.prepare`, timed as `bench/worker.py` times them; the two run
back to back, BASE first in even rounds, so host drift between rounds
cancels in the per-round ratio.  Each cli_mix command runs through `cli.main`
in an interpreter of its own, timed from before `import neutral_sampler.cli`
(nothing imports `mpmath` earlier): the launch both sides share is untimed.
An mpf in a result is a float output, compared by its raw `_mpf_` tuple.  A
command's stdout is parsed as JSON: a string field that reads as an integer
or a fraction is an exact output, and any other decimal string is a float
output, compared as text.  Every other value (a command's exit code, its
stderr, a stdout that is not JSON) is an exact output.
After the last request, each lru_cache on a module or class of the package
gives its hits and misses; `ab_rounds.py . .` reads one checkout's traffic.

Prints each round, the median per-round change/base ratios with the rounds
CHANGE won (ties count for neither side), the outputs that differ and each
side's cache hits and misses summed over the rounds.  Exits 1 if a request
fails (a command exiting nonzero fails) or an output of CHANGE disagrees
with BASE's under BASE's `bench/checks.same`.
"""

from __future__ import annotations

import argparse
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
import time

CHILD = "--child"
SIDES = ("base", "change")
METRICS = ("wall_s", "latency_p50_s")
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


def child(checkout: str) -> int:
    """Run the JSON list of requests on stdin; print as JSON each one's latency,
    output, values and error, the loop's wall time and the cache counts."""
    requests = json.load(sys.stdin)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "bench")]
    cli = requests[0]["op"] == "cli"
    if cli:
        calls = [(functools.partial(run_cli, req["argv"]), None) for req in requests]
    else:
        import neutral_sampler as ns
        import worker
        calls = [worker.prepare(req, ns) for req in requests]

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
    json.dump({"wall_s": wall, "latency_s": latency, "errors": errors,
               "outputs": [None if r is None else (f(r) if f else r)
                           for r, (_, f) in zip(results, calls)],
               "values": [[] if r is None else list((command_values if cli else values)(r))
                          for r in results],
               "caches": cache_counts()}, sys.stdout)
    return 0


def add_counts(totals: dict, counts: dict):
    """Add each pair of `counts` into the pair of the same key in `totals`."""
    for name, pair in counts.items():
        totals[name] = [a + b for a, b in zip(totals.get(name, (0, 0)), pair)]


def run_side(checkout: str, requests: list) -> dict:
    """One round of `checkout` in a fresh interpreter (one per cli_mix command)."""
    parts = [[req] for req in requests] if requests[0]["op"] == "cli" else [requests]
    report = dict(wall_s=0.0, latency_s=[], errors=[], outputs=[], values=[], caches={})
    for part in parts:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), CHILD, checkout],
            input=json.dumps(part), cwd=checkout, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit("error: %s exited %d: %s" % (
                checkout, done.returncode, done.stderr[-2000:]))
        got = json.loads(done.stdout)
        add_counts(report["caches"], got.pop("caches"))
        for key, value in got.items():
            report[key] += value
    report["latency_p50_s"] = statistics.median(report["latency_s"])
    return report


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


def summarize(rounds: list) -> list:
    """(name, median change/base ratio, rounds CHANGE won, ties) per metric
    from `rounds`, a list of (base value, change value) dicts keyed by name."""
    out = []
    for name in METRICS:
        base = [b[name] for b, _ in rounds]
        change = [c[name] for _, c in rounds]
        ratios = [c / b for b, c in zip(base, change) if b]
        out.append((name, statistics.median(ratios) if ratios else None,
                    sum(1 for b, c in zip(base, change) if c < b),
                    sum(1 for b, c in zip(base, change) if c == b)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    # run_side starts each child inside its checkout, where a relative path
    # would resolve a second time.
    args.base, args.change = os.path.abspath(args.base), os.path.abspath(args.change)
    for checkout in (args.base, args.change):
        if not os.path.isfile(os.path.join(checkout, "bench", "worker.py")):
            parser.error("%s has no bench/worker.py" % checkout)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.path.insert(0, os.path.join(args.base, "bench"))
    import checks
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r" % args.workload)

    rounds, problems, bits, caches = [], [], {}, {side: {} for side in SIDES}
    for i in range(args.rounds):
        requests = workloads.round_requests(args.workload, args.seed, i)
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        reports = {side: run_side(getattr(args, side), requests) for side in order}
        rounds.append(tuple({name: reports[side][name] for name in METRICS}
                            for side in SIDES))
        for side in SIDES:
            problems += ["round %d request %d: %s failed: %s" % (i, j, side, error)
                         for j, error in enumerate(reports[side]["errors"]) if error]
            add_counts(caches[side], reports[side]["caches"])
        for j, (req, ref, got) in enumerate(zip(requests, reports["base"]["outputs"],
                                                reports["change"]["outputs"])):
            if None not in (ref, got) and not checks.same(
                    checks.digest_output(req, ref), checks.digest_output(req, got)):
                problems.append("round %d request %d: outputs disagree: %s" % (
                    i, j, json.dumps(req)))
        counts = compare(reports["base"]["values"], reports["change"]["values"])
        add_counts(bits, counts)
        print("round %d (%s first): %s; %s" % (i, order[0], "; ".join(
            "%s %.6g -> %.6g" % (name, rounds[-1][0][name], rounds[-1][1][name])
            for name in METRICS), DIFFER % (*counts["float"], *counts["exact"])), flush=True)

    print("%s, %d rounds at seed %d: median per-round change/base" % (
        args.workload, args.rounds, args.seed))
    for name, ratio, wins, ties in summarize(rounds):
        print("%-14s %s; change won %d of %d (%d ties)" % (
            name, "n/a" if ratio is None else "%.4f (%+.1f %%)" % (ratio, 100 * (ratio - 1)),
            wins, len(rounds), ties))
    print(DIFFER % (*bits["float"], *bits["exact"]))
    print("cache hits and misses: base -> change")
    for name in sorted(caches["base"].keys() | caches["change"].keys()):
        print("%-44s %s %s -> %s %s" % (name, *caches["base"].get(name, "--"),
                                         *caches["change"].get(name, "--")))
    for problem in problems:
        print("FAILED %s" % problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(child(sys.argv[2]) if sys.argv[1:2] == [CHILD] else main())
