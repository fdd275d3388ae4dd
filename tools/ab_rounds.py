"""Compare two checkouts round by round on the same benchmark requests.

    python3 tools/ab_rounds.py BASE CHANGE --workload NAME --rounds N --seed S

BASE and CHANGE are the roots of two source checkouts.  Round i takes its
requests from BASE's `bench/workloads.round_requests(NAME, S, i)`, and each
side runs them through its own unmodified `bench/worker.py` in a fresh
interpreter, with the program imported from that checkout's `src`, the two
back to back; BASE runs first in even rounds and CHANGE in odd ones.  Both
sides of a round run the same requests seconds apart, so host drift between
rounds cancels in the per-round ratio, which `tools/ab_pairs.py` (whole
benchmark runs at their own seeds) leaves to the pairing alone.

Prints every round as it finishes, then for the round's wall time and for
its median request latency the median of the per-round change/base ratios
and the rounds CHANGE won (ties count for neither side).  Exits 1 if a
request fails on either side, or if an output of CHANGE disagrees with
BASE's under BASE's `bench/checks.same` (CLI commands compared by the
payload the digests keep).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

#: (name, value of one worker report) of each compared metric.
METRICS = (("wall_s", lambda rep: rep["wall_s"]),
           ("latency_p50_s", lambda rep: statistics.median(rep["latency_s"])))


def run_side(checkout: str, requests: list) -> dict:
    """The report of one round in a fresh interpreter of `checkout`."""
    spec = json.dumps({"requests": requests, "trace": False,
                       "out_dir": os.path.join(checkout, ".bench_out")})
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "worker.py")], input=spec, cwd=checkout,
        env=dict(os.environ, PYTHONPATH=os.path.join(checkout, "src")),
        capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit("error: worker of %s exited %d: %s" % (
            checkout, done.returncode, done.stderr[-2000:]))
    return json.loads(done.stdout)


def summarize(rounds: list) -> list:
    """(name, median change/base ratio, rounds CHANGE won, ties) per metric
    from `rounds`, a list of (base value, change value) dicts keyed by name."""
    out = []
    for name, _ in METRICS:
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
    for checkout in (args.base, args.change):
        if not os.path.isfile(os.path.join(checkout, "bench", "worker.py")):
            parser.error("%s has no bench/worker.py" % checkout)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.path.insert(0, os.path.join(os.path.abspath(args.base), "bench"))
    import checks
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r" % args.workload)

    rounds, problems = [], []
    for i in range(args.rounds):
        requests = workloads.round_requests(args.workload, args.seed, i)
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        reports = {side: run_side(getattr(args, side), requests) for side in order}
        values = tuple({name: value(reports[side]) for name, value in METRICS}
                       for side in ("base", "change"))
        rounds.append(values)
        for side in ("base", "change"):
            problems += ["round %d request %d: %s failed: %s" % (i, j, side, error)
                         for j, error in enumerate(reports[side]["errors"]) if error]
        for j, (req, ref, got) in enumerate(zip(requests, reports["base"]["outputs"],
                                                reports["change"]["outputs"])):
            if None not in (ref, got) and not checks.same(
                    checks.digest_output(req, ref), checks.digest_output(req, got)):
                problems.append("round %d request %d: outputs disagree: %s" % (
                    i, j, json.dumps(req)))
        print("round %d (%s first): %s" % (i, order[0], "; ".join(
            "%s %.6g -> %.6g" % (name, values[0][name], values[1][name])
            for name, _ in METRICS)), flush=True)

    print("%s, %d rounds at seed %d: median per-round change/base" % (
        args.workload, args.rounds, args.seed))
    for name, ratio, wins, ties in summarize(rounds):
        print("%-14s %s; change won %d of %d (%d ties)" % (
            name, "n/a" if ratio is None else "%.4f (%+.1f %%)" % (ratio, 100 * (ratio - 1)),
            wins, len(rounds), ties))
    for problem in problems:
        print("FAILED %s" % problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
