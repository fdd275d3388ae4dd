"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/ab_pairs.py BASE CHANGE --workload NAME --pairs N --seed S

BASE and CHANGE are the roots of two source checkouts.  Pair i runs the
unmodified `bench/run.py` of each checkout, from that checkout's root, at
seed S + i.  BASE runs first in even pairs and CHANGE in odd ones, since the
run placed second in a back-to-back pair reads slower whichever commit it is.

Prints every pair as it finishes, then for each end-to-end metric of BASE's
`BENCHMARK.json`: each side's median and quartiles, the change of the
medians beside the median of the per-pair change/base ratios, the pairs
CHANGE won (ties count for neither side), whether the median gain exceeds
BASE's interquartile range, whether CHANGE's median is worse than BASE's by
more than the metric's bound, and UNRESOLVED where BASE's interquartile
range exceeds that bound times |BASE's median| while some CHANGE run fails
to beat some BASE run.  Both sides of a pair run back to back, so host
drift between batches of pairs cancels in the per-pair ratio but not in the
change of the medians.  The runs write nothing into either checkout but its
`.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list, metrics: list) -> list:
    """One dict per metric from `pairs`, a list of (base values, change
    values) dicts keyed by metric name; `metrics` holds the end-to-end
    entries of BENCHMARK.json (name, better, bound)."""
    out = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(1 for b, c in zip(base, change) if (c > b if higher else c < b))
        ties = sum(1 for b, c in zip(base, change) if c == b)
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        gain = cmed - bmed if higher else bmed - cmed
        ratios = [c / b - 1 for b, c in zip(base, change) if b]
        apart = min(change) > max(base) if higher else max(change) < min(base)
        out.append({
            "name": name,
            "base": (bq1, bmed, bq3),
            "change": (cq1, cmed, cq3),
            "relative": (cmed - bmed) / bmed if bmed else None,
            "pair_relative": statistics.median(ratios) if ratios else None,
            "wins": wins,
            "ties": ties,
            "pairs": len(pairs),
            "clears_base_iqr": gain > bq3 - bq1,
            "worse_than_bound": bmed != 0 and -gain / abs(bmed) > metric["bound"],
            "unresolved": bq3 - bq1 > metric["bound"] * abs(bmed) and not apart,
        })
    return out


def run_side(checkout: str, workload: str, seed: int) -> dict:
    """The last-line JSON report of one `bench/run.py` run in `checkout`."""
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit("error: no report from %s (exit %d): %s" % (
            checkout, done.returncode, done.stderr[-2000:]))
    return report


def fmt(value) -> str:
    return "%.6g" % value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    for checkout in (args.base, args.change):
        if not os.path.isfile(os.path.join(checkout, "bench", "run.py")):
            parser.error("%s has no bench/run.py" % checkout)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.base, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        reports = {side: run_side(getattr(args, side), args.workload, seed)
                   for side in order}
        values = [{m["name"]: reports[side]["metrics"][m["name"]]["value"]
                   for m in metrics} for side in ("base", "change")]
        pairs.append(tuple(values))
        print("pair %d seed %d (%s first): %s; failed %d/%d -> %d/%d" % (
            i + 1, seed, order[0], "; ".join(
                "%s %s -> %s" % (m["name"], fmt(values[0][m["name"]]),
                                 fmt(values[1][m["name"]])) for m in metrics),
            reports["base"]["failed"], reports["base"]["attempted"],
            reports["change"]["failed"], reports["change"]["attempted"]), flush=True)

    print("%s, %d pairs from seed %d: median [q1, q3], base -> change" % (
        args.workload, args.pairs, args.seed))
    for row in summarize(pairs, metrics):
        rel = "" if row["relative"] is None else " (%+.1f %%)" % (100 * row["relative"])
        if row["pair_relative"] is not None:
            rel += ", per pair %+.1f %%" % (100 * row["pair_relative"])
        print("%-16s %s [%s, %s] -> %s [%s, %s]%s; change won %d of %d (%d ties)%s%s%s" % (
            row["name"], fmt(row["base"][1]), fmt(row["base"][0]), fmt(row["base"][2]),
            fmt(row["change"][1]), fmt(row["change"][0]), fmt(row["change"][2]), rel,
            row["wins"], row["pairs"], row["ties"],
            "; median gain exceeds the base IQR" if row["clears_base_iqr"] else "",
            "; WORSE THAN BOUND" if row["worse_than_bound"] else "",
            "; UNRESOLVED" if row["unresolved"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
