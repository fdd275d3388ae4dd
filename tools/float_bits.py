"""Count the outputs on which two checkouts differ, float outputs bit for bit.

    python3 tools/float_bits.py BASE CHANGE --workload NAME --rounds N --seed S

BASE and CHANGE are the roots of two source checkouts.  Round i takes its
requests from BASE's `bench/workloads.round_requests(NAME, S, i)`, and each
side runs them in a fresh interpreter of its own, with the program imported
from that checkout's `src` and every request built by that checkout's
`bench/worker.prepare`.  Each result is taken apart into its values (a scan
row field by field, a CLI command as its exit code, stdout and stderr): an
mpf is a float output, compared by its raw `_mpf_` tuple (sign, mantissa,
exponent, bit count); any other value is an exact output, compared by type
and value.  `tools/ab_rounds.py` compares the worker's 40-digit strings
through `bench/checks.same`, which reads 30 digits, so it cannot show that a
change keeps every bit.

Prints each round's counts, then the totals: the float outputs whose tuples
differ and the exact outputs that differ.  Exits 1 if a side's interpreter
crashes or one of its requests raises.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys

CHILD = "--child"


def values(result):
    """Yield ("float", [sign, man, exp, bc]) for each mpf in `result` and
    ("exact", [type name, repr]) for every other value."""
    if hasattr(result, "_mpf_"):
        yield "float", list(result._mpf_)
    elif hasattr(result, "_fields"):  # a FrozenRecord row
        for name in result._fields:
            yield from values(getattr(result, name))
    elif isinstance(result, (list, tuple)):
        for item in result:
            yield from values(item)
    elif isinstance(result, dict):
        for key in sorted(result):
            yield from values(result[key])
    else:
        yield "exact", [type(result).__name__, repr(result)]


def child(checkout: str) -> int:
    """Run the JSON list of requests on stdin; print, as JSON, the values
    of each result and the error of each request that raised."""
    requests = json.load(sys.stdin)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "bench")]
    import neutral_sampler as ns
    import worker

    outputs, errors = [], []
    for i, req in enumerate(requests):
        try:
            outputs.append(list(values(worker.prepare(req, ns)[0]())))
        except Exception as exc:
            outputs.append([])
            errors.append("request %d: %s: %s" % (i, type(exc).__name__, exc))
    json.dump({"outputs": outputs, "errors": errors}, sys.stdout)
    return 0


def run_side(checkout: str, requests: list) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), CHILD, checkout],
        input=json.dumps(requests), cwd=checkout, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(checkout, "src")))
    if done.returncode != 0:
        raise SystemExit("error: %s exited %d: %s" % (
            checkout, done.returncode, done.stderr[-2000:]))
    return json.loads(done.stdout)


def compare(base: list, change: list) -> dict:
    """{kind: [outputs, differing]} over the values of each request, by
    position; a value on one side only differs, counted by its kind."""
    counts = {"float": [0, 0], "exact": [0, 0]}
    for ref, got in zip(base, change):
        for a, b in itertools.zip_longest(ref, got):
            kind = (a or b)[0]
            counts[kind][0] += 1
            counts[kind][1] += a != b
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    args.base, args.change = os.path.abspath(args.base), os.path.abspath(args.change)
    for checkout in (args.base, args.change):
        if not os.path.isfile(os.path.join(checkout, "bench", "worker.py")):
            parser.error("%s has no bench/worker.py" % checkout)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.path.insert(0, os.path.join(args.base, "bench"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r" % args.workload)

    totals, errors = {"float": [0, 0], "exact": [0, 0]}, []
    for i in range(args.rounds):
        requests = workloads.round_requests(args.workload, args.seed, i)
        reports = [run_side(checkout, requests) for checkout in (args.base, args.change)]
        for side, report in zip(("base", "change"), reports):
            errors += ["round %d %s %s" % (i, side, e) for e in report["errors"]]
        counts = compare(reports[0]["outputs"], reports[1]["outputs"])
        for kind, (outputs, differing) in counts.items():
            totals[kind][0] += outputs
            totals[kind][1] += differing
        print("round %d: %d requests; float outputs %d differ of %d; "
              "exact outputs %d differ of %d" % (
                  i, len(requests), counts["float"][1], counts["float"][0],
                  counts["exact"][1], counts["exact"][0]), flush=True)

    print("%s, %d rounds at seed %d: float outputs %d differ of %d; "
          "exact outputs %d differ of %d" % (
              args.workload, args.rounds, args.seed, totals["float"][1],
              totals["float"][0], totals["exact"][1], totals["exact"][0]))
    for error in errors:
        print("FAILED %s" % error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(child(sys.argv[2]) if sys.argv[1:2] == [CHILD] else main())
