"""Rewrite digests.json from round 0 of every workload at the default seed.

    python3 bench/make_digests.py

Run from the root of a checkout whose outputs are trusted: the digests pin
those outputs, and run.py compares every later run at the default seed
against them.  Rounds that fail an invariant check are refused.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, run.SRC)
    digests = {}
    for workload in workloads.WORKLOADS:
        requests = workloads.round_requests(workload, checks.DEFAULT_SEED, 0)
        report = run.run_worker(requests, trace=False)
        records = [(0, req, out) for req, out in zip(requests, report["outputs"])]
        failed = checks.CHECKS[workload](records, checks.DEFAULT_SEED)
        failed |= {i for i, err in enumerate(report["errors"]) if err is not None}
        if failed:
            print("error: %s fails %d checks; digests not written" % (workload, len(failed)),
                  file=sys.stderr)
            return 1
        digests[workload] = {checks.request_key(req): checks.digest_output(req, out)
                             for req, out in zip(requests, report["outputs"])}
    with open(checks.DIGEST_FILE, "w") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % checks.DIGEST_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
