"""One rung of the max_n_in_budget probe, in a cold interpreter.

Usage: probe.py ROUTE N SEED

Imports the program, prints "ready", then computes every eta of N on the
route (t0, transient or ldp) for the seed's probe inputs and prints the
compute time in seconds.  `run.py` kills it when the budget runs out.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

import workloads


def main():
    route, n, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    import neutral_sampler as ns

    inputs = workloads.probe_inputs(seed)
    x = ns.FrequencyVector.parse(inputs["x"])
    etas = [ns.IntegerPartition(p) for p in workloads.partitions(n)]
    print("ready", flush=True)
    start = time.perf_counter()
    if route == "t0":
        for eta in etas:
            ns.sampling_probability(eta, x)
    elif route == "transient":
        tp = ns.TimePoint(float(inputs["t"]), Fraction(inputs["theta"]))
        for eta in etas:
            ns.transient_sampling_probability(eta, x, tp)
    elif route == "ldp":
        theta, k = Fraction(inputs["ldp_theta"]), Fraction(inputs["k"])
        for eta in etas:
            ns.ldp_slope_scan(n, eta, k, [theta], x)
    else:
        raise SystemExit("unknown route %r" % route)
    print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    main()
