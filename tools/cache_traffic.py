"""Count the hits and misses of every lru_cache of the program on one
benchmark workload.

    python3 tools/cache_traffic.py WORKLOAD --seed S --rounds R

Round r (0 <= r < R) takes the requests of `round_requests(WORKLOAD, S, r)`
from this checkout's `bench/workloads.py` and runs them in a fresh
interpreter through `bench/worker.prepare`, with the program imported from
this checkout's `src`, so every cache starts empty as in a benchmark round.
cli_mix runs each command through `cli.main` in an interpreter of its own.

A cache of one evaluator (`SpectralEvaluator._sampler_terms`, `_decay` and
`_rate`) is summed over every evaluator built, also the ones `get_evaluator`
evicted: the child wraps the constructor to keep each one.  Prints one line
per cache, named as in `tests/test_caches.CACHES`, with its hits and misses
summed over the rounds, then the error of each failed request and the number
of requests and of failed ones.  Nothing is written.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = "--child"


def keep_instances(cls, prefix: str, instances: list):
    """Make every instance of `cls` append (prefix, instance) to `instances`."""
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        instances.append((prefix, self))
    cls.__init__ = __init__


def add(totals: dict, name: str, hits: int, misses: int):
    total = totals.setdefault(name, [0, 0])
    total[0] += hits
    total[1] += misses


def caches(instances: list):
    """(name, lru_cache) of every module-level cache of the package and of
    every cache the kept instances hold."""
    import neutral_sampler
    for info in pkgutil.iter_modules(neutral_sampler.__path__):
        module = importlib.import_module("neutral_sampler." + info.name)
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                yield "%s.%s" % (info.name, attr), value
    for prefix, instance in instances:
        for attr, value in vars(instance).items():
            if hasattr(value, "cache_info"):
                yield "%s.%s" % (prefix, attr), value


def child() -> int:
    """Run the JSON list of requests on stdin; print the cache counts and
    the error of each failed request as JSON."""
    requests = json.load(sys.stdin)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import neutral_sampler as ns
    from neutral_sampler import cli
    from neutral_sampler.transient import SpectralEvaluator
    import worker

    instances: list = []
    keep_instances(SpectralEvaluator, "transient.SpectralEvaluator", instances)
    errors = []
    for req in requests:
        try:
            if req["op"] == "cli":
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    try:
                        rc = cli.main(req["argv"])
                    except SystemExit as exc:
                        rc = exc.code
                if rc != 0:
                    errors.append("exit %s: %s" % (rc, err.getvalue().strip()))
            else:
                worker.prepare(req, ns)[0]()
        except Exception as exc:  # counted and reported, as in the benchmark
            errors.append("%s: %s" % (type(exc).__name__, exc))
    counts: dict = {}
    for name, cached in caches(instances):
        add(counts, name, cached.cache_info().hits, cached.cache_info().misses)
    # One idle evaluator, built after the counts are read, so that a
    # workload building none still lists its caches at 0.
    built = len(instances)
    SpectralEvaluator(1)
    for name, _ in caches(instances[built:]):
        counts.setdefault(name, [0, 0])
    json.dump({"caches": counts, "errors": errors}, sys.stdout)
    return 0


def run_child(requests: list) -> dict:
    done = subprocess.run([sys.executable, os.path.abspath(__file__), CHILD],
                          input=json.dumps(requests), capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit("error: child exited %d: %s" % (done.returncode,
                                                          done.stderr[-2000:]))
    return json.loads(done.stdout)


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    totals: dict = {}
    requests, errors = 0, []
    for index in range(args.rounds):
        batch = workloads.round_requests(args.workload, args.seed, index)
        requests += len(batch)
        children = [[req] for req in batch] if args.workload == "cli_mix" else [batch]
        for part in children:
            report = run_child(part)
            errors += report["errors"]
            for name, (hits, misses) in report["caches"].items():
                add(totals, name, hits, misses)

    print("%s, seed %d, %d rounds: hits misses" % (args.workload, args.seed,
                                                    args.rounds))
    for name in sorted(totals):
        print("%-44s %8d %8d" % (name, *totals[name]))
    for error in errors:
        print("FAILED %s" % error)
    print("requests %d, failed %d" % (requests, len(errors)))
    return 0


if __name__ == "__main__":
    sys.exit(child() if sys.argv[1:] == [CHILD] else main())
