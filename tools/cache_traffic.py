"""Count the hits and misses of every lru_cache of the program on one
benchmark workload.

    python3 tools/cache_traffic.py WORKLOAD --seed S --rounds R

Round r (0 <= r < R) takes the requests of `round_requests(WORKLOAD, S, r)`
from this checkout's `bench/workloads.py` and runs them in a fresh
interpreter through `bench/worker.prepare`, with the program imported from
this checkout's `src`, so every cache starts empty as in a benchmark round.
cli_mix runs each command through `cli.main` in an interpreter of its own.

Every lru_cache defined on a module or on a class of the package is counted;
one on a class (`SpectralEvaluator._sampler_terms`, `_decay_row` and `_rate`)
is shared by every instance.  Prints one line per cache, named as in
`tests/test_caches.CACHES`, with its hits and misses summed over the rounds,
then the error of each failed request and the number of requests and of
failed ones.  Nothing is written.
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


def add(totals: dict, name: str, hits: int, misses: int):
    total = totals.setdefault(name, [0, 0])
    total[0] += hits
    total[1] += misses


def caches():
    """(name, lru_cache) of every cache defined on a module or on a class of
    the package."""
    import neutral_sampler
    for info in pkgutil.iter_modules(neutral_sampler.__path__):
        module = importlib.import_module("neutral_sampler." + info.name)
        for attr, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if hasattr(value, "cache_info"):
                yield "%s.%s" % (info.name, attr), value
            elif isinstance(value, type):
                for name, method in vars(value).items():
                    if hasattr(method, "cache_info"):
                        yield "%s.%s.%s" % (info.name, attr, name), method


def child() -> int:
    """Run the JSON list of requests on stdin; print the cache counts and
    the error of each failed request as JSON."""
    requests = json.load(sys.stdin)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import neutral_sampler as ns
    from neutral_sampler import cli
    import worker

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
    counts = {name: [cached.cache_info().hits, cached.cache_info().misses]
              for name, cached in caches()}
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
