"""The benchmark's transient_grid t grid, read from `bench/workloads.py`."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench",
                     "workloads.py")
_SPEC = importlib.util.spec_from_file_location("bench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


# `t_grid` prints each time with 4 significant digits, so two draws can print
# alike: round 1 of seed 45 repeats 0.01022 and round 45 of seed 2310 repeats
# 0.2074.  The check that each t sums to 1 over eta then counts every eta
# twice and fails the round's 104 requests on any program.  This flips when
# the grid draws distinct strings.
@pytest.mark.xfail(strict=True, reason="bench t_grid can print two times alike")
def test_every_transient_t_grid_holds_distinct_times():
    for seed, index in ((45, 0), (45, 1), (2310, 44), (2310, 45)):
        requests = workloads.round_requests("transient_grid", seed, index)
        first = requests[0]
        ts = [req["t"] for req in requests
              if (req["eta"], req["x"]) == (first["eta"], first["x"])]
        assert len(set(ts)) == len(ts), (seed, index, ts)
