"""Tests of the benchmark itself: seeded inputs, output checks, self times.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def shape(requests):
    """What must not depend on the seed: the operations and their fields."""
    return [(r["op"], sorted(r)) for r in requests]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_same_shape(workload):
    first = workloads.round_requests(workload, 7, 0)
    assert first == workloads.round_requests(workload, 7, 0)
    other = workloads.round_requests(workload, 8, 0)
    assert other != first
    assert shape(other) == shape(first)
    assert workloads.round_requests(workload, 7, 1) != first


@pytest.mark.parametrize("workload", ("t0_distribution", "transient_grid"))
def test_every_eta_of_the_ladder_is_requested(workload):
    requests = workloads.round_requests(workload, 3, 0)
    etas = {r["eta"] for r in requests}
    sizes = range(1, workloads.T0_MAX_N + 1) if workload == "t0_distribution" \
        else workloads.TRANSIENT_NS
    assert etas == {workloads.fmt_parts(p) for n in sizes for p in workloads.partitions(n)}


def test_transient_thetas_are_distinct_across_rounds():
    thetas = [workloads.transient_theta(5, i) for i in range(30)]
    assert len(set(map(Fraction, thetas))) == 30


def t0_records(corrupt: bool):
    import neutral_sampler as ns
    from neutral_sampler.combinatorics import IntegerPartition
    from neutral_sampler.sampling import FrequencyVector

    x = "3/10,1/5,1/10"
    records = []
    for parts in workloads.partitions(4):
        eta = workloads.fmt_parts(parts)
        value = ns.sampling_probability(IntegerPartition.parse(eta), FrequencyVector.parse(x))
        records.append((0, {"op": "t0", "eta": eta, "x": x}, str(value)))
    if corrupt:
        rnd, req, out = records[2]
        records[2] = (rnd, req, str(Fraction(out) + Fraction(1, 10**30)))
    return records


def test_checker_accepts_program_outputs_and_rejects_a_corrupted_fraction():
    assert checks.check_t0(t0_records(False), seed=1) == set()
    assert 2 in checks.check_t0(t0_records(True), seed=1)


def test_digest_comparison_is_exact_for_fractions_and_digit_bound_for_floats():
    assert checks.same("1/3", "1/3")
    assert not checks.same("1/3", "1/4")
    ref = "0.1234567890123456789012345678901234567890"
    assert checks.same(ref, "0.1234567890123456789012345678901234567891")
    assert not checks.same(ref, "0.1234567890123456789012345679")
    assert checks.same({"rows": [{"s": "1.500000"}]}, {"rows": [{"s": "1.500000"}]})
    assert not checks.same({"p": "2/7"}, {"p": "2/7", "extra": 1})


def test_checker_rejects_a_wrong_exit_code_and_unparsable_output():
    ok = {"rc": 0, "stdout": '{"I": "1/2"}\n', "stderr": ""}
    records = [
        (0, {"op": "cli", "argv": ["rate-function"]}, ok),
        (0, {"op": "cli", "argv": ["rate-function"]}, dict(ok, rc=2)),
        (0, {"op": "cli", "argv": ["moment"]}, dict(ok, stdout="Traceback")),
        (0, {"op": "cli", "argv": ["verify"]}, {"rc": 0, "stdout": "ok: suite 'all' passed\n"}),
        (0, {"op": "cli", "argv": ["verify"]}, {"rc": 1, "stdout": "FAIL oracle\n"}),
    ]
    assert checks.check_cli(records, seed=1) == {1, 2, 4}


def test_self_times_of_nested_spans_sum_to_the_request():
    spans_ = [
        ["request", 0.0, 10.0, -1, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 6.0, 9.0, 0, 0],
        ["request", 10.0, 12.0, -1, 1],
    ]
    selfs = spans.self_times(spans_)
    assert selfs == [3.0, 3.0, 1.0, 3.0, 2.0]
    assert spans.request_mismatches(spans_, selfs) == 0
    assert spans.by_name(spans_, selfs)["request"] == [2, 5.0]


def test_a_child_outside_its_parent_is_reported():
    spans_ = [["request", 0.0, 4.0, -1, 0], ["a", 3.0, 6.0, 0, 0]]
    selfs = spans.self_times(spans_)
    assert selfs == [3.0, 3.0]
    assert spans.request_mismatches(spans_, selfs) == 1


def test_overlapping_children_are_covered_once():
    assert spans.covered([(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)], 0.0, 10.0) == 5.0


def test_percentile_is_nearest_rank_and_counts_the_samples_beyond():
    samples = [float(i) for i in range(100, 0, -1)]
    assert run.percentile(samples, 90.0) == (90.0, 10)
    assert run.percentile(samples, 50.0) == (50.0, 50)
    assert run.percentile([3.0], 99.0) == (3.0, 0)
