import importlib.util
import os
import subprocess
import sys

import pytest

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_PATH = os.path.join(_ROOT, "tools", "ab_rounds.py")
_SPEC = importlib.util.spec_from_file_location("ab_rounds", _PATH)
ab_rounds = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_rounds)


def test_summary_gives_the_median_round_ratio_and_wins():
    rounds = [({"wall_s": 2.0, "latency_p50_s": 1.0}, {"wall_s": 1.0, "latency_p50_s": 1.0}),
              ({"wall_s": 2.0, "latency_p50_s": 1.0}, {"wall_s": 3.0, "latency_p50_s": 0.5}),
              ({"wall_s": 4.0, "latency_p50_s": 2.0}, {"wall_s": 3.0, "latency_p50_s": 3.0})]
    wall, p50 = ab_rounds.summarize(rounds)
    assert wall == ("wall_s", pytest.approx(0.75), 2, 0)
    assert p50 == ("latency_p50_s", pytest.approx(1.0), 1, 1)


def test_a_checkout_against_itself_agrees_on_one_round():
    proc = subprocess.run(
        [sys.executable, _PATH, _ROOT, _ROOT, "--workload", "transient_grid",
         "--rounds", "1", "--seed", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("round 0 (base first): wall_s ")
    assert lines[1] == "transient_grid, 1 rounds at seed 1: median per-round change/base"
    assert [line.split()[0] for line in lines[2:]] == ["wall_s", "latency_p50_s"]


def test_relative_checkout_paths_resolve_once():
    # Run from the parent directory, as `ab_rounds.py a b` beside two
    # checkouts; each worker starts inside its checkout, so a path left
    # relative would resolve a second time there.
    parent, name = os.path.split(os.path.abspath(_ROOT))
    proc = subprocess.run(
        [sys.executable, os.path.join(name, "tools", "ab_rounds.py"), name, name,
         "--workload", "t0_distribution", "--rounds", "1", "--seed", "1"],
        cwd=parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[1].startswith("t0_distribution, 1 rounds")
