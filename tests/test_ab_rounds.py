import importlib.util
import os
import shutil
import subprocess
import sys

import pytest

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_PATH = os.path.join(_ROOT, "tools", "ab_rounds.py")
_SPEC = importlib.util.spec_from_file_location("ab_rounds", _PATH)
ab_rounds = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_rounds)


def _run(base: str, change: str, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, _PATH, base, change, "--workload", workload,
         "--rounds", "1", "--seed", "1"],
        capture_output=True, text=True, timeout=300)


def _totals(proc: subprocess.CompletedProcess) -> tuple[int, int]:
    """(float outputs that differ, exact outputs that differ) of the summary."""
    line = next(line for line in proc.stdout.splitlines() if line.startswith("float "))
    words = line.split()
    return (int(words[words.index("float") + 2]), int(words[words.index("exact") + 2]))


def test_summary_gives_the_median_round_ratio_and_wins():
    rounds = [({"wall_s": 2.0, "latency_p50_s": 1.0}, {"wall_s": 1.0, "latency_p50_s": 1.0}),
              ({"wall_s": 2.0, "latency_p50_s": 1.0}, {"wall_s": 3.0, "latency_p50_s": 0.5}),
              ({"wall_s": 4.0, "latency_p50_s": 2.0}, {"wall_s": 3.0, "latency_p50_s": 3.0})]
    wall, p50 = ab_rounds.summarize(rounds)
    assert wall == ("wall_s", pytest.approx(0.75), 2, 0)
    assert p50 == ("latency_p50_s", pytest.approx(1.0), 1, 1)


def test_a_checkout_against_itself_agrees_on_one_round():
    proc = _run(_ROOT, _ROOT, "transient_grid")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("round 0 (base first): wall_s ")
    assert lines[1] == "transient_grid, 1 rounds at seed 1: median per-round change/base"
    assert [line.split()[0] for line in lines[2:4]] == ["wall_s", "latency_p50_s"]
    assert lines[4].startswith("float outputs ")


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


def test_a_checkout_against_itself_reads_zero():
    for workload in ("transient_grid", "ldp_theta_scan"):
        proc = _run(_ROOT, _ROOT, workload)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[0].startswith("round 0 ")
        assert _totals(proc) == (0, 0), proc.stdout


def test_a_combine_rounded_one_bit_short_reads_nonzero(tmp_path):
    # A copy whose combine rounds to precision_bits - 1 bits changes float
    # outputs, and no exact one.
    mutant = tmp_path / "mutant"
    for part in ("src", "bench"):
        shutil.copytree(os.path.join(_ROOT, part), mutant / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
    source = mutant / "src" / "neutral_sampler" / "transient.py"
    text = source.read_text()
    exact = "from_man_exp(man, exp, self.precision_bits, round_nearest)"
    assert text.count(exact) == 1
    source.write_text(text.replace(exact, exact.replace("precision_bits", "precision_bits - 1")))
    proc = _run(_ROOT, str(mutant), "transient_grid")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    floats, exacts = _totals(proc)
    assert floats > 0 and exacts == 0, proc.stdout


def test_a_command_counts_its_json_fields_by_kind():
    # A command's stdout is parsed as JSON: integers and fractions are exact,
    # other decimal strings are floats, so a change of float digits alone
    # reads as no changed exact output; a stdout that is no JSON is one
    # exact value.
    def command(stdout):
        return list(ab_rounds.command_values({"rc": 0, "stdout": stdout, "stderr": ""}))

    base = command('{"theta":"3/2","t":"0.1","value":"0.5653","n":3,"t0_value":"-43/72"}\n')
    change = command('{"theta":"3/2","t":"0.1","value":"0.5654","n":3,"t0_value":"-43/72"}\n')
    assert [kind for kind, _ in base] == ["exact", "exact", "float", "exact", "exact",
                                          "float", "exact"]
    assert ab_rounds.compare([base], [change]) == {"float": [1, 2], "exact": [0, 5]}
    moved = command('{"theta":"3/2","t":"0.1","value":"0.5653","n":3,"t0_value":"-43/71"}\n')
    assert ab_rounds.compare([base], [moved]) == {"float": [0, 2], "exact": [1, 5]}
    assert command("ok: suite 'normalization' passed\n") == [
        ("exact", ["int", "0"]), ("exact", ["str", repr("ok: suite 'normalization' passed\n")]),
        ("exact", ["str", "''"])]
