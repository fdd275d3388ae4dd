import functools
import importlib.util
import json
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


@functools.lru_cache(maxsize=None)
def _run(base: str, change: str, workload: str, rounds: int = 1,
         seed: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, _PATH, base, change, "--workload", workload,
         "--rounds", str(rounds), "--seed", str(seed)],
        capture_output=True, text=True, timeout=300)


def _totals(proc: subprocess.CompletedProcess) -> tuple[int, int]:
    """(float outputs that differ, exact outputs that differ) of the summary."""
    line = next(line for line in proc.stdout.splitlines() if line.startswith("float "))
    words = line.split()
    return (int(words[words.index("float") + 2]), int(words[words.index("exact") + 2]))


def _metrics() -> list:
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["end_to_end"]


def test_summary_gives_the_median_round_ratio_and_wins():
    metrics = [{"name": "a", "better": "lower", "bound": None}]
    rounds = [({"a": 2.0}, {"a": 1.0}), ({"a": 2.0}, {"a": 3.0}), ({"a": 4.0}, {"a": 3.0}),
              ({"a": 1.0}, {"a": 1.0})]
    row, = ab_rounds.summarize(rounds, ({"a": 9.0}, {"a": 8.0}), metrics)
    assert row["ratio"] == pytest.approx(8 / 9)
    assert row["round_ratio"] == pytest.approx(0.875)
    assert (row["wins"], row["ties"], row["rounds"], row["worse"]) == (2, 1, 4, False)


def test_summary_reads_direction_and_bound_from_the_benchmark():
    # A higher max_n_in_budget is a win; a tail 30 % slower is worse than
    # its 25 % bound, one 20 % slower is not.
    names = [m["name"] for m in _metrics()]
    base = dict.fromkeys(names, 100.0)
    change = dict(base, max_n_in_budget=105.0, latency_tail_ms=130.0, latency_p50_ms=120.0,
                  throughput_rps=70.0)
    rows = {row["name"]: row for row in ab_rounds.summarize(
        [(base, change)], (base, change), _metrics())}
    assert rows["max_n_in_budget"]["wins"] == 1 and not rows["max_n_in_budget"]["worse"]
    assert rows["latency_tail_ms"]["wins"] == 0 and rows["latency_tail_ms"]["worse"]
    assert not rows["latency_p50_ms"]["worse"]
    assert rows["throughput_rps"]["worse"]
    assert rows["setup_s"]["ties"] == 1 and not rows["setup_s"]["worse"]


def test_a_checkout_against_itself_agrees_on_one_round():
    proc = _run(_ROOT, _ROOT, "transient_grid")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("round 0 (base first): setup_s ")
    assert lines[1].startswith("transient_grid, 1 rounds at seed 1: base -> change")
    assert [line.split()[0] for line in lines[2:9]] == [m["name"] for m in _metrics()] + [
        "prepare_s"]
    assert lines[9].startswith("float outputs ")
    assert lines[10] == "failures: base 0, change 0, shared 0"


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


def _mutant(tmp_path, bits: str) -> str:
    """A copy whose combine rounds to `bits` bits instead of precision_bits."""
    mutant = tmp_path / "mutant"
    for part in ("src", "bench"):
        shutil.copytree(os.path.join(_ROOT, part), mutant / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
    source = mutant / "src" / "neutral_sampler" / "transient.py"
    text = source.read_text()
    exact = "from_man_exp(man, exp, self.precision_bits, round_nearest)"
    assert text.count(exact) == 1
    source.write_text(text.replace(exact, exact.replace("self.precision_bits", bits)))
    return str(mutant)


def test_a_combine_rounded_one_bit_short_reads_nonzero(tmp_path):
    # A copy whose combine rounds to precision_bits - 1 bits changes float
    # outputs, and no exact one; every check still passes.
    proc = _run(_ROOT, _mutant(tmp_path, "self.precision_bits - 1"), "transient_grid")
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


def test_a_repeated_time_fails_both_sides_and_is_not_counted():
    # Round 1 of seed 45 draws t = 0.01022 twice, so every sum over eta at
    # that t counts each eta twice and BASE's check fails on both sides.
    proc = _run(_ROOT, _ROOT, "transient_grid", rounds=2, seed=45)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].endswith("; t grid distinct")
    assert lines[1].endswith("; t grid repeats 0.01022")
    assert "failures: base 104, change 104, shared 104" in lines
    assert ("shared: round 1, 104 requests fail on both sides; t grid repeats 0.01022"
            in lines)
    assert not any(line.startswith("FAILED") for line in lines), proc.stdout


def test_a_perturbed_transient_value_fails_the_change(tmp_path):
    # Rounded to 53 bits, the transient values miss the checks' 30 digits on
    # the change side only.
    proc = _run(_ROOT, _mutant(tmp_path, "53"), "transient_grid")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith("FAILED ")]
    assert failed[0].startswith("FAILED round 0 request 0: change only: output check: ")
    assert failed[-1].startswith("FAILED ... and ")
    assert any(line.startswith("failures: base 0, change ") for line in lines)
