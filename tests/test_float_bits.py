import os
import shutil
import subprocess
import sys

_ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
_PATH = os.path.join(_ROOT, "tools", "float_bits.py")


def _run(base: str, change: str, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, _PATH, base, change, "--workload", workload,
         "--rounds", "1", "--seed", "1"],
        capture_output=True, text=True, timeout=300)


def _totals(proc: subprocess.CompletedProcess) -> tuple[int, int]:
    """(float outputs that differ, exact outputs that differ) of the last line."""
    words = proc.stdout.splitlines()[-1].split()
    return (int(words[words.index("float") + 2]), int(words[words.index("exact") + 2]))


def test_a_checkout_against_itself_reads_zero():
    for workload in ("transient_grid", "ldp_theta_scan"):
        proc = _run(_ROOT, _ROOT, workload)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[0].startswith("round 0: ")
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
