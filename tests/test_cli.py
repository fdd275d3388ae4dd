import json
import os
import pathlib
import resource
import shlex
import subprocess
import sys
import time

import pytest

import neutral_sampler
from neutral_sampler import cli, verify
from neutral_sampler.cli import main, parse_rational, parse_regime, parse_theta_grid
from neutral_sampler.combinatorics import IntegerPartition
from neutral_sampler.sampling import (
    CapExceededError,
    FrequencyVector,
    sampling_probability,
)
from fractions import Fraction


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_cli_process(*argv):
    """The CLI in a fresh interpreter, capped at 256 MB of address space and
    30 s, so that a regression into an endless loop fails instead of hanging."""
    src = os.path.dirname(os.path.dirname(neutral_sampler.__file__))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    return subprocess.run(
        [sys.executable, "-m", "neutral_sampler.cli", *argv],
        capture_output=True, text=True, timeout=30, preexec_fn=cap_memory,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))))


class TestParsers:
    def test_rational(self):
        assert parse_rational("1/3") == Fraction(1, 3)

    def test_scientific(self):
        assert parse_rational("1e6") == Fraction(10) ** 6

    def test_grid_list(self):
        assert parse_theta_grid("1,10") == [Fraction(1), Fraction(10)]

    def test_grid_log(self):
        assert parse_theta_grid("10:1e3:log") == \
            [Fraction(10), Fraction(100), Fraction(1000)]

    def test_grid_log_single_point(self):
        assert parse_theta_grid("1e5:1e5:log") == [Fraction(10) ** 5]

    def test_grid_log_reversed_rejected(self):
        with pytest.raises(ValueError, match="lo > hi"):
            parse_theta_grid("1e8:1e5:log")

    def test_grid_at_cap(self):
        assert len(parse_theta_grid("1:1e63:log")) == cli.MAX_THETA_GRID_POINTS
        assert len(parse_theta_grid(",".join(["1"] * 64))) == 64

    @pytest.mark.parametrize("text", ["1:1e64:log", ",".join(["1"] * 65),
                                      "1e-100000:1:log"],
                             ids=["log", "list", "tiny_lo"])
    def test_grid_over_cap_rejected(self, text):
        with pytest.raises(CapExceededError, match="more than 64 points"):
            parse_theta_grid(text)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "abc", "1/0"])
    def test_rational_rejects_non_finite(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["1e4299", "1e-4299", "9" * 4300, "1/" + "7" * 4300],
                             ids=["exponent", "negative_exponent", "numerator",
                                  "denominator"])
    def test_rational_at_the_digit_limit(self, text):
        assert parse_rational(text) == Fraction(text)

    @pytest.mark.parametrize("text", ["1e4300", "1e-4300", "3e20000", "1e10000000",
                                      "0e10000000"])
    def test_rational_over_the_digit_limit_rejected(self, text):
        with pytest.raises(ValueError, match="too long|beyond"):
            parse_rational(text)

    def test_log_grid_bounds_over_the_digit_limit_rejected(self):
        with pytest.raises(ValueError, match="too long"):
            parse_theta_grid("1e-5000:1e-4990:log")

    def test_regime(self):
        spec = parse_regime("logarithmic:1/2")
        assert spec.parameter == Fraction(1, 2)
        with pytest.raises(ValueError):
            parse_regime("bogus:1")


class TestSampleProb:
    def test_singleton_is_certain(self, capsys):
        rc, out, _ = run_cli(capsys, "sample-prob", "--eta", "1",
                             "--x", "1/2,1/3,1/6")
        assert rc == 0
        payload = json.loads(out)
        assert payload["p_exact"] == "1"

    def test_pair(self, capsys):
        rc, out, _ = run_cli(capsys, "sample-prob", "--eta", "2",
                             "--x", "1/2,1/2")
        assert json.loads(out)["p_exact"] == "1/2"

    def test_cap_exit_code(self, capsys):
        rc, _, err = run_cli(capsys, "sample-prob", "--eta", "3,3,3",
                             "--x", "1/2,1/2")
        assert rc == 3 and "max_n" in err

    def test_parse_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample-prob", "--eta", "2", "--x", "2/3,2/3"])
        assert exc.value.code == 2


class TestMoment:
    def test_pair_at_one(self, capsys):
        rc, out, _ = run_cli(capsys, "moment", "--eta", "2", "--theta", "1")
        assert json.loads(out)["value"] == "1/2"

    def test_mixed(self, capsys):
        rc, out, _ = run_cli(capsys, "moment", "--eta", "2", "--xi", "2",
                             "--theta", "1")
        assert json.loads(out)["value"] == "7/24"


class TestBasisDump:
    def test_contains_pair_element(self, capsys):
        rc, out, _ = run_cli(capsys, "basis", "--max-size", "3", "--theta", "1")
        payload = json.loads(out)
        pair = next(el for el in payload if el["label"] == [2])
        assert pair["coeffs"] == {"": "-1/2", "2": "1"}
        assert pair["norm2"] == "1/24"

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "basis", "--max-size", "4", "--theta", "2")
        _, out2, _ = run_cli(capsys, "basis", "--max-size", "4", "--theta", "2")
        assert out1 == out2


class TestTransient:
    def test_stationary_matches_exact_field(self, capsys):
        rc, out, _ = run_cli(capsys, "transient", "--eta", "2",
                             "--x", "1/2,1/3,1/6", "--theta", "1", "--t", "inf")
        payload = json.loads(out)
        assert payload["stationary_value"] == "1/2"

    def test_t0_field(self, capsys):
        rc, out, _ = run_cli(capsys, "transient", "--eta", "2",
                             "--x", "1/2,1/2", "--theta", "1", "--t", "0")
        payload = json.loads(out)
        assert payload["t0_value"] == "1/2"


    def test_top_level_precision_is_used(self, capsys):
        rc, out, _ = run_cli(capsys, "--precision", "300", "transient", "--eta", "2",
                             "--x", "1/2,1/2", "--theta", "1", "--t", "1")
        assert rc == 0
        assert json.loads(out)["precision_bits"] == 300

    @pytest.mark.parametrize("t", ["1e300000", "1e1000000", "1e100000000"])
    def test_huge_finite_t_exits_0_within_5_seconds(self, t):
        # Every decay lies below 2^-(2^64) here: the value is that of
        # t = 1e1000, computed without taking e^{-lambda_m t}.
        args = ("transient", "--eta", "2,1", "--x", "1/2,1/3", "--theta", "3/2", "--t")
        start = time.monotonic()
        proc = run_cli_process(*args, t)
        assert time.monotonic() - start < 5
        assert proc.returncode == 0, proc.stderr
        want = json.loads(run_cli_process(*args, "1e1000").stdout)["value"]
        assert json.loads(proc.stdout)["value"] == want


BAD_INPUTS = {
    "negative_t": ["transient", "--eta", "2", "--x", "1", "--theta", "1", "--t", "-1"],
    "minus_inf_t": ["transient", "--eta", "2", "--x", "1", "--theta", "1", "--t=-inf"],
    "nan_t": ["transient", "--eta", "2", "--x", "1", "--theta", "1", "--t", "nan"],
    "infinite_k": ["ldp-scan", "--n", "2", "--eta", "2", "--k", "inf",
                   "--theta-grid", "10"],
    "grid_from_zero": ["weak-limit-scan", "--omega", "2", "--x", "1/2,1/2",
                       "--regime", "proportional:1", "--theta-grid", "0:10:log"],
    "grid_below_zero": ["ldp-scan", "--n", "2", "--eta", "2", "--k", "1",
                        "--theta-grid=-1:10:log"],
    "zero_denominator_x": ["sample-prob", "--eta", "2", "--x", "1/0"],
    "zero_denominator_t": ["transient", "--eta", "2", "--x", "1/2", "--theta", "1",
                           "--t", "1/0"],
    "singleton_part_in_xi": ["lemma41-scan", "--eta", "2", "--xi", "3,1",
                             "--theta-grid", "10"],
    "ldp_scan_theta_one": ["ldp-scan", "--n", "2", "--eta", "2", "--k", "1",
                           "--theta-grid", "1"],
    "ldp_scan_theta_half": ["ldp-scan", "--n", "2", "--eta", "2", "--k", "1",
                            "--theta-grid", "1/2"],
    # A theta outside the grid's domain, after a valid one.
    "logarithmic_theta_below_one": ["weak-limit-scan", "--omega", "2", "--x", "1/2,1/3",
                                    "--regime", "logarithmic:1",
                                    "--theta-grid", "10,1/2"],
    "sublog_theta_below_e": ["weak-limit-scan", "--omega", "2", "--x", "1/2,1/3",
                             "--regime", "sublog", "--theta-grid", "100,2"],
    "weak_limit_scan_theta_zero": ["weak-limit-scan", "--omega", "2", "--x", "1/2,1/3",
                                   "--regime", "proportional:1",
                                   "--theta-grid", "10,0"],
    "ldp_scan_sublog_theta_below_e": ["ldp-scan", "--n", "2", "--eta", "2", "--k", "0",
                                      "--theta-grid", "100,2"],
    "lemma41_scan_negative_theta": ["lemma41-scan", "--eta", "3", "--xi", "2",
                                    "--theta-grid", "1e6,-1"],
    "weak_limit_scan_singleton_omega": ["weak-limit-scan", "--omega", "2,1",
                                        "--x", "1/2,1/3",
                                        "--regime", "proportional:3/2",
                                        "--theta-grid", "10"],
    "moment_singleton_in_xi": ["moment", "--eta", "2", "--xi", "2,1", "--theta", "1"],
    "moment_singleton_in_eta": ["moment", "--eta", "3,1", "--theta", "1"],
    "log_grid_two_fields": ["ldp-scan", "--n", "2", "--eta", "2", "--k", "1",
                            "--theta-grid", "1:2"],
    "log_grid_four_fields": ["ldp-scan", "--n", "2", "--eta", "2", "--k", "1",
                             "--theta-grid", "1:2:log:x"],
}

#: The field a refusal names, where the command is given more than one
#: label, and the form a malformed log grid should take.
BAD_INPUT_MESSAGES = {
    "moment_singleton_in_xi": "error: xi needs parts >= 2, got 2,1\n",
    "moment_singleton_in_eta": "error: eta needs parts >= 2, got 3,1\n",
    "log_grid_two_fields": "error: a log grid is lo:hi:log, got '1:2'\n",
    "log_grid_four_fields": "error: a log grid is lo:hi:log, got '1:2:log:x'\n",
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2_without_traceback(argv):
    proc = run_cli_process(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("name", BAD_INPUT_MESSAGES)
def test_bad_input_names_the_field_given(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main(BAD_INPUTS[name])
    assert exc.value.code == 2
    assert capsys.readouterr().err == BAD_INPUT_MESSAGES[name]


def _readme_commands():
    """Every `neutral-sampler ...` line of the README's CLI block, with
    backslash continuations joined, as an argument list."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```sh", 1)[1]
    text = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("neutral-sampler ")]


README_COMMANDS = _readme_commands()


def test_readme_cli_block_is_found():
    assert len(README_COMMANDS) == 10
    assert ["weak-limit-scan", "--omega", "2", "--x", "1/2,1/3,1/6", "--regime",
            "proportional:1", "--theta-grid", "1e3:1e6:log"] in README_COMMANDS


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: " ".join(argv))
def test_readme_example_runs(argv):
    proc = run_cli_process(*argv)
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "verify":
        assert proc.stdout.startswith("ok: suite ")
    else:
        json.loads(proc.stdout)


def test_suite_names_are_verifys_suites():
    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))


OVERSIZED_RATIONALS = {
    "transient_theta": ["transient", "--eta", "3,3,2", "--x", "1/2,1/3",
                        "--theta", "1e20000", "--t", "1"],
    "moment_theta": ["moment", "--eta", "2", "--theta", "1e5000"],
    "weak_limit_scan_grid": ["weak-limit-scan", "--omega", "2", "--x", "1/2,1/3",
                             "--regime", "proportional:1", "--theta-grid", "1e5000"],
    "sample_prob_x": ["sample-prob", "--eta", "2", "--x", "1e-5000"],
    "huge_exponent": ["moment", "--eta", "2", "--theta", "1e10000000"],
}


@pytest.mark.parametrize("argv", OVERSIZED_RATIONALS.values(),
                         ids=OVERSIZED_RATIONALS.keys())
def test_oversized_rational_exits_2_within_a_second(argv):
    start = time.monotonic()
    proc = run_cli_process(*argv)
    assert time.monotonic() - start < 1
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


REFUSED = {
    "oracle_size_0": ["verify", "--suite", "oracle", "--max-size", "0"],
    "consistency_size_1": ["verify", "--suite", "consistency", "--max-size", "1"],
    "all_size_1": ["verify", "--suite", "all", "--max-size", "1"],
    "theta_without_theta_suite": ["verify", "--suite", "consistency", "--theta", "3"],
    "theta_with_all": ["verify", "--suite", "all", "--theta", "3"],
    "reversed_grid_ldp_scan": ["ldp-scan", "--n", "2", "--eta", "2", "--k", "1",
                               "--theta-grid", "1e8:1e5:log"],
    "reversed_grid_weak_limit_scan": ["weak-limit-scan", "--omega", "2",
                                      "--x", "1/2,1/2", "--regime", "proportional:1",
                                      "--theta-grid", "1e8:1e5:log"],
    "reversed_grid_lemma41_scan": ["lemma41-scan", "--eta", "3", "--xi", "2",
                                   "--theta-grid", "1e8:1e5:log"],
}


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED.keys())
def test_refused_request_exits_2_with_one_error_line(argv):
    proc = run_cli_process(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


OVERSIZED = {
    "moment": ["moment", "--eta", ",".join(["2"] * 12), "--theta", "1"],
    "moment_with_xi": ["moment", "--eta", "2,2,2", "--xi", "3,2", "--theta", "1"],
    "basis": ["basis", "--max-size", "11", "--theta", "1"],
    "verify": ["verify", "--suite", "orthogonality", "--max-size", "9"],
    "lemma41_scan": ["lemma41-scan", "--eta", "4,3", "--xi", "2,2",
                     "--theta-grid", "1e6"],
    "weak_limit_scan": ["weak-limit-scan", "--omega", "3,3,3", "--x", "1/2,1/2",
                        "--regime", "proportional:1", "--theta-grid", "1e3"],
    "ldp_scan": ["ldp-scan", "--n", "11", "--eta", "2,2,2,2,2,1", "--k", "1/2",
                 "--theta-grid", "1e5"],
}


@pytest.mark.parametrize("argv", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_oversized_request_exits_3(argv):
    proc = run_cli_process(*argv)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and "exceeds max_n = 8" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


OVERSIZED_GRIDS = {
    "ldp_scan_log": ["ldp-scan", "--n", "8", "--eta", "2,2,2,2", "--k", "1",
                     "--theta-grid", "1e-300:1e300:log"],
    "ldp_scan_tiny_lo": ["ldp-scan", "--n", "2", "--eta", "2", "--k", "1",
                         "--theta-grid", "1e-100000:1:log"],
    "weak_limit_scan_list": ["weak-limit-scan", "--omega", "2", "--x", "1/2,1/2",
                             "--regime", "proportional:1",
                             "--theta-grid", ",".join(["10"] * 65)],
    "lemma41_scan_log": ["lemma41-scan", "--eta", "3", "--xi", "2",
                         "--theta-grid", "1:1e64:log"],
}


@pytest.mark.parametrize("argv", OVERSIZED_GRIDS.values(), ids=OVERSIZED_GRIDS.keys())
def test_oversized_theta_grid_exits_3(argv):
    proc = run_cli_process(*argv)
    assert proc.returncode == 3
    assert proc.stderr == "error: theta grid has more than 64 points\n"
    assert proc.stdout == ""


#: Valid requests whose exact output has more digits than Python prints.
UNPRINTABLE = {
    "moment": ["moment", "--eta", "2,2", "--theta", "1e3000"],
    "basis": ["basis", "--max-size", "4", "--theta", "1e600"],
    "sample_prob": ["sample-prob", "--eta", "8", "--x", "1/" + "7" * 700],
    "transient": ["transient", "--eta", "3,3,2", "--x", "1/2,1/3",
                  "--theta", "1e4000", "--t", "1"],
}


@pytest.mark.parametrize("argv", UNPRINTABLE.values(), ids=UNPRINTABLE.keys())
def test_unprintable_exact_output_exits_3_with_one_error_line(argv):
    proc = run_cli_process(*argv)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and "is too long" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


def _no_combine(*args):
    raise AssertionError("the float combine ran")


def test_transient_checks_its_exact_fields_before_the_combine(capsys, monkeypatch):
    monkeypatch.setattr("neutral_sampler.transient.SpectralEvaluator."
                        "sampling_probability", _no_combine)
    rc, out, err = run_cli(capsys, *UNPRINTABLE["transient"])
    assert (rc, out) == (3, "")
    assert err == ("error: 'stationary_value' is too long: a numerator or "
                   "denominator may have at most %d digits\n"
                   % sys.get_int_max_str_digits())


def test_long_exact_output_within_the_limit_still_prints(capsys):
    x = "1/" + "7" * 700
    rc, out, _ = run_cli(capsys, "sample-prob", "--eta", "5,3", "--x", x)
    want = sampling_probability(IntegerPartition.of(5, 3), FrequencyVector.parse(x))
    assert rc == 0 and json.loads(out)["p_exact"] == str(want)


UNWRITABLE_OUT = {
    "sample_prob": ["sample-prob", "--eta", "2", "--x", "1/2"],
    "ldp_scan": ["ldp-scan", "--n", "2", "--eta", "2", "--k", "4",
                 "--theta-grid", "10,100"],
}


@pytest.mark.parametrize("argv", UNWRITABLE_OUT.values(), ids=UNWRITABLE_OUT.keys())
@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_out_exits_2_with_one_error_line(argv, target, tmp_path):
    out = tmp_path / "missing" / "f" if target == "missing_dir" else tmp_path
    proc = run_cli_process(*argv, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write --out ")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_out_is_refused_before_computing(target, tmp_path, capsys,
                                                    monkeypatch):
    def compute(*args, **kwargs):
        raise AssertionError("the scan ran before --out was checked")

    monkeypatch.setattr("neutral_sampler.asymptotics.ldp_slope_scan", compute)
    out = tmp_path / "missing" / "f" if target == "missing_dir" else tmp_path
    with pytest.raises(SystemExit) as exc:
        main(["ldp-scan", "--n", "2", "--eta", "2", "--k", "4",
              "--theta-grid", "1e2:1e8:log", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --out ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_writable_out_check_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "f"
    with pytest.raises(SystemExit) as exc:
        main(["sample-prob", "--eta", "2", "--x", "not-a-vector", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("eta,xi", [("5", "2,2"), ("6", "3,2")])
def test_lemma41_scan_of_a_vanishing_pair_exits_0(eta, xi, capsys, tmp_path):
    # <phi_eta, psi_xi> is exactly 0 at every theta: no exponent, ratio 0.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_n=12\n")
    argv = ["--config", str(cfg), "lemma41-scan", "--eta", eta, "--xi", xi,
            "--theta-grid", "1e4,1e6"]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, err) == (0, "")
    assert json.loads(out) == [
        {"theta": theta, "measured_exponent": None, "constant_ratio": "0.000000"}
        for theta in ("10000", "1000000")]
    rc, out, err = run_cli(capsys, "--format", "csv", *argv)
    assert (rc, err) == (0, "")
    assert out.splitlines() == ["theta,measured_exponent,constant_ratio",
                                "10000,,0.000000", "1000000,,0.000000"]


class TestRateFunction:
    def test_json_shape(self, capsys):
        rc, out, _ = run_cli(capsys, "rate-function", "--n", "2",
                             "--eta", "2", "--k", "4")
        assert json.loads(out) == {"speed": "logθ", "I": "1"}

    def test_sublog(self, capsys):
        rc, out, _ = run_cli(capsys, "rate-function", "--n", "3",
                             "--eta", "3", "--k", "0")
        payload = json.loads(out)
        assert payload["I"] == "3/2" and "t(θ)" in payload["speed"]

    def test_inf(self, capsys):
        rc, out, _ = run_cli(capsys, "rate-function", "--n", "3",
                             "--eta", "3", "--k", "inf")
        assert json.loads(out)["I"] == "2"


class TestLdpScan:
    def test_csv_out(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        rc, _, _ = run_cli(capsys, "--format", "csv", "ldp-scan", "--n", "2",
                           "--eta", "2", "--k", "4", "--theta-grid", "10,100",
                           "--out", str(out_file))
        assert rc == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "theta,P,s,abs_error"
        assert len(lines) == 3 and lines[1].startswith("10,")

    def test_out_alone_writes_json(self, capsys, tmp_path):
        # --format alone picks the format, as on the other scans.
        out_file = tmp_path / "scan.json"
        rc, out, _ = run_cli(capsys, "ldp-scan", "--n", "2", "--eta", "2",
                             "--k", "4", "--theta-grid", "10,100",
                             "--out", str(out_file))
        assert rc == 0 and out == ""
        payload = json.loads(out_file.read_text())
        assert payload["I"] == "1"
        assert [row["theta"] for row in payload["rows"]] == ["10", "100"]


class TestVerify:
    def test_consistency_suite_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "consistency")
        assert rc == 0 and "ok" in out

    def test_rate_function_suite_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "rate-function")
        assert rc == 0

    def test_every_failure_reported(self, capsys, monkeypatch):
        rows = [("a", True, ""), ("b", False, "1"), ("c", True, ""), ("d", False, "2")]
        monkeypatch.setattr(verify, "run_suite", lambda name, **kw: iter(rows))
        rc, out, _ = run_cli(capsys, "verify", "--suite", "oracle")
        assert rc == 1
        assert out.splitlines() == ["FAIL b: 1", "FAIL d: 2"]

    @pytest.mark.parametrize("suite", ["oracle", "all"])
    def test_max_size_reaches_the_suites(self, capsys, monkeypatch, suite):
        calls = []
        monkeypatch.setattr(verify, "run_suite",
                            lambda name, **kw: calls.append((name, kw)) or iter(()))
        rc, _, _ = run_cli(capsys, "verify", "--suite", suite, "--max-size", "3")
        assert rc == 0
        assert calls == [(suite, {"max_size": 3, "theta": None})]

    def test_without_flags_each_suite_keeps_its_default(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "run_suite",
                            lambda name, **kw: calls.append((name, kw)) or iter(()))
        run_cli(capsys, "verify", "--suite", "all")
        assert calls == [("all", {"max_size": None, "theta": None})]

    def test_size_over_the_oracle_cap_exits_3_before_any_suite(self, capsys,
                                                                 monkeypatch, tmp_path):
        # A config may raise max_n past the oracle's cap; --max-size may not.
        def suite(max_size):
            raise AssertionError("a suite ran")

        for name, (_, least) in verify.SUITES.items():
            monkeypatch.setitem(verify.SUITES, name, (suite, least))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_n=10\n")
        rc, out, err = run_cli(capsys, "--config", str(cfg), "verify",
                               "--suite", "all", "--max-size", "9")
        assert rc == 3 and out == ""
        assert err.startswith("error: max size 9 exceeds cap 8")

    def test_all_small_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-size", "3")
        assert rc == 0 and "ok" in out

    def test_orthogonality_small(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "orthogonality",
                             "--max-size", "4", "--theta", "1")
        assert rc == 0


class TestConfig:
    def test_config_file_precision(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("precision_bits=128\n")
        rc, out, _ = run_cli(capsys, "--config", str(cfg), "transient",
                             "--eta", "2", "--x", "1/2,1/2",
                             "--theta", "1", "--t", "1")
        assert rc == 0
        assert json.loads(out)["precision_bits"] == 128

    @pytest.mark.parametrize("where", ["env", "file"])
    def test_ldp_scan_takes_the_configured_precision(self, capsys, tmp_path,
                                                      monkeypatch, where):
        # Like every float command: flag > config file > env var, and the
        # default 256 bits when none of them is set.
        scan = ["ldp-scan", "--n", "2", "--eta", "2", "--k", "1",
                "--theta-grid", "100"]
        want = {bits: run_cli(capsys, "--precision", bits, *scan)[1]
                for bits in ("128", "256")}
        assert run_cli(capsys, *scan)[1] == want["256"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("precision_bits=128\n")
        if where == "env":
            monkeypatch.setenv("NEUTRAL_SAMPLER_PRECISION", "128")
        argv = ["--config", str(cfg)] if where == "file" else []
        rc, out, _ = run_cli(capsys, *argv, *scan)
        assert rc == 0 and out == want["128"] != want["256"]
        assert len(json.loads(out)["rows"][0]["P"]) == 43

    @pytest.mark.parametrize("line", ["seed=1", "max_atoms=10"])
    def test_unused_keys_rejected(self, capsys, tmp_path, line):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(line + "\n")
        rc, _, err = run_cli(capsys, "--config", str(cfg), "moment",
                             "--eta", "2", "--theta", "1")
        assert rc == 3 and "unknown config key" in err

    def test_bad_config_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("precision_bits=banana\n")
        rc, _, err = run_cli(capsys, "--config", str(cfg), "moment",
                             "--eta", "2", "--theta", "1")
        assert rc == 3

    @pytest.mark.parametrize("where", ["flag", "env", "file"])
    def test_precision_over_the_ceiling_exits_3_within_a_second(self, tmp_path,
                                                                 monkeypatch, where):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("precision_bits=8193\n")
        argv = {"flag": ["--precision", "8193"], "env": [],
                "file": ["--config", str(cfg)]}[where]
        if where == "env":
            monkeypatch.setenv("NEUTRAL_SAMPLER_PRECISION", "1000000")
        start = time.monotonic()
        proc = run_cli_process(*argv, "transient", "--eta", "2,1", "--x", "1/2,1/3",
                               "--theta", "3/2", "--t", "1/10")
        assert time.monotonic() - start < 1
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: precision_bits must be in [64, 8192]")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unreadable_config_exits_3(self, tmp_path, target):
        cfg = tmp_path / "missing.cfg" if target == "missing" else tmp_path
        proc = run_cli_process("--config", str(cfg), "sample-prob",
                               "--eta", "2", "--x", "1/2")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: cannot read --config ")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""
