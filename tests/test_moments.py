import json
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neutral_sampler
from neutral_sampler.combinatorics import (
    EMPTY,
    IntegerPartition,
    enumerate_partitions,
)
from neutral_sampler.moments import (
    eigen_coefficients,
    esf_monomial_moment,
    mixed_power_sum_moment,
    power_sum_moment,
)
from neutral_sampler.sampling import FrequencyVector
from neutral_sampler.transient import get_evaluator
from conftest import (
    bell_power_sum_moment,
    coarsenings,
    ratio_esf_monomial_moment,
    rising_factorial,
    thetas,
)

THETA_GRID = [Fraction(1, 2), 1, 2, 4, 8, 16, 32]


def partitions_min2(max_n):
    for n in range(2, max_n + 1):
        for eta in enumerate_partitions(n):
            if eta.min_part >= 2:
                yield eta


class TestRisingFactorial:
    def test_one_to_the_fourth(self):
        assert rising_factorial(1, 4) == 24

    def test_empty_product(self):
        assert rising_factorial(Fraction(7, 3), 0) == 1

    def test_half(self):
        assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            rising_factorial(1, -1)


class TestEsfMonomialMoment:
    def test_pair_at_theta_one(self):
        assert esf_monomial_moment(IntegerPartition.of(2), 1) == Fraction(1, 2)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 10])
    def test_single_block_formula(self, n, theta):
        theta = Fraction(theta)
        expected = factorial(n - 1) * theta / rising_factorial(theta, n)
        assert esf_monomial_moment(IntegerPartition.of(n), theta) == expected

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_single_sample(self, theta):
        assert esf_monomial_moment(IntegerPartition.of(1), theta) == 1

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_empty_is_one(self, theta):
        assert esf_monomial_moment(EMPTY, theta) == 1

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            esf_monomial_moment(IntegerPartition.of(2), 0)

    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, Fraction(77, 4), 10**8], ids=str)
    def test_equals_the_ratio_formula(self, theta):
        # One quotient of integers against theta^l / theta_(n) in Fractions,
        # for every eta of n <= 10 and the empty one.
        for eta in [EMPTY] + [eta for n in range(1, 11) for eta in enumerate_partitions(n)]:
            assert esf_monomial_moment(eta, theta) == ratio_esf_monomial_moment(eta, theta), eta


class TestPowerSumMoment:
    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_phi2(self, theta):
        theta = Fraction(theta)
        assert power_sum_moment(IntegerPartition.of(2), theta) == 1 / (1 + theta)

    def test_phi22_at_one(self):
        # (6 theta + theta^2)/theta_(4) at theta = 1.
        assert power_sum_moment(IntegerPartition.of(2, 2), 1) == Fraction(7, 24)

    def test_empty(self):
        assert power_sum_moment(EMPTY, Fraction(3, 2)) == 1

    def test_singleton_part_rejected(self):
        with pytest.raises(ValueError):
            power_sum_moment(IntegerPartition.of(2, 1), 1)

    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 10])
    def test_set_partition_oracle(self, theta):
        # phi_eta = sum over coarsenings of monomial samplers, so the moment
        # must equal the termwise Ewens moments; |eta| <= 5.
        for eta in partitions_min2(5):
            expected = Fraction(0)
            for _, sums in coarsenings(eta.parts):
                expected += esf_monomial_moment(IntegerPartition.of(*sums), theta)
            assert power_sum_moment(eta, theta) == expected
            assert bell_power_sum_moment(eta, theta) == expected

    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, Fraction(37, 4)])
    def test_equals_bell_sum_up_to_size_12(self, theta):
        for eta in partitions_min2(12):
            assert power_sum_moment(eta, theta) == \
                bell_power_sum_moment(eta, theta), eta

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(list(partitions_min2(12))), thetas)
    def test_equals_bell_sum_property(self, eta, theta):
        assert power_sum_moment(eta, theta) == bell_power_sum_moment(eta, theta)

    def test_in_unit_interval_and_decreasing_in_theta(self):
        for eta in partitions_min2(8):
            values = [power_sum_moment(eta, Fraction(t)) for t in THETA_GRID]
            assert all(0 < v <= 1 for v in values)
            assert all(a > b for a, b in zip(values, values[1:]))


class TestMixedPowerSumMoment:
    def test_pair_pair_at_one(self):
        p2 = IntegerPartition.of(2)
        assert mixed_power_sum_moment(p2, p2, 1) == Fraction(7, 24)

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_empty_reduces(self, theta):
        theta = Fraction(theta)
        got = mixed_power_sum_moment(IntegerPartition.of(2), EMPTY, theta)
        assert got == 1 / (1 + theta)

    def test_concatenation_identity(self):
        got = mixed_power_sum_moment(IntegerPartition.of(2), IntegerPartition.of(3), 1)
        assert got == power_sum_moment(IntegerPartition.of(3, 2), 1)

    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 10])
    def test_symmetry(self, theta):
        etas = list(partitions_min2(4))
        for a in etas:
            for b in etas:
                assert mixed_power_sum_moment(a, b, theta) == \
                    mixed_power_sum_moment(b, a, theta)


def test_eigen_coefficients_refuse_samplers_of_two_sizes():
    # One common denominator D^n H_n serves samplers of one size n only.
    x = FrequencyVector.parse("1/2,1/3,1/6")
    with pytest.raises(ValueError, match="sizes 3 and 2"):
        eigen_coefficients(Fraction(1), (((2, 1), 1), ((2,), 1)), x)


#: Prefix of the programs below: a fresh interpreter in which `import mpmath`
#: fails, so that they reach the exact layer through `moments` alone.
_WITHOUT_MPMATH = """
import json, sys
sys.modules["mpmath"] = None
from fractions import Fraction
from neutral_sampler.combinatorics import enumerate_partitions, multinomial_constant
from neutral_sampler.moments import eigen_coefficients
from neutral_sampler.sampling import FrequencyVector, expansion_of_power_sum
"""

_VECTORS = ("1/2,1/3,1/6", "2/7,1/5", "")


def _run_without_mpmath(program):
    src = os.path.dirname(os.path.dirname(neutral_sampler.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_MPMATH + program, *_VECTORS],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_layer_equals_the_evaluators_without_mpmath():
    got = _run_without_mpmath("""
theta, out = Fraction(29, 3), {}
for text in sys.argv[1:]:
    x = FrequencyVector.parse(text)
    for n in range(1, 7):
        for eta in enumerate_partitions(n):
            key = "%s|%s" % (eta, text)
            out["sampler " + key] = eigen_coefficients(
                theta, ((eta.parts, multinomial_constant(eta)),), x)
            if eta.min_part >= 2:
                out["moment " + key] = eigen_coefficients(
                    theta, expansion_of_power_sum(eta.parts), x)
print(json.dumps({k: {m: str(c) for m, c in v.items()} for k, v in out.items()}))
""")
    ev = get_evaluator(Fraction(29, 3))
    want = {}
    for text in _VECTORS:
        x = FrequencyVector.parse(text)
        for n in range(1, 7):
            for eta in enumerate_partitions(n):
                want["sampler %s|%s" % (eta, text)] = ev._sampler_eigencoeffs(eta, x)
                if eta.min_part >= 2:
                    want["moment %s|%s" % (eta, text)] = ev._moment_eigencoeffs(eta, x)
    assert got.keys() == want.keys()
    for key, coeffs in want.items():
        assert {int(m): Fraction(c) for m, c in got[key].items()} == coeffs, key


def test_transient_identities_hold_for_each_eigen_index_without_mpmath():
    # The e^{-lambda_m t} are linearly independent, so normalization and
    # Kingman consistency hold for each eigen-coefficient alone: the C_eta[m]
    # over eta of n sum to [m = 0], and sum_eta w(eta -> xi) C_eta[m] =
    # C_xi[m] with the weights of removal_children.  The verify suite checks
    # them for n <= 9 at theta in {1/2, 1, 29/3} on the three vectors.
    report = _run_without_mpmath("""
from neutral_sampler.verify import run_suite
rows = list(run_suite("transient", max_size=9))
print(json.dumps({"checks": len(rows),
                  "failures": [label for label, ok, _ in rows if not ok]}))
""")
    assert report == {"checks": 675, "failures": []}
