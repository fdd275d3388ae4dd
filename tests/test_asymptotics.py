import math
from fractions import Fraction

import mpmath
import pytest

from neutral_sampler.asymptotics import (
    MomentScanRow,
    RegimeSpec,
    exact_inner,
    ldp_slope_scan,
    lemma41_leading_term,
    lemma41_order_scan,
    moment_limit_scan,
)
from neutral_sampler.combinatorics import EMPTY, IntegerPartition, enumerate_partitions
from neutral_sampler.rates import (
    K_INFINITE,
    K_SUBLOG,
    SPEED_LOG_THETA,
    SPEED_THETA_T,
    rate_function,
)
from neutral_sampler.sampling import FrequencyVector, power_sum_product
from neutral_sampler import transient
from neutral_sampler.transient import get_evaluator
from conftest import workprec_moment_limit_rows, workprec_slope_rows, workprec_time_and_log

P2 = IntegerPartition.of(2)
P3 = IntegerPartition.of(3)


def _no_evaluation(*args):
    raise AssertionError("a point was evaluated")


def _logged_arguments(monkeypatch) -> list:
    """The argument of every log taken from here on, through mpmath.log or
    mpf_log, as an mpf; evaluators built earlier are dropped, since each
    keeps the log of its theta."""
    get_evaluator.cache_clear()
    logs, log, mpf_log = [], mpmath.log, mpmath.libmp.mpf_log

    def logged_mpf_log(x, *args):
        logs.append(mpmath.mp.make_mpf(x))
        return mpf_log(x, *args)
    monkeypatch.setattr(mpmath, "log", lambda v: logs.append(v) or log(v))
    monkeypatch.setattr(mpmath.libmp, "mpf_log", logged_mpf_log)
    monkeypatch.setattr(transient, "mpf_log", logged_mpf_log)
    return logs


def _agreeing_digits(value, reference):
    """Significant decimal digits to which value agrees with reference."""
    with mpmath.workprec(2048):
        if value == reference:
            return math.inf
        return -mpmath.log10(abs((value - reference) / reference))


def _raw(value):
    """The _mpf_ tuple of an mpf, any other value as it is."""
    return getattr(value, "_mpf_", value)


#: The three scales, and a grid on which each is a time (theta > e).
ORACLE_REGIMES = [RegimeSpec.proportional(Fraction(2, 3)),
                  RegimeSpec.logarithmic(Fraction(1, 2)), RegimeSpec.sublog()]
ORACLE_GRID = [Fraction(3), Fraction(1000), Fraction(123457, 7), Fraction(10**8)]


@pytest.mark.parametrize("bits", [256, 512])
@pytest.mark.parametrize("regime", ORACLE_REGIMES, ids=lambda r: r.kind.value)
class TestScansEqualTheWorkprecOracle:
    """Times, weak limits, slopes and errors on raw tuples, bit for bit
    against the same formulas on mpf objects in mpmath.workprec."""

    def test_time_at(self, regime, bits):
        for theta in ORACLE_GRID:
            assert regime.time_at(theta, bits)._mpf_ == \
                workprec_time_and_log(regime, theta, bits)[0]._mpf_, theta

    def test_moment_limit_scan(self, regime, bits, x_full):
        for omega in (P2, IntegerPartition.of(3, 2), IntegerPartition.of(2, 2, 2)):
            rows = moment_limit_scan(omega, x_full, regime, ORACLE_GRID, bits)
            want = workprec_moment_limit_rows(omega, x_full, regime, ORACLE_GRID, bits)
            assert [tuple(map(_raw, (r.theta, r.computed, r.predicted, r.error)))
                    for r in rows] == [tuple(map(_raw, w)) for w in want], omega

    def test_ldp_slope_scan(self, regime, bits, x_full):
        # The slope scan runs on the logarithmic scales (k > 0) and on the
        # sublog one (k = 0); the proportional case takes k = 4.
        k = {"proportional": 4, "logarithmic": regime.parameter, "sublog": K_SUBLOG}[
            regime.kind.value]
        for n, eta in ((2, P2), (5, IntegerPartition.of(2, 2, 1)),
                       (7, IntegerPartition.of(3, 2, 1, 1))):
            rows = ldp_slope_scan(n, eta, k, ORACLE_GRID, x_full, bits)
            want = workprec_slope_rows(n, eta, k, ORACLE_GRID, x_full, bits)
            assert [tuple(map(_raw, (r.theta, r.probability, r.slope, r.abs_error,
                                     r.underflow))) for r in rows] == \
                [tuple(map(_raw, w)) for w in want], (eta, k)


class TestRegimeSpec:
    def test_time_at_proportional(self):
        t = RegimeSpec.proportional(2).time_at(Fraction(4))
        with mpmath.workprec(128):
            assert abs(t - mpmath.mpf(1) / 2) < mpmath.mpf(2) ** -100

    def test_time_at_logarithmic(self):
        t = RegimeSpec.logarithmic(1).time_at(Fraction(10))
        with mpmath.workprec(128):
            assert abs(t - mpmath.log(10) / 10) < mpmath.mpf(2) ** -100

    def test_sublog_needs_large_theta(self):
        with pytest.raises(ValueError):
            RegimeSpec.sublog().time_at(Fraction(2))

    @pytest.mark.parametrize("regime,theta,domain", [
        (RegimeSpec.proportional(1), 0, "theta > 0"),
        (RegimeSpec.logarithmic(1), Fraction(1, 2), "theta >= 1"),
        (RegimeSpec.sublog(), Fraction(271, 100), "theta > e"),
    ], ids=["proportional", "logarithmic", "sublog"])
    def test_check_theta_names_domain_and_theta(self, regime, theta, domain):
        message = "needs %s, got theta=%s" % (domain, theta)
        with pytest.raises(ValueError, match=message):
            regime.check_theta(theta)
        with pytest.raises(ValueError, match="got theta=%s" % theta):
            regime.time_at(theta)

    @pytest.mark.parametrize("regime", ORACLE_REGIMES, ids=lambda r: r.kind.value)
    def test_time_at_refuses_a_precision_out_of_range(self, regime):
        # On every scale the bound of the evaluator, which keeps log theta.
        for bits in (32, 8193):
            with pytest.raises(ValueError, match="precision_bits must be in"):
                regime.time_at(Fraction(10), bits)

    def test_logarithmic_time_is_zero_at_one(self):
        assert RegimeSpec.logarithmic(1).time_at(1) == 0

    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(ValueError):
            RegimeSpec.proportional(0)
        with pytest.raises(ValueError):
            RegimeSpec.logarithmic(-1)


class TestWeakLimitPoint:
    """RegimeSpec.limit_moment: the moment at the weak limit of each scale."""

    def test_logarithmic_gives_pure_dust(self, x_full):
        assert RegimeSpec.logarithmic(1).limit_moment(P2, x_full) == 0

    def test_sublog_gives_pure_dust(self, x_full):
        assert RegimeSpec.sublog().limit_moment(P2, x_full) == 0

    def test_proportional_shrinks_by_exp(self, x_full):
        with mpmath.workprec(128):
            exact = power_sum_product(P2, x_full)
            want = mpmath.exp(-1) * mpmath.mpf(exact.numerator) / exact.denominator
            got = RegimeSpec.proportional(1).limit_moment(P2, x_full, 128)
            assert abs(got - want) < mpmath.mpf(2) ** -100


class TestMomentLimitScan:
    def test_error_shrinks_by_decades(self, x_full):
        rows = moment_limit_scan(P2, x_full, RegimeSpec.proportional(1),
                                 [Fraction(10) ** d for d in range(2, 5)], 256)
        with mpmath.workprec(256):
            errs = [mpmath.mpf(r.error) for r in rows]
            assert all(a / b > 5 for a, b in zip(errs, errs[1:]))

    def test_predicted_is_constant_across_rows(self, x_full):
        rows = moment_limit_scan(P3, x_full, RegimeSpec.logarithmic(1),
                                 [Fraction(100), Fraction(1000)], 256)
        assert rows[0].predicted == rows[1].predicted == 0

    @pytest.mark.parametrize("regime,bad", [
        (RegimeSpec.logarithmic(1), Fraction(1, 2)),
        (RegimeSpec.sublog(), Fraction(2)),
        (RegimeSpec.proportional(1), Fraction(0)),
        (RegimeSpec.proportional(1), Fraction(-1)),
    ], ids=["logarithmic_below_one", "sublog_below_e", "zero", "negative"])
    def test_bad_theta_refused_before_any_point(self, regime, bad, x_full,
                                                monkeypatch):
        monkeypatch.setattr("neutral_sampler.transient.get_evaluator",
                            _no_evaluation)
        with pytest.raises(ValueError, match="got theta=%s" % bad):
            moment_limit_scan(P2, x_full, regime, [Fraction(100), bad], 256)

    def test_singleton_part_in_omega_refused_before_any_work(self, x_full,
                                                             monkeypatch):
        monkeypatch.setattr("neutral_sampler.transient.get_evaluator",
                            _no_evaluation)
        monkeypatch.setattr(RegimeSpec, "limit_moment", _no_evaluation)
        with pytest.raises(ValueError, match="omega needs parts >= 2, got 2,1"):
            moment_limit_scan(IntegerPartition.of(2, 1), x_full,
                              RegimeSpec.proportional(Fraction(3, 2)),
                              [Fraction(10)], 256)

    def test_empty_omega_is_the_constant_one(self, x_full):
        rows = moment_limit_scan(EMPTY, x_full, RegimeSpec.proportional(1),
                                 [Fraction(10)], 256)
        assert rows[0].computed == rows[0].predicted == 1


class TestScanRows:
    def test_fields_are_taken_in_order(self):
        row = MomentScanRow(Fraction(10), 1, 2, 3)
        assert (row.theta, row.computed, row.predicted, row.error) == (10, 1, 2, 3)
        assert row == MomentScanRow(Fraction(10), 1, 2, 3)

    @pytest.mark.parametrize("values", [(1, 2, 3), (1, 2, 3, 4, 5)],
                             ids=["too_few", "too_many"])
    def test_wrong_number_of_values_refused(self, values):
        with pytest.raises(TypeError, match="MomentScanRow takes"):
            MomentScanRow(*values)


class TestLemma41LeadingTerm:
    def test_pair_against_one(self):
        assert lemma41_leading_term(P2, None, Fraction(10)) == Fraction(1, 10)

    def test_triple_against_one(self):
        # (3-1)! theta^{-2}
        assert lemma41_leading_term(P3, EMPTY, Fraction(10)) == Fraction(2, 100)

    def test_triple_against_pair(self):
        # bracket = 4!/(2! 1!) - 3*2 = 6; prefactorials = 2; exponent 4.
        assert lemma41_leading_term(P3, P2, Fraction(10)) == Fraction(12, 10 ** 4)

    def test_singleton_parts_rejected(self):
        with pytest.raises(ValueError):
            lemma41_leading_term(IntegerPartition.of(2, 1), None, 1)
        with pytest.raises(ValueError):
            lemma41_leading_term(P2, IntegerPartition.of(1), 1)


class TestExactInner:
    def test_phi2_against_one(self):
        assert exact_inner(P2, None, Fraction(3)) == Fraction(1, 4)

    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 10])
    def test_phi2_against_psi2(self, theta):
        # <phi_2, psi_2> = <psi_2, psi_2> since phi_2 = psi_2 + const.
        theta = Fraction(theta)
        got = exact_inner(P2, P2, theta)
        stat = 1 / (1 + theta)
        # Independent route: Var phi_2 = E phi_2^2 - (E phi_2)^2.
        from neutral_sampler.moments import power_sum_moment
        want = power_sum_moment(IntegerPartition.of(2, 2), theta) - stat ** 2
        assert got == want

    def test_singleton_part_in_xi_rejected(self):
        # psi_(3,1) is no basis element, since phi_1 == 1.
        with pytest.raises(ValueError, match="xi needs parts >= 2"):
            exact_inner(P2, IntegerPartition.of(3, 1), 10)


class TestOrderScan:
    def big_thetas(self):
        return [Fraction(10) ** 6]

    def test_phi2_vs_one_measures_one(self):
        (row,) = lemma41_order_scan(P2, None, self.big_thetas())
        assert abs(row.measured_exponent - 1) < 0.05

    def test_phi3_vs_psi2_measures_four(self):
        (row,) = lemma41_order_scan(P3, P2, self.big_thetas())
        assert abs(row.measured_exponent - 4) < 0.05

    def test_constant_ratio_phi2(self):
        # Exact/predicted = theta/(1+theta) -> 1.
        (row,) = lemma41_order_scan(P2, None, self.big_thetas())
        assert abs(row.constant_ratio - 1) < Fraction(1, 100)

    @pytest.mark.parametrize("bad", [Fraction(-1), Fraction(0)])
    def test_bad_theta_refused_before_any_inner_product(self, bad, monkeypatch):
        monkeypatch.setattr("neutral_sampler.asymptotics.exact_inner", _no_evaluation)
        with pytest.raises(ValueError, match="theta must be positive, got %s" % bad):
            lemma41_order_scan(P3, P2, [Fraction(10) ** 6, bad])

    @pytest.mark.parametrize("xi", [IntegerPartition.of(3, 2), None], ids=str)
    def test_eta_refused_by_name_before_any_inner_product(self, xi, monkeypatch):
        monkeypatch.setattr("neutral_sampler.asymptotics.exact_inner", _no_evaluation)
        with pytest.raises(ValueError, match=r"^eta needs parts >= 2, got 2,1$"):
            lemma41_order_scan(IntegerPartition.of(2, 1), xi, [Fraction(10) ** 6])

    def test_known_cancellation_pair(self):
        # For eta = (2,2) against psi_(3) the projection corrections cancel
        # the nominal leading term, so the measured order comes out one
        # higher than the generic prediction.  Pinned as a regression check.
        (row,) = lemma41_order_scan(IntegerPartition.of(2, 2), P3,
                                    self.big_thetas())
        assert abs(row.measured_exponent - 6) < 0.05

    @pytest.mark.parametrize("eta,xi", [((5,), (2, 2)), ((6,), (3, 2))], ids=str)
    def test_vanishing_pair_reports_no_exponent_and_a_zero_ratio(self, eta, xi):
        # <phi_eta, psi_xi> is exactly 0 at every theta for these pairs.
        rows = lemma41_order_scan(IntegerPartition.of(*eta), IntegerPartition.of(*xi),
                                  [Fraction(10) ** 4, Fraction(10) ** 6])
        assert [(r.measured_exponent, r.constant_ratio) for r in rows] == [(None, 0)] * 2
        assert all(type(r.constant_ratio) is Fraction for r in rows)

    def test_vanishing_at_twice_theta_reads_an_infinite_exponent(self, monkeypatch):
        theta = Fraction(10) ** 6
        monkeypatch.setattr("neutral_sampler.asymptotics.exact_inner",
                            lambda eta, xi, th: Fraction(int(th == theta)))
        (row,) = lemma41_order_scan(P3, P2, [theta])
        assert row.measured_exponent == math.inf
        assert row.constant_ratio == 1 / lemma41_leading_term(P3, P2, theta)


class TestRateFunction:
    @pytest.mark.parametrize("n,parts,k,speed,value", [
        (2, (2,), 4, SPEED_LOG_THETA, Fraction(1)),
        (2, (2,), Fraction(1, 2), SPEED_LOG_THETA, Fraction(1, 2)),
        (5, (2, 2, 1), Fraction(1, 2), SPEED_LOG_THETA, Fraction(1)),
        (5, (2, 2, 1), Fraction(3, 2), SPEED_LOG_THETA, Fraction(2)),
        (4, (1, 1, 1, 1), Fraction(1, 2), SPEED_LOG_THETA, Fraction(0)),
        (3, (3,), K_INFINITE, SPEED_LOG_THETA, Fraction(2)),
        (3, (3,), K_SUBLOG, SPEED_THETA_T, Fraction(3, 2)),
    ])
    def test_cases(self, n, parts, k, speed, value):
        got = rate_function(n, IntegerPartition.of(*parts), k)
        assert (got.speed, got.value) == (speed, value)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            rate_function(3, P2, 1)

    def test_negative_k(self):
        # -inf is a negative k, not the k = inf scale.
        for k in (-1, -math.inf):
            with pytest.raises(ValueError, match="k must be >= 0"):
                rate_function(2, P2, k)

    @pytest.mark.parametrize("k", [Fraction(1, 4), Fraction(1, 2), Fraction(1),
                                   Fraction(3, 2), Fraction(7, 4)])
    def test_min_form(self, k):
        # The case-split must agree with min{(n - a1) k / 2, n - l}.
        for n in range(2, 9):
            for eta in enumerate_partitions(n):
                got = rate_function(n, eta, k)
                if eta.alpha_1 == eta.l:
                    assert got.value == 0
                    continue
                want = min(Fraction(n - eta.alpha_1) * k / 2, Fraction(n - eta.l))
                assert got.value == want, (n, eta, k)

    def test_equals_the_min_form_with_its_speed(self):
        # Every eta of n <= 12 at k in {0, 1/8, ..., 4, inf}: 9214 pairs.
        ks = [K_SUBLOG] + [Fraction(j, 8) for j in range(1, 33)] + [K_INFINITE]
        pairs = 0
        for n in range(1, 13):
            for eta in enumerate_partitions(n):
                singletons = sum(1 for p in eta.parts if p == 1)
                for k in ks:
                    if k == 0:
                        want = (SPEED_THETA_T, Fraction(n - singletons, 2))
                    elif singletons == len(eta.parts):
                        want = (SPEED_LOG_THETA, Fraction(0))
                    elif k == K_INFINITE:
                        want = (SPEED_LOG_THETA, Fraction(n - len(eta.parts)))
                    else:
                        want = (SPEED_LOG_THETA, min(
                            (n - singletons) * k / 2, Fraction(n - len(eta.parts))))
                    got = rate_function(n, eta, k)
                    assert (got.speed, got.value) == want, (eta, k)
                    pairs += 1
        assert pairs == 9214

    def test_boundary_is_exact(self):
        # eta = (2,2,1), n = 5: the kink k* = 2 - 2 (l - a1) / (n - a1) is 1,
        # where both branches give the same value.
        eta = IntegerPartition.of(2, 2, 1)
        at = rate_function(5, eta, Fraction(1))
        assert at.value == Fraction(2) == Fraction(5 - eta.l)
        below = rate_function(5, eta, Fraction(1) - Fraction(1, 1000))
        above = rate_function(5, eta, Fraction(1) + Fraction(1, 1000))
        assert below.value < at.value < above.value + Fraction(1, 100)


class TestSlopeScan:
    def test_smoke_converges(self, x_full):
        rows = ldp_slope_scan(2, P2, 4, [Fraction(10) ** d for d in (2, 4, 6)],
                              x_full, 512)
        assert not any(r.underflow for r in rows)
        with mpmath.workprec(512):
            errs = [mpmath.mpf(r.abs_error) for r in rows]
            assert errs[-1] < errs[0]

    @pytest.mark.parametrize("grid", [[Fraction(10), Fraction(1)], [Fraction(1, 2)]],
                             ids=["ten_then_one", "half"])
    def test_theta_at_most_one_refused_before_any_point(self, grid, x_full,
                                                        monkeypatch):
        # The speed log(theta) is 0 at theta = 1 and negative below it.
        monkeypatch.setattr("neutral_sampler.transient.get_evaluator",
                            _no_evaluation)
        with pytest.raises(ValueError, match="theta > 1, got theta=%s" % grid[-1]):
            ldp_slope_scan(2, P2, 1, grid, x_full, 256)

    @pytest.mark.parametrize("k,message", [
        (-1, "k must be >= 0, got -1"),
        (K_INFINITE, "the slope scan needs a finite k, got k=inf"),
        (math.nan, "the slope scan needs a finite k, got k=nan"),
    ], ids=["negative", "inf", "nan"])
    def test_k_refused_by_value_before_any_point(self, k, message, x_full,
                                                 monkeypatch):
        # k = inf is rate_function's scale, which has no finite time t(theta).
        monkeypatch.setattr("neutral_sampler.transient.get_evaluator",
                            _no_evaluation)
        with pytest.raises(ValueError, match="^%s$" % message):
            ldp_slope_scan(2, P2, k, [Fraction(100)], x_full, 256)

    def test_sublog_theta_below_e_refused_before_any_point(self, x_full,
                                                           monkeypatch):
        monkeypatch.setattr("neutral_sampler.transient.get_evaluator",
                            _no_evaluation)
        with pytest.raises(ValueError, match="sublog regime needs theta > e, "
                                             "got theta=2"):
            ldp_slope_scan(2, P2, K_SUBLOG, [Fraction(100), Fraction(2)], x_full, 256)

    def test_one_log_of_theta_per_logarithmic_point(self, x_full, monkeypatch):
        # The regime hands the scan log(theta) with the time it took it for.
        grid = [10**d for d in (2, 4, 6)]
        logs = _logged_arguments(monkeypatch)
        ldp_slope_scan(2, P2, 1, [Fraction(th) for th in grid], x_full, 512)
        assert sum(v == th for v in logs for th in grid) == len(grid)

    def test_two_slope_points_at_one_theta_take_one_log(self, x_full, monkeypatch):
        # Both points share the evaluator at (theta, 512 bits), which takes
        # log(theta) once.
        theta = Fraction(10**5)
        logs = _logged_arguments(monkeypatch)
        ldp_slope_scan(5, IntegerPartition.of(2, 2, 1), Fraction(1, 2), [theta], x_full, 512)
        ldp_slope_scan(5, IntegerPartition.of(3, 1, 1), Fraction(3, 2), [theta], x_full, 512)
        assert sum(v == theta for v in logs) == 1

    def test_a_weak_limit_and_a_slope_point_at_one_theta_share_one_evaluator(
            self, x_full, monkeypatch):
        # At the default precision both scans take get_evaluator(theta, 256),
        # which takes log(theta) once.
        theta, k = Fraction(10**5), Fraction(1, 2)
        logs = _logged_arguments(monkeypatch)
        moment_limit_scan(P2, x_full, RegimeSpec.logarithmic(k), [theta])
        ldp_slope_scan(2, P2, k, [theta], x_full)
        assert sum(v == theta for v in logs) == 1
        assert get_evaluator.cache_info().misses == 1

    def test_default_precision_agrees_with_2048_bits(self, x_full):
        # The benchmark compares 30 digits; every row here carries 60.
        grid = [Fraction(10) ** d for d in (2, 5, 8)]
        for n in range(2, 7):
            for eta in enumerate_partitions(n):
                for k in (K_SUBLOG, Fraction(1, 2), Fraction(3, 2)):
                    rows = ldp_slope_scan(n, eta, k, grid, x_full)
                    refs = ldp_slope_scan(n, eta, k, grid, x_full, 2048)
                    for row, ref in zip(rows, refs):
                        assert row.underflow == ref.underflow, (eta, k, row.theta)
                        if row.underflow:
                            continue
                        for field in ("probability", "slope", "abs_error"):
                            digits = _agreeing_digits(getattr(row, field),
                                                      getattr(ref, field))
                            assert digits >= 60, (eta, k, row.theta, field, digits)

    def test_sublog_speed_used(self, x_full):
        rows = ldp_slope_scan(2, P2, K_SUBLOG, [Fraction(100)], x_full, 256)
        (row,) = rows
        assert not row.underflow and row.slope > 0
