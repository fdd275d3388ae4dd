import math
import time
from fractions import Fraction
from math import comb

import mpmath
import pytest
from mpmath.libmp import from_man_exp, from_rational, mpf_mul, mpf_sum, round_nearest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutral_sampler import transient
from neutral_sampler.asymptotics import RegimeSpec, ldp_slope_scan, moment_limit_scan
from neutral_sampler.basis import monomial_labels
from neutral_sampler.combinatorics import (
    EMPTY,
    IntegerPartition,
    enumerate_partitions,
    multinomial_constant,
)
from neutral_sampler.moments import (
    _store,
    eigen_coefficients,
    esf_monomial_moment,
    generator_children,
    power_sum_moment,
)
from neutral_sampler.sampling import (
    FrequencyVector,
    expansion_of_monomial_sampler,
    power_sum_product,
    sampling_probability,
)
from neutral_sampler.transient import (
    STATIONARY,
    SpectralEvaluator,
    TimePoint,
    check_time,
    get_evaluator,
    transient_sampling_probability,
)
from conftest import (
    coprime_vectors,
    direct_combine,
    eigenvalue,
    fraction_label_coefficients,
    label_coefficients,
    projection_eigen_coefficients,
    row_eigen_coefficients,
    thetas,
)

P2 = IntegerPartition.of(2)


class TestEigenvalue:
    def test_m2_theta1(self):
        assert eigenvalue(2, 1) == 2

    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 10])
    def test_m2_simplifies(self, theta):
        assert eigenvalue(2, theta) == 1 + Fraction(theta)

    def test_m3_theta3(self):
        # 3 * (3 - 1 + 3) / 2
        assert eigenvalue(3, 3) == Fraction(15, 2)

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            eigenvalue(1, 1)


class TestTimePoint:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            TimePoint(-1, Fraction(1))

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            TimePoint(1, Fraction(1), precision_bits=32)

    def test_precision_ceiling(self):
        assert TimePoint(1, Fraction(1), precision_bits=8192).precision_bits == 8192
        with pytest.raises(ValueError, match=r"8192\], got 8193"):
            TimePoint(1, Fraction(1), precision_bits=8193)
        with pytest.raises(ValueError, match=r"8192\], got 8193"):
            SpectralEvaluator(Fraction(1), 8193)

    def test_stationary_sentinel(self):
        assert TimePoint(STATIONARY, Fraction(1)).t is STATIONARY


BAD_TIMES = [-1, -math.inf, math.nan, Fraction(-1, 2), mpmath.mpf(-1),
             -mpmath.inf, mpmath.nan]


class TestCheckTime:
    @pytest.mark.parametrize("t", [math.inf, mpmath.inf])
    def test_plus_inf_is_the_sentinel(self, t):
        assert check_time(t) is STATIONARY

    @pytest.mark.parametrize("t", [0, 2, 0.5, Fraction(3, 4), mpmath.mpf("0.1")])
    def test_finite_time_passes_through(self, t):
        assert check_time(t) is t

    @pytest.mark.parametrize("t", BAD_TIMES, ids=repr)
    def test_bad_time_rejected_everywhere(self, t, x_full):
        with pytest.raises(ValueError):
            check_time(t)
        with pytest.raises(ValueError):
            TimePoint(t, Fraction(1))
        ev = SpectralEvaluator(Fraction(1))
        with pytest.raises(ValueError):
            ev.sampling_probability(P2, x_full, t)
        with pytest.raises(ValueError):
            ev.moment(P2, x_full, t)

    @pytest.mark.parametrize("theta", [Fraction(1), Fraction(10)])
    def test_fraction_time_equals_float_time(self, theta, x_full):
        ev = SpectralEvaluator(theta)
        eta = IntegerPartition.of(2, 1, 1)
        assert ev.sampling_probability(eta, x_full, Fraction(3, 4)) == \
            ev.sampling_probability(eta, x_full, 0.75)
        assert ev.moment(P2, x_full, Fraction(3, 4)) == ev.moment(P2, x_full, 0.75)
        tp = TimePoint(Fraction(3, 4), theta)
        assert transient_sampling_probability(eta, x_full, tp) == \
            ev.sampling_probability(eta, x_full, 0.75)


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


_PROPERTY_EV = SpectralEvaluator(Fraction(1), 64)
_POINT = FrequencyVector.parse("1")


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(), st.fractions(), st.integers(-10**6, 10**6)))
def test_timepoint_and_evaluator_accept_the_same_times(t):
    accepted = _accepts(lambda: TimePoint(t, Fraction(1), 64))
    assert accepted == (t >= 0)
    assert _accepts(lambda: _PROPERTY_EV.sampling_probability(P2, _POINT, t)) == accepted
    assert _accepts(lambda: _PROPERTY_EV.moment(P2, _POINT, t)) == accepted


class TestTransientMoment:
    def test_closed_form_pair(self, x_point):
        # E phi_2 = 1/(1+theta) + e^{-(1+theta)t}(phi_2(x) - 1/(1+theta));
        # at theta=1, x a point mass, t = ln(2)/2 this is 1/2 + (1/2)(1/2).
        with mpmath.workprec(256):
            tp = TimePoint(mpmath.log(2) / 2, Fraction(1))
            got = get_evaluator(tp.theta, tp.precision_bits).moment(P2, x_point, tp.t)
            assert abs(got - mpmath.mpf(3) / 4) < mpmath.mpf(2) ** -200

    @pytest.mark.parametrize("theta", [Fraction(1), Fraction(10)])
    def test_t0_identity_to_full_precision(self, theta, x_full):
        ev = SpectralEvaluator(theta, 256)
        with mpmath.workprec(300):
            for n in range(2, 7):
                for omega in enumerate_partitions(n):
                    if omega.min_part < 2:
                        continue
                    exact = power_sum_product(omega, x_full)
                    assert sum(ev._moment_eigencoeffs(omega, x_full).values(),
                               Fraction(0)) == exact
                    fl = ev.moment(omega, x_full, mpmath.mpf(0))
                    delta = abs(fl - mpmath.mpf(exact.numerator) / exact.denominator)
                    assert delta <= mpmath.mpf(2) ** -200

    def test_stationary_sentinel_is_exact(self, x_full):
        tp = TimePoint(STATIONARY, Fraction(10))
        got = get_evaluator(tp.theta, tp.precision_bits).moment(
            IntegerPartition.of(2, 2), x_full, tp.t)
        assert got == power_sum_moment(IntegerPartition.of(2, 2), Fraction(10))


class TestTransientSampling:
    def test_pair_at_log2_over_2(self, x_point):
        with mpmath.workprec(256):
            tp = TimePoint(mpmath.log(2) / 2, Fraction(1))
            got = transient_sampling_probability(P2, x_point, tp)
            assert abs(got - mpmath.mpf(3) / 4) < mpmath.mpf(2) ** -200

    @pytest.mark.parametrize("theta", [Fraction(1), Fraction(10)])
    def test_t0_reproduces_sampling_probability(self, theta, x_full):
        ev = SpectralEvaluator(theta, 256)
        with mpmath.workprec(300):
            for n in range(1, 6):
                for eta in enumerate_partitions(n):
                    exact = sampling_probability(eta, x_full)
                    fl = ev.sampling_probability(eta, x_full, mpmath.mpf(0))
                    delta = abs(fl - mpmath.mpf(exact.numerator) / exact.denominator)
                    assert delta <= mpmath.mpf(2) ** -200

    @pytest.mark.parametrize("theta", [Fraction(1), Fraction(10)])
    def test_stationary_is_ewens_exactly(self, theta, x_full):
        ev = SpectralEvaluator(theta, 256)
        for n in range(1, 6):
            for eta in enumerate_partitions(n):
                esf = ev.stationary_sampling_probability(eta)
                assert esf == ev.sampling_probability(eta, x_full, STATIONARY)
                # Also: the spectral constant term must agree with the ESF.
                coeffs = ev._sampler_eigencoeffs(eta, x_full)
                assert coeffs.get(0, Fraction(0)) == esf

    @pytest.mark.parametrize("theta", [Fraction(1), Fraction(10)])
    def test_pair_stationary_value(self, theta, x_full):
        tp = TimePoint(STATIONARY, theta)
        assert transient_sampling_probability(P2, x_full, tp) == 1 / (1 + theta)

    @pytest.mark.parametrize("theta", [Fraction(1), Fraction(10)])
    @pytest.mark.parametrize("t", ["0.01", "0.1", "1", "10"])
    def test_normalization_in_time(self, theta, t, x_full):
        ev = SpectralEvaluator(theta, 256)
        with mpmath.workprec(256):
            for n in range(1, 6):
                total = sum(ev.sampling_probability(eta, x_full, mpmath.mpf(t))
                            for eta in enumerate_partitions(n))
                assert abs(total - 1) < mpmath.mpf(2) ** -200

    @pytest.mark.parametrize("theta", [Fraction(50), Fraction(200)])
    def test_all_singletons_monotone_toward_stationary(self, theta, x_full):
        # Dust takes over: at large theta the all-singleton probability climbs.
        ev = SpectralEvaluator(theta, 256)
        eta = IntegerPartition.of(1, 1, 1, 1)
        times = [mpmath.mpf(t) for t in ("0.01", "0.1", "1", "10")]
        values = [ev.sampling_probability(eta, x_full, t) for t in times]
        assert all(a <= b for a, b in zip(values, values[1:]))
        stat = ev.stationary_sampling_probability(eta)
        with mpmath.workprec(256):
            assert values[-1] <= mpmath.mpf(stat.numerator) / stat.denominator


ETAS_UP_TO_7 = [eta for n in range(1, 8) for eta in enumerate_partitions(n)]


@settings(max_examples=15, deadline=None)
@given(thetas, coprime_vectors())
def test_eigen_coefficients_equal_row_oracle(theta, x):
    ev = SpectralEvaluator(theta)
    for eta in ETAS_UP_TO_7:
        f = expansion_of_monomial_sampler(eta)
        got = ev.eigen_coefficients(f, x)
        assert got == row_eigen_coefficients(f, x, theta), eta
        assert got == projection_eigen_coefficients(f, x, theta), eta


@st.composite
def finite_times(draw):
    """0, a float, a Fraction, an mpf with more bits than any evaluator, and
    the float again as a Fraction and as an mpf, which equal it."""
    f = draw(st.floats(0, 10))
    q = draw(st.fractions(0, 10, max_denominator=10**6))
    r = draw(st.fractions(0, 10, max_denominator=10**9))
    with mpmath.workprec(600):
        fine = mpmath.mpf(r.numerator) / r.denominator
    return [0, f, q, fine, Fraction(f), mpmath.mpf(f)]


#: Every label with parts >= 2 up to size 7, the empty one included.
MOMENT_LABELS_UP_TO_7 = list(monomial_labels(7))


@settings(max_examples=12, deadline=None)
@given(thetas, coprime_vectors(), st.sampled_from((64, 256, 512)), finite_times(),
       st.data())
def test_combine_equals_direct_oracle_bit_for_bit(theta, x, bits, times, data):
    # The cached mpf coefficients and decay factors give the same mpf as
    # converting everything afresh; each time list runs twice, in shuffled
    # orders, so cache state cannot change a value.
    ev = SpectralEvaluator(theta, bits)
    for _ in range(2):
        for t in data.draw(st.permutations(times)):
            for eta in ETAS_UP_TO_7:
                expected = direct_combine(ev._sampler_eigencoeffs(eta, x), theta, t, bits)
                assert ev.sampling_probability(eta, x, t) == expected, (eta, t)
            for omega in MOMENT_LABELS_UP_TO_7:
                expected = direct_combine(ev._moment_eigencoeffs(omega, x), theta, t, bits)
                assert ev.moment(omega, x, t) == expected, (omega, t)


SWEEP_THETAS = [Fraction(1, 2), Fraction(1), Fraction(7, 3), Fraction(10),
                Fraction(10**8)]
#: Three atoms, one atom plus dust, a point mass, pure dust, and four atoms
#: with coprime denominators plus dust.
SWEEP_VECTORS = ["1/2,1/3,1/6", "1/2,1/4", "1", "", "2/7,1/5,1/9,1/11"]


@pytest.mark.parametrize("x", SWEEP_VECTORS, ids=repr)
@pytest.mark.parametrize("theta", SWEEP_THETAS, ids=str)
def test_recursion_equals_both_oracles_up_to_six(theta, x):
    # Every eta with n <= 6 (sampler coefficients) and every label with
    # parts >= 2 up to size 6 (moment coefficients), exactly.
    x = FrequencyVector.parse(x)
    ev = SpectralEvaluator(theta)
    for n in range(1, 7):
        for eta in enumerate_partitions(n):
            f = expansion_of_monomial_sampler(eta)
            const = multinomial_constant(eta)
            for oracle in (projection_eigen_coefficients, row_eigen_coefficients):
                expected = {m: const * v for m, v in oracle(f, x, theta).items()}
                assert ev._sampler_eigencoeffs(eta, x) == expected, (eta, oracle)
    for omega in monomial_labels(6):
        f = ((omega, Fraction(1)),)
        for oracle in (projection_eigen_coefficients, row_eigen_coefficients):
            assert ev._moment_eigencoeffs(omega, x) == oracle(f, x, theta), \
                (omega, oracle)


#: Every label with parts >= 2 up to size 10 (41 of them).
LABELS_UP_TO_10 = [label for label in monomial_labels(10) if label != EMPTY]


class TestGeneratorIdentities:
    """The recursion against identities that hold at every theta and vector,
    with zero tolerance."""

    def test_children_weights_sum_to_pairs(self):
        for label in LABELS_UP_TO_10:
            children = generator_children(label)
            assert sum(c for _, c in children) == comb(label.n, 2), label
            for child, c in children:
                assert c > 0 and label.n - child.n in (1, 2), (label, child)
                assert child == EMPTY or child.min_part >= 2, (label, child)

    @pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(7, 3), Fraction(10**8),
                                       Fraction(1), Fraction(37, 4), Fraction(10**6)],
                             ids=str)
    @pytest.mark.parametrize("x", ["1/2,1/3,1/6", "1/2,1/4", "", "2/7,1/5"], ids=repr)
    def test_stationary_part_and_t0_sum(self, theta, x):
        # A[0] is the PD(theta) mean whatever x is, which power_sum_moment
        # reads on pure dust; the coefficients sum to phi_label(x).
        x = FrequencyVector.parse(x)
        for label in LABELS_UP_TO_10:
            coeffs = label_coefficients(label, x, theta)
            assert coeffs[0] == power_sum_moment(label, theta), label
            assert eigen_coefficients(theta, ((label, 1),), x)[0] == coeffs[0], label
            assert sum(coeffs) == power_sum_product(label, x), label


@settings(max_examples=20, deadline=None)
@given(thetas, coprime_vectors())
def test_integer_engine_equals_fraction_recursion(theta, x):
    # The integer numerators over D^n H_n give the same Fractions as the
    # recursion that divides by lambda_n - lambda_m at every level.
    for label in LABELS_UP_TO_10:
        assert label_coefficients(label, x, theta) == \
            fraction_label_coefficients(label, x, theta), label


#: Every label with parts >= 2 up to size 12 (76 of them).
LABELS_UP_TO_12 = [label for label in monomial_labels(12) if label != EMPTY]


@pytest.mark.parametrize("theta", [Fraction(37, 4), Fraction(10**8)], ids=str)
def test_integer_engine_equals_fraction_recursion_up_to_twelve(theta):
    x = FrequencyVector.parse("2/7,1/5,1/9,1/11")
    for label in LABELS_UP_TO_12:
        assert label_coefficients(label, x, theta) == \
            fraction_label_coefficients(label, x, theta), label


def test_every_precision_shares_one_exact_recursion():
    # The exact numerators live in one store per (theta, x), so evaluators at
    # three precisions of one theta fill one store and compute each label
    # once in total; each equals the direct combine of the shared Fractions
    # at its own precision.
    theta, x, t = Fraction(1013, 29), FrequencyVector.parse("2/7,1/5,1/9,1/11"), 0.5
    _store.cache_clear()
    computed = sum(generator_children.cache_info()[:2])
    evs = [SpectralEvaluator(theta, bits) for bits in (64, 256, 512)]
    for ev in evs:
        for eta in ETAS_UP_TO_7:
            ev.sampling_probability(eta, x, t)
    assert _store.cache_info().misses == _store.cache_info().currsize == 1
    store = _store(theta.numerator, theta.denominator, x.integer_form)
    assert len(store) == len(MOMENT_LABELS_UP_TO_7)  # the empty label included
    assert sum(generator_children.cache_info()[:2]) - computed == len(store) - 1
    for eta in ETAS_UP_TO_7:
        coeffs = evs[0]._sampler_eigencoeffs(eta, x)
        for ev in evs:
            assert ev._sampler_eigencoeffs(eta, x) == coeffs, eta
            assert ev.sampling_probability(eta, x, t) == \
                direct_combine(coeffs, theta, t, ev.precision_bits), eta


def test_a_finite_t_call_enters_no_precision_context(monkeypatch):
    # The float layer works on raw mpf tuples at the evaluator's precision,
    # so a cold call, which converts, exponentiates and combines, never
    # enters mpmath.workprec, leaves the global precision alone, and returns
    # an mpf of at most precision_bits mantissa bits; nor does a slope point
    # or a weak-limit point, which take their time, limit and error on raw
    # tuples too.
    entered = []
    workprec = mpmath.workprec

    def counting(bits):
        entered.append(bits)
        return workprec(bits)
    monkeypatch.setattr(mpmath, "workprec", counting)
    prec = mpmath.mp.prec
    ev = SpectralEvaluator(Fraction(7, 3), 128)
    x = FrequencyVector.parse("1/2,1/3")
    for value in (ev.sampling_probability(IntegerPartition.of(3, 2, 1), x, 0.25),
                  ev.moment(IntegerPartition.of(3, 2), x, 0.25)):
        assert isinstance(value, mpmath.mpf) and value._mpf_[3] <= 128
    (slope,) = ldp_slope_scan(2, IntegerPartition.of(2), 1, [Fraction(1000)], x, 128)
    (limit,) = moment_limit_scan(IntegerPartition.of(2), x, RegimeSpec.proportional(1),
                                 [Fraction(1000)], 128)
    assert slope.slope._mpf_[3] <= 128 and limit.error._mpf_[3] <= 128
    assert entered == [] and mpmath.mp.prec == prec


def _exact(man: int, exp: int) -> Fraction:
    """The rational value man 2^exp."""
    return man * Fraction(2) ** exp


@pytest.mark.parametrize("bits", [64, 256, 512])
@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(37, 4)], ids=str)
def test_finite_t_values_are_correctly_rounded(theta, bits):
    # Each finite-t value is the exact sum of the evaluator's own rounded
    # terms times its rounded decays, rounded once to nearest: 3 vectors,
    # every eta of n <= 7 and 4 times (a Fraction among them) per case.
    ev = SpectralEvaluator(theta, bits)
    wrong = []
    for x in map(FrequencyVector.parse, ("1/2,1/3,1/6", "2/7,1/5,1/9,1/11", "")):
        for t in (0, 0.001, Fraction(1, 10), 1.5):
            for eta in ETAS_UP_TO_7:
                value = ev.sampling_probability(eta, x, t)
                top, terms = ev._sampler_terms(eta, x)
                row = ev._decay_row(t, top)
                exact = sum((_exact(man, exp) * _exact(*row[m]) for m, man, exp in terms),
                            Fraction(0))
                rounded = from_rational(exact.numerator, exact.denominator, bits,
                                        round_nearest)
                if value._mpf_ != rounded:
                    wrong.append((str(x), t, eta))
    assert wrong == [], "%d of %d values" % (len(wrong), 3 * 4 * len(ETAS_UP_TO_7))


#: Largest first: a kernel that shifts by the raw exponent gap fails at once
#: there, by overflow or refused memory, before the gaps it can still hold.
KERNEL_TIMES = (1e12, 1e6, 30, 0.7, 1e-3, 0)


#: Times at which lambda_m t >= 2^64 for every m >= 2 (lambda_2 >= 5/4 below).
HUGE_TIMES = [Fraction(10) ** k for k in (20, 30, 1000, 10000)]


@pytest.mark.parametrize("theta", [Fraction(3, 2), Fraction(10**8)], ids=str)
def test_huge_finite_t_drops_every_decayed_term(theta):
    # With e^{-lambda_m t} taken in full, by the oracle, every decayed term
    # lies far below C_0: the value is C_0 rounded once, as without it.
    x = FrequencyVector.parse("1/2,1/3")
    ev = SpectralEvaluator(theta)
    bits = ev.precision_bits
    cases = [(ev.sampling_probability, eta, ev._sampler_eigencoeffs(eta, x))
             for eta in (IntegerPartition.of(2, 1), IntegerPartition.of(3, 2, 1))]
    cases += [(ev.moment, omega, ev._moment_eigencoeffs(omega, x))
              for omega in (IntegerPartition.of(2), IntegerPartition.of(3, 2))]
    for t in HUGE_TIMES:
        for value_at, label, eigen in cases:
            value = value_at(label, x, t)
            assert value == direct_combine(eigen, theta, t, bits), (t, label)
            c0 = eigen[0]
            assert value._mpf_ == from_rational(c0.numerator, c0.denominator, bits,
                                                round_nearest), (t, label)


@pytest.mark.parametrize("bits", [64, 256, 512])
@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(10**8)], ids=str)
def test_combine_equals_mpf_sum_of_mpf_products(theta, bits):
    # The fused combine against mpf_sum of mpf_mul products of the same
    # cached terms and decay row, bit for bit; at t = 1e6 and 1e12 every
    # decayed term lies more than 2 * bits binary places below C_0, where
    # mpf_sum drops it.  Each value returns well under a second.
    ev = SpectralEvaluator(theta, bits)
    for x in map(FrequencyVector.parse, ("1/2,1/3,1/6", "2/7,1/5,1/9,1/11")):
        for t in KERNEL_TIMES:
            for eta in ETAS_UP_TO_7:
                top, terms = ev._sampler_terms(eta, x)
                row = ev._decay_row(t, top)
                want = mpf_sum([mpf_mul(from_man_exp(man, exp), from_man_exp(*row[m]))
                                for m, man, exp in terms], bits, round_nearest)
                start = time.perf_counter()
                value = ev._combine((top, terms), t)
                assert time.perf_counter() - start < 0.25, (str(x), t, eta)
                assert value._mpf_ == want, (str(x), t, eta)


def test_a_decay_row_extends_the_row_below_it(monkeypatch):
    # At one t the etas of n = 6 read rows up to m = 6, and those of n = 7
    # extend them to m = 7: one exponential per m = 2..7 in all.
    exps, mpf_exp = [], transient.mpf_exp
    monkeypatch.setattr(transient, "mpf_exp",
                        lambda *args: exps.append(args) or mpf_exp(*args))
    ev = SpectralEvaluator(Fraction(7, 3))
    x = FrequencyVector.parse("1/2,1/3")
    top = 0
    for n in (6, 7):
        for eta in enumerate_partitions(n):
            ev.sampling_probability(eta, x, 0.5)
            top = max(top, ev._sampler_terms(eta, x)[0])
    assert top == 7
    assert len(exps) == top - 1


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(37, 4), Fraction(10**8)],
                         ids=str)
def test_finite_t_error_bound(theta, bits):
    # Against the value at 4 bits + 64, with lambda_m and t exact at `bits`:
    # |v - v_ref| <= 2^-bits sum_m |C_m| e^{-lambda_m t} (3 + lambda_m t)
    # + ulp(v) / 2, the rounding of each C_m, of lambda_m t and of the
    # exponential, and the one rounding of the sum.
    ev, ref = SpectralEvaluator(theta, bits), SpectralEvaluator(theta, 4 * bits + 64)
    for x in map(FrequencyVector.parse, ("2/7,1/5,1/9,1/11", "1/2,1/4")):
        for t in (0.001, 0.1, 1.5):
            for eta in ETAS_UP_TO_7:
                value = ev.sampling_probability(eta, x, t)
                with mpmath.workprec(4 * bits + 64):
                    budget = mpmath.fsum(
                        abs(mpmath.mpf(c.numerator) / c.denominator)
                        * (1 if m < 2 else mpmath.exp(-eigenvalue(m, theta) * t)
                           * (3 + eigenvalue(m, theta) * t))
                        for m, c in ev._sampler_eigencoeffs(eta, x).items())
                    sign, man, exp, bc = value._mpf_
                    half_ulp = mpmath.ldexp(1, exp + bc - bits - 1) if man else 0
                    error = abs(value - ref.sampling_probability(eta, x, t))
                    assert error <= mpmath.ldexp(budget, -bits) + half_ulp, (str(x), t, eta)


@pytest.mark.parametrize("t", [Fraction(1, 10**20), Fraction(1, 10**15)], ids=str)
@pytest.mark.xfail(
    strict=True,
    reason="at small t the terms C_m e^{-lambda_m t} cancel by more digits than "
    "256 bits carry: 1e-20 gives -6.978e-83 against 9.1145833e-103, 1e-15 "
    "gives 9.11451e-78 against 9.11458e-78",
)
def test_small_t_value_agrees_with_4096_bits(t):
    eta, x = IntegerPartition.of(*[1] * 8), FrequencyVector.parse("1/2,1/3,1/6")
    value = get_evaluator(Fraction(1, 2)).sampling_probability(eta, x, t)
    exact = get_evaluator(Fraction(1, 2), 4096).sampling_probability(eta, x, t)
    assert abs(value - exact) <= abs(exact) * mpmath.mpf(10) ** -10, (value, exact)


def test_vector_keyed_hit_hashes_no_fraction(monkeypatch):
    # A second spelling of the vector hits the sampler cache through the
    # vector's integer form alone.  Every evaluator shares the cache's counters.
    SpectralEvaluator._sampler_terms.cache_clear()
    ev = SpectralEvaluator(Fraction(3, 2))
    eta = IntegerPartition.of(3, 2, 1)
    want = ev.sampling_probability(eta, FrequencyVector.parse("1/2,1/3"), 0.5)
    x = FrequencyVector.parse("0.5,2/6")

    def refuse(*args):
        raise AssertionError("a Fraction was hashed or compared")
    monkeypatch.setattr(Fraction, "__hash__", refuse)
    monkeypatch.setattr(Fraction, "__eq__", refuse)
    assert ev.sampling_probability(eta, x, 0.5) == want
    assert ev._sampler_terms.cache_info().hits == 1


@settings(max_examples=25, deadline=None)
@given(thetas, coprime_vectors())
def test_transient_endpoints(theta, x):
    # t -> 0: the coefficients sum to P_n(eta | x); t -> inf: the stationary
    # term is the Ewens sampling formula.
    ev = SpectralEvaluator(theta)
    for eta in ETAS_UP_TO_7:
        coeffs = ev._sampler_eigencoeffs(eta, x)
        assert sum(coeffs.values(), Fraction(0)) == sampling_probability(eta, x), eta
        assert coeffs.get(0, Fraction(0)) == \
            multinomial_constant(eta) * esf_monomial_moment(eta, theta), eta
