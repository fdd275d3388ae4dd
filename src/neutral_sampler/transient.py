"""The float layer of the finite spectral expansion: transient moments and
sampling probabilities E_x f(X_t) = sum_m C_m e^{-lambda_m t}.

The exact eigen-coefficients C_m come from moments.eigen_coefficients, one
recursion shared by every evaluator at a theta.  Each evaluator works at a
configurable (default 256-bit) precision on raw mpmath.libmp tuples, with no
precision context: it rounds the sampler coefficients of one (eta, x) once,
each lambda_m once and each e^{-lambda_m t} once per (m, t); a moment rounds
its coefficients on each call, since no traffic repeats an (omega, x).  The
sum of the exact products C_m e^{-lambda_m t} is rounded once to nearest (the
rule of mpmath.fdot), so with lambda_m and t exact at `bits`, |v - v_exact| <=
ulp(v)/2 + 2^-bits sum_m |C_m| e^{-lambda_m t} (3 + lambda_m t).
t = inf is a sentinel that drops all exponential terms and returns the exact
stationary value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath.libmp import (from_float, from_int, mpf_div, mpf_exp, mpf_mul, mpf_neg,
                          mpf_pos, mpf_sum, round_nearest)

from .combinatorics import EMPTY, IntegerPartition, multinomial_constant
from .config import DEFAULT_PRECISION_BITS, check_precision
from .moments import (
    LEVEL_CACHE_SIZE,
    check_min_part,
    check_theta,
    eigen_coefficients,
    esf_monomial_moment,
    power_sum_moment,
)
from .records import FrozenRecord
from .sampling import FrequencyVector, sampler_expansion

#: Entries per evaluator in the cache of mpf sampler eigen-coefficients, one
#: per (eta, x): room for every eta of n <= 9 (96 of them) on two vectors.
EIGENCOEFF_CACHE_SIZE = 256

#: Entries per evaluator in the cache of e^{-lambda_m t}, one per (m, t):
#: room for m = 2..9 at 64 distinct times.
DECAY_CACHE_SIZE = 512

#: Evaluators kept by get_evaluator, one per (theta, precision_bits).
EVALUATOR_CACHE_SIZE = 32

#: Sentinel accepted wherever a time is expected: drop all exponentials.
STATIONARY = math.inf


def check_time(t):
    """STATIONARY for t = +inf, otherwise t itself, which must be >= 0;
    negative t, -inf and NaN raise ValueError."""
    if t == STATIONARY:
        return STATIONARY
    if not t >= 0:  # also catches NaN
        raise ValueError("t must be >= 0 or inf, got %r" % (t,))
    return t


def eigenvalue(m: int, theta) -> Fraction:
    """lambda_m = m (m - 1 + theta) / 2 for m >= 2."""
    if m < 2:
        raise ValueError("the spectral expansion starts at m = 2, got %r" % (m,))
    theta = check_theta(theta)
    return Fraction(m) * (m - 1 + theta) / 2


class TimePoint(FrozenRecord):
    """A nonnegative time (or the stationary sentinel) with its theta."""

    _fields = ("t", "theta", "precision_bits")

    def __init__(self, t, theta: Fraction,
                 precision_bits: int = DEFAULT_PRECISION_BITS):
        theta = check_theta(theta)
        check_precision(precision_bits)
        self._freeze(check_time(t), theta, precision_bits)


def _raw_mpf(q, prec: int) -> tuple:
    """q as a raw mpf tuple rounded once to nearest at prec bits; an int or
    Fraction is the quotient of its exact numerator and denominator."""
    if isinstance(q, (int, Fraction)):
        return mpf_div(from_int(q.numerator), from_int(q.denominator), prec, round_nearest)
    if isinstance(q, float):
        return from_float(q, prec, round_nearest)
    return mpf_pos(q._mpf_, prec, round_nearest)


def _to_mpf(q) -> mpmath.mpf:
    return mpmath.mp.make_mpf(_raw_mpf(q, mpmath.mp.prec))


class SpectralEvaluator:
    """Moments E_x phi_omega(X_t) and transient sampling probabilities at
    one theta, for every sample size and every t >= 0."""

    def __init__(self, theta, precision_bits: int = DEFAULT_PRECISION_BITS):
        self.theta = check_theta(theta)
        self.precision_bits = check_precision(precision_bits)
        # Bounded, since get_evaluator keeps up to EVALUATOR_CACHE_SIZE
        # evaluators alive.
        self._sampler_terms = lru_cache(maxsize=EIGENCOEFF_CACHE_SIZE)(
            self._sampler_terms)
        self._decay = lru_cache(maxsize=DECAY_CACHE_SIZE)(self._decay)
        self._rate = lru_cache(maxsize=LEVEL_CACHE_SIZE)(self._rate)

    # -- exact layer ---------------------------------------------------

    def eigen_coefficients(
        self, f: tuple[tuple[IntegerPartition, int], ...], x: FrequencyVector
    ) -> dict[int, Fraction]:
        """{m: C_m} with E_x f(X_t) = C_0 + sum_m C_m e^{-lambda_m t} for
        f = sum c_xi phi_xi at the evaluator's theta, zeros dropped."""
        return eigen_coefficients(self.theta, f, x)

    def _moment_eigencoeffs(self, omega: IntegerPartition, x: FrequencyVector):
        if omega != EMPTY:
            check_min_part(omega, "moment")
        return self.eigen_coefficients(((omega, 1),), x)

    def _sampler_eigencoeffs(self, eta: IntegerPartition, x: FrequencyVector):
        return self.eigen_coefficients(sampler_expansion(eta), x)

    # -- float layer, on raw mpf tuples at precision_bits ---------------

    def _mpf_terms(self, eigen: dict[int, Fraction]) -> tuple[tuple[int, tuple], ...]:
        return tuple((m, _raw_mpf(c, self.precision_bits)) for m, c in sorted(eigen.items()))

    def _sampler_terms(self, eta: IntegerPartition, x: FrequencyVector):
        return self._mpf_terms(self._sampler_eigencoeffs(eta, x))

    def _rate(self, m: int) -> tuple:
        """lambda_m at the evaluator's precision."""
        return _raw_mpf(eigenvalue(m, self.theta), self.precision_bits)

    def _decay(self, m: int, t) -> tuple:
        """e^{-lambda_m t}.  Equal times of different types (0.5,
        Fraction(1, 2), mpf(0.5)) share an entry: they convert to the same
        mpf."""
        prec = self.precision_bits
        arg = mpf_mul(mpf_neg(self._rate(m)), _raw_mpf(t, prec), prec, round_nearest)
        return mpf_exp(arg, prec, round_nearest)

    def _combine(self, terms: tuple[tuple[int, tuple], ...], t) -> mpmath.mpf:
        """sum_m C_m e^{-lambda_m t}: exact products, one rounding to nearest
        at the evaluator's precision (the rule of mpmath.fdot)."""
        return mpmath.mp.make_mpf(mpf_sum(
            [c if m < 2 else mpf_mul(c, self._decay(m, t)) for m, c in terms],
            self.precision_bits, round_nearest))

    # -- public surface ------------------------------------------------

    def moment(self, omega: IntegerPartition, x: FrequencyVector, t):
        """E_x phi_omega(X_t); exact Fraction for the stationary sentinel."""
        if check_time(t) is STATIONARY:
            return power_sum_moment(omega, self.theta)
        return self._combine(self._mpf_terms(self._moment_eigencoeffs(omega, x)), t)

    def sampling_probability(self, eta: IntegerPartition, x: FrequencyVector, t):
        """P_n^theta(eta) = E_x p_eta(X_t); exact ESF value at the sentinel."""
        if check_time(t) is STATIONARY:
            return self.stationary_sampling_probability(eta)
        return self._combine(self._sampler_terms(eta, x), t)

    def stationary_sampling_probability(self, eta: IntegerPartition) -> Fraction:
        """The Ewens sampling formula value, exactly."""
        return multinomial_constant(eta) * esf_monomial_moment(eta, self.theta)


@lru_cache(maxsize=EVALUATOR_CACHE_SIZE)
def get_evaluator(theta, precision_bits: int = DEFAULT_PRECISION_BITS) -> SpectralEvaluator:
    """The shared evaluator of one (theta, precision_bits)."""
    return SpectralEvaluator(theta, precision_bits)


def transient_sampling_probability(eta: IntegerPartition, x: FrequencyVector,
                                   tp: TimePoint):
    return get_evaluator(tp.theta, tp.precision_bits).sampling_probability(eta, x, tp.t)
