"""The float layer of the finite spectral expansion: transient moments and
sampling probabilities E_x f(X_t) = sum_m C_m e^{-lambda_m t}.

The exact eigen-coefficients C_m come from the evaluator's own exact layer
(moments.ExactLayer).  Each evaluator works at a configurable (default
256-bit) precision, entered once per call: it converts
the sampler coefficients of one (eta, x) to mpf once, and computes each
lambda_m once and each e^{-lambda_m t} once per (m, t), so a sampler call at
a finite t is at most n + 1 multiply-adds; a moment converts its
coefficients on each call, since no traffic repeats an (omega, x).
t = inf is a sentinel that drops all exponential terms and returns the exact
stationary value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

from .combinatorics import EMPTY, IntegerPartition, multinomial_constant
from .config import DEFAULT_PRECISION_BITS, check_precision
from .moments import (
    LEVEL_CACHE_SIZE,
    ExactLayer,
    check_min_part,
    check_theta,
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


def _to_mpf(q) -> mpmath.mpf:
    if isinstance(q, Fraction):
        return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)
    return mpmath.mpf(q)


class SpectralEvaluator:
    """Moments E_x phi_omega(X_t) and transient sampling probabilities at
    one theta, for every sample size and every t >= 0."""

    def __init__(self, theta, precision_bits: int = DEFAULT_PRECISION_BITS):
        self.theta = check_theta(theta)
        self.precision_bits = check_precision(precision_bits)
        self._exact = ExactLayer(self.theta)
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
        f = sum c_xi phi_xi, zeros dropped (ExactLayer.eigen_coefficients)."""
        return self._exact.eigen_coefficients(f, x)

    def _moment_eigencoeffs(self, omega: IntegerPartition, x: FrequencyVector):
        if omega != EMPTY:
            check_min_part(omega, "moment")
        return self.eigen_coefficients(((omega, 1),), x)

    def _sampler_eigencoeffs(self, eta: IntegerPartition, x: FrequencyVector):
        return self.eigen_coefficients(sampler_expansion(eta), x)

    # -- float layer, run inside the caller's workprec(precision_bits) ----

    def _mpf_terms(self, eigen: dict[int, Fraction]) -> tuple[tuple[int, mpmath.mpf], ...]:
        return tuple((m, _to_mpf(c)) for m, c in sorted(eigen.items()))

    def _sampler_terms(self, eta: IntegerPartition, x: FrequencyVector):
        return self._mpf_terms(self._sampler_eigencoeffs(eta, x))

    def _rate(self, m: int) -> mpmath.mpf:
        """lambda_m at the evaluator's precision."""
        return _to_mpf(eigenvalue(m, self.theta))

    def _decay(self, m: int, t) -> mpmath.mpf:
        """e^{-lambda_m t}.  Equal times of different types (0.5,
        Fraction(1, 2), mpf(0.5)) share an entry: they convert to the same
        mpf."""
        return mpmath.exp(-self._rate(m) * _to_mpf(t))

    def _combine(self, terms: tuple[tuple[int, mpmath.mpf], ...], t) -> mpmath.mpf:
        """sum_m C_m e^{-lambda_m t} in increasing m, at the evaluator's
        precision."""
        total = mpmath.mpf(0)
        for m, c in terms:
            total += c * self._decay(m, t) if m >= 2 else c
        return total

    # -- public surface ------------------------------------------------

    def moment(self, omega: IntegerPartition, x: FrequencyVector, t):
        """E_x phi_omega(X_t); exact Fraction for the stationary sentinel."""
        if check_time(t) is STATIONARY:
            return power_sum_moment(omega, self.theta)
        with mpmath.workprec(self.precision_bits):
            return self._combine(
                self._mpf_terms(self._moment_eigencoeffs(omega, x)), t)

    def sampling_probability(self, eta: IntegerPartition, x: FrequencyVector, t):
        """P_n^theta(eta) = E_x p_eta(X_t); exact ESF value at the sentinel."""
        if check_time(t) is STATIONARY:
            return self.stationary_sampling_probability(eta)
        with mpmath.workprec(self.precision_bits):
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
