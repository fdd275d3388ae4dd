"""The float layer of the finite spectral expansion: transient moments and
sampling probabilities E_x f(X_t) = sum_m C_m e^{-lambda_m t}.

The exact eigen-coefficients C_m come from moments.eigen_coefficients, one
recursion shared by every evaluator at a theta.  Each evaluator works at a
configurable (default 256-bit) precision on raw mpmath.libmp values, with no
precision context: it rounds the sampler coefficients of one (eta, x) once,
each lambda_m once and each e^{-lambda_m t} once per (m, t), kept in one row
per (t, top m) that extends the row of top m - 1, and log theta once, for the
scans of `asymptotics`; a moment rounds its coefficients on each call, since
no traffic repeats an (omega, x).  These caches are declared on the class and
keyed by (evaluator, ...), so each bound is in total over every evaluator and
an evicted evaluator is freed with its last entry.  A value is one integer
pass: the exact products C_m e^{-lambda_m t} are summed as mpf_sum sums (a
term over 2 * bits binary places from the running sum is dropped or replaces
it) and rounded once to nearest (the rule of mpmath.fdot), so with lambda_m
and t exact at `bits`,
|v - v_exact| <= ulp(v)/2 + 2^-bits sum_m |C_m| e^{-lambda_m t} (3 + lambda_m t).
t = inf is a sentinel that drops all exponential terms and returns the exact
stationary value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath.libmp import (from_float, from_int, from_man_exp, mpf_div, mpf_exp, mpf_log,
                          mpf_mul, mpf_neg, mpf_pos, round_nearest)

from .combinatorics import EMPTY, IntegerPartition, multinomial_constant
from .config import DEFAULT_PRECISION_BITS, check_precision
from .moments import (
    check_min_part,
    check_theta,
    eigen_coefficients,
    esf_monomial_moment,
    power_sum_moment,
)
from .records import FrozenRecord
from .sampling import FrequencyVector, expansion_of_power_sum

#: Entries in total in the cache of mpf sampler eigen-coefficients, one per
#: (evaluator, eta, x): room for every eta of n <= 9 (96 of them) on two vectors.
EIGENCOEFF_CACHE_SIZE = 256

#: Entries in total in the cache of rows of e^{-lambda_m t}, one per
#: (evaluator, t, top m): room for the rows up to top m = 9 at 56 distinct times.
DECAY_CACHE_SIZE = 512

#: Stands in for the (mantissa, exponent) of e^{-lambda_m t} < 2^-(2^64) when
#: lambda_m t >= 2^64.  As lambda_m / lambda_2 <= m (m - 1) / 2, each term
#: m >= 2 of such a row (top m <= 2^10) lies over 2^44 binary places below
#: C_0 > 0, the first term, unless some |C_m / C_0| has 2^43 bits: the combine
#: drops them all, as it does the true decays, and the sum stays C_0.
_FAR_DECAY = (1, -(1 << 64))

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


class SpectralEvaluator:
    """Moments E_x phi_omega(X_t) and transient sampling probabilities at
    one theta, for every sample size and every t >= 0."""

    def __init__(self, theta, precision_bits: int = DEFAULT_PRECISION_BITS):
        self.theta = check_theta(theta)
        self.precision_bits = check_precision(precision_bits)
        self._log = None

    # -- exact layer ---------------------------------------------------

    def eigen_coefficients(
        self, f: tuple[tuple[tuple[int, ...], int], ...], x: FrequencyVector
    ) -> dict[int, Fraction]:
        """{m: C_m} with E_x f(X_t) = C_0 + sum_m C_m e^{-lambda_m t} for
        f = sum c_rho p^o_rho, monomial samplers of one size, at the
        evaluator's theta, zeros dropped."""
        return eigen_coefficients(self.theta, f, x)

    def _moment_eigencoeffs(self, omega: IntegerPartition, x: FrequencyVector):
        if omega != EMPTY:
            check_min_part(omega, "moment")
        return self.eigen_coefficients(expansion_of_power_sum(omega.parts), x)

    def _sampler_eigencoeffs(self, eta: IntegerPartition, x: FrequencyVector):
        return self.eigen_coefficients(((eta.parts, multinomial_constant(eta)),), x)

    # -- float layer, on raw mpf values at precision_bits ---------------

    def _mpf_terms(self, eigen: dict[int, Fraction]):
        """(top m, ((m, signed mantissa, exponent), ...)), each C_m rounded once."""
        raw = [(m, _raw_mpf(c, self.precision_bits)) for m, c in sorted(eigen.items())]
        return max(eigen, default=0), tuple(
            (m, -man if sign else man, exp) for m, (sign, man, exp, _) in raw)

    @lru_cache(maxsize=EIGENCOEFF_CACHE_SIZE)
    def _sampler_terms(self, eta: IntegerPartition, x: FrequencyVector):
        return self._mpf_terms(self._sampler_eigencoeffs(eta, x))

    @lru_cache(maxsize=DECAY_CACHE_SIZE)
    def _decay_row(self, t, top: int) -> tuple[tuple[int, int], ...]:
        """(mantissa, exponent) of e^{-lambda_m t} for m <= top, (1, 0) below 2,
        extending the row of top - 1.  Equal times of different types (0.5,
        Fraction(1, 2), mpf(0.5)) share an entry: they convert to one mpf."""
        if top < 2:
            return ((1, 0),) * (top + 1)
        prec = self.precision_bits
        # lambda_top = top (q (top - 1) + p) / (2 q) for theta = p/q, rounded once.
        p, q = self.theta.numerator, self.theta.denominator
        rate = mpf_div(from_int(top * (q * (top - 1) + p)), from_int(2 * q), prec, round_nearest)
        arg = mpf_mul(mpf_neg(rate), _raw_mpf(t, prec), prec, round_nearest)
        # |arg| >= 2^64: mpf_exp would take ln 2 to as many bits as |arg| has.
        if arg[2] + arg[3] > 64:
            decay = _FAR_DECAY
        else:
            decay = mpf_exp(arg, prec, round_nearest)[1:3]
        return self._decay_row(t, top - 1) + (decay,)

    def _combine(self, top_terms, t) -> mpmath.mpf:
        """sum_m C_m e^{-lambda_m t}: the exact products summed as mpf_sum sums
        at the evaluator's precision, rounded once to nearest (as mpmath.fdot)."""
        top, terms = top_terms
        row = self._decay_row(t, top)
        far = 2 * self.precision_bits
        man = exp = 0
        for m, cman, cexp in terms:
            dman, dexp = row[m]
            xman, xexp = cman * dman, cexp + dexp
            delta = xexp - exp
            if delta >= 0:  # a term far above the sum replaces it
                if delta > far and (not man or delta - man.bit_length() > far):
                    man, exp = xman, xexp
                else:
                    man += xman << delta
            elif -delta - xman.bit_length() > far:  # one far below is dropped
                if not man:
                    man, exp = xman, xexp
            else:
                man, exp = (man << -delta) + xman, xexp
        return mpmath.mp.make_mpf(from_man_exp(man, exp, self.precision_bits, round_nearest))

    def _log_theta(self) -> tuple:
        """log theta at the evaluator's precision, taken on first use."""
        if self._log is None:
            bits = self.precision_bits
            self._log = mpf_log(_raw_mpf(self.theta, bits), bits, round_nearest)
        return self._log

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
