"""Finite spectral evaluation of transient moments and sampling probabilities.

Every phi-monomial lies in the span of finitely many eigenfunctions of the
neutral diffusion, so no series truncation happens: expectations are exact
rational eigen-coefficients combined with e^{-lambda t} factors at a
configurable (default 256-bit) float precision.  t = inf is a sentinel that
drops all exponential terms and returns the exact stationary value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .basis import build_basis, evaluate_coeff_map, inner_product
from .combinatorics import EMPTY, IntegerPartition, multinomial_constant
from .moments import check_theta, esf_monomial_moment, power_sum_moment
from .sampling import FrequencyVector, expansion_of_monomial_sampler

DEFAULT_PRECISION_BITS = 256

#: Entries per evaluator in each eigen-coefficient cache, one per (label, x):
#: room for every eta of n <= 9 (96 of them) on two vectors.
EIGENCOEFF_CACHE_SIZE = 256

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


def check_precision(bits: int) -> int:
    if bits < 64:
        raise ValueError("precision_bits must be >= 64, got %d" % bits)
    return bits


def eigenvalue(m: int, theta) -> Fraction:
    """lambda_m = m (m - 1 + theta) / 2 for m >= 2."""
    if m < 2:
        raise ValueError("the spectral expansion starts at m = 2, got %r" % (m,))
    theta = check_theta(theta)
    return Fraction(m) * (m - 1 + theta) / 2


@dataclass(frozen=True)
class TimePoint:
    """A nonnegative time (or the stationary sentinel) with its theta."""

    t: object
    theta: Fraction
    precision_bits: int = DEFAULT_PRECISION_BITS

    def __post_init__(self):
        object.__setattr__(self, "theta", check_theta(self.theta))
        check_precision(self.precision_bits)
        object.__setattr__(self, "t", check_time(self.t))

    @property
    def is_stationary(self) -> bool:
        return self.t is STATIONARY


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
        # Per evaluator, since the coefficients depend on theta; bounded,
        # since get_evaluator keeps up to 32 evaluators alive.
        self._moment_eigencoeffs = lru_cache(maxsize=EIGENCOEFF_CACHE_SIZE)(
            self._moment_eigencoeffs)
        self._sampler_eigencoeffs = lru_cache(maxsize=EIGENCOEFF_CACHE_SIZE)(
            self._sampler_eigencoeffs)

    # -- exact layer ---------------------------------------------------

    def eigen_coefficients(
        self, f: tuple[tuple[IntegerPartition, Fraction], ...], x: FrequencyVector
    ) -> dict[int, Fraction]:
        """Group f = sum c_xi psi_xi by eigenvalue index: returns {m: C_m}
        with C_0 the stationary part, such that
        E_x f(X_t) = C_0 + sum_m C_m e^{-lambda_m t}.

        Gram-Schmidt makes psi_j orthogonal to every phi_a before it in the
        canonical order, so <phi_a, psi_j> = 0 exactly for a before j: each
        psi_j is projected on the labels of f at or after position j only,
        and the psi past the last label of f are skipped."""
        rest = {k: v for k, v in f}
        size = max(label.n for label in rest)
        out: dict[int, Fraction] = {}
        for psi in build_basis(max(2, size), self.theta):
            if not rest:
                break
            c = inner_product(rest, psi.coeffs, self.theta) / psi.norm2
            rest.pop(psi.label, None)
            if c == 0:
                continue
            m = psi.label.n
            value = c if m == 0 else c * evaluate_coeff_map(psi.coeffs, x)
            out[m] = out.get(m, Fraction(0)) + value
        return {m: v for m, v in out.items() if v != 0}

    def _moment_eigencoeffs(self, omega: IntegerPartition, x: FrequencyVector):
        if omega != EMPTY and omega.min_part < 2:
            raise ValueError("moment needs parts >= 2, got %s" % (omega,))
        return self.eigen_coefficients(((omega, Fraction(1)),), x)

    def _sampler_eigencoeffs(self, eta: IntegerPartition, x: FrequencyVector):
        coeffs = self.eigen_coefficients(expansion_of_monomial_sampler(eta), x)
        const = multinomial_constant(eta)
        return {m: const * v for m, v in coeffs.items()}

    # -- combination with exponentials ---------------------------------

    def _combine(self, eigen: dict[int, Fraction], t) -> mpmath.mpf:
        with mpmath.workprec(self.precision_bits):
            tval = _to_mpf(t)
            total = mpmath.mpf(0)
            for m, c in sorted(eigen.items()):
                term = _to_mpf(c)
                if m >= 2:
                    term *= mpmath.exp(-_to_mpf(eigenvalue(m, self.theta)) * tval)
                total += term
            return total

    # -- public surface ------------------------------------------------

    def moment(self, omega: IntegerPartition, x: FrequencyVector, t):
        """E_x phi_omega(X_t); exact Fraction for the stationary sentinel."""
        if check_time(t) is STATIONARY:
            return power_sum_moment(omega, self.theta)
        return self._combine(self._moment_eigencoeffs(omega, x), t)

    def moment_exact_t0(self, omega: IntegerPartition, x: FrequencyVector) -> Fraction:
        return sum(self._moment_eigencoeffs(omega, x).values(), Fraction(0))

    def sampling_probability(self, eta: IntegerPartition, x: FrequencyVector, t):
        """P_n^theta(eta) = E_x p_eta(X_t); exact ESF value at the sentinel."""
        if check_time(t) is STATIONARY:
            return self.stationary_sampling_probability(eta)
        return self._combine(self._sampler_eigencoeffs(eta, x), t)

    def stationary_sampling_probability(self, eta: IntegerPartition) -> Fraction:
        """The Ewens sampling formula value, exactly."""
        return multinomial_constant(eta) * esf_monomial_moment(eta, self.theta)


@lru_cache(maxsize=32)
def get_evaluator(theta, precision_bits: int = DEFAULT_PRECISION_BITS) -> SpectralEvaluator:
    """The shared evaluator of one (theta, precision_bits)."""
    return SpectralEvaluator(theta, precision_bits)


def transient_moment(omega: IntegerPartition, x: FrequencyVector, tp: TimePoint):
    return get_evaluator(tp.theta, tp.precision_bits).moment(omega, x, tp.t)


def transient_sampling_probability(eta: IntegerPartition, x: FrequencyVector,
                                   tp: TimePoint):
    return get_evaluator(tp.theta, tp.precision_bits).sampling_probability(eta, x, tp.t)
