"""Finite spectral evaluation of transient moments and sampling probabilities.

The generator of the neutral diffusion is triangular on power-sum monomials
(phi_1 == 1):

    L phi_eta = sum_i C(eta_i, 2) phi_{eta_i -> eta_i - 1}
                + sum_{i<j} eta_i eta_j phi_{eta_i, eta_j -> eta_i + eta_j - 1}
                - lambda_n phi_eta,

so E_x phi_eta(X_t) = sum_m A_eta[m] e^{-lambda_m t} with finitely many exact
rational coefficients, found by recursion on the children of eta (Ethier &
Kurtz 1981; Griffiths 1979).  No series truncation and no orthogonal basis is
involved.  The float layer works at a configurable (default 256-bit)
precision: each evaluator converts the coefficients of one (label, x) to mpf
once, and computes each e^{-lambda_m t} once per (m, t), so a call at a finite
t is at most n + 1 multiply-adds.  t = inf is a sentinel that drops all
exponential terms and returns the exact stationary value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .combinatorics import EMPTY, IntegerPartition, multinomial_constant
from .moments import check_theta, esf_monomial_moment, power_sum_moment
from .sampling import FrequencyVector, expansion_of_monomial_sampler

DEFAULT_PRECISION_BITS = 256

#: Entries per evaluator in each eigen-coefficient cache, one per (label, x):
#: room for every eta of n <= 9 (96 of them) on two vectors, and for every
#: label with parts >= 2 up to size 16 (231 of them) on one vector.
EIGENCOEFF_CACHE_SIZE = 256

#: Entries per evaluator in the cache of e^{-lambda_m t}, one per (m, t):
#: room for m = 2..9 at 64 distinct times.
DECAY_CACHE_SIZE = 512

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


# One entry per label, shared by every theta: room for every label with
# parts >= 2 up to size 20 (627 of them).
@lru_cache(maxsize=1024)
def generator_children(label: IntegerPartition) -> tuple[tuple[IntegerPartition, int], ...]:
    """(zeta, c) pairs with L phi_label = sum c phi_zeta - lambda_n phi_label.

    A part p coalesces within itself with weight C(p, 2) (p -> p - 1), and
    two parts p, q merge with weight p q (p, q -> p + q - 1); a part that
    becomes 1 is dropped since phi_1 == 1.  The weights sum to C(n, 2).
    """
    parts = label.parts
    weights: dict[tuple[int, ...], int] = {}

    def add(rest: tuple[int, ...], new: int, weight: int):
        key = tuple(sorted(rest + (new,) if new >= 2 else rest, reverse=True))
        weights[key] = weights.get(key, 0) + weight

    for i, p in enumerate(parts):
        rest = parts[:i] + parts[i + 1:]
        add(rest, p - 1, p * (p - 1) // 2)
        for j in range(i, len(rest)):
            add(rest[:j] + rest[j + 1:], p + rest[j] - 1, p * rest[j])
    return tuple((IntegerPartition._trusted(k), w) for k, w in weights.items())


def _phi_from_atoms(label: IntegerPartition, x: FrequencyVector) -> Fraction:
    """phi_label(x), one Fraction power sum of the atoms per part; computed
    apart from sampling.power_sum_product, so that the t = 0 identity
    sum_m A[m] = phi_label(x) checks one against the other."""
    out = Fraction(1)
    for p in label.parts:
        out *= sum((a**p for a in x.atoms), Fraction(0))
    return out


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
        # Per evaluator, since the coefficients depend on theta and the
        # floats on the precision; bounded, since get_evaluator keeps up to
        # 32 evaluators alive.
        for name in ("_label_coefficients", "_moment_eigencoeffs",
                     "_sampler_eigencoeffs", "_moment_terms", "_sampler_terms"):
            setattr(self, name, lru_cache(maxsize=EIGENCOEFF_CACHE_SIZE)(
                getattr(self, name)))
        self._decay = lru_cache(maxsize=DECAY_CACHE_SIZE)(self._decay)

    # -- exact layer ---------------------------------------------------

    def _label_coefficients(self, label: IntegerPartition,
                            x: FrequencyVector) -> tuple[Fraction, ...]:
        """(A[0], ..., A[n]) with E_x phi_label(X_t) = sum_m A[m] e^{-lambda_m t}
        and lambda_0 = 0; A[1] = 0, since no label has size 1.

        For m < n, A[m] = sum_zeta c A_zeta[m] / (lambda_n - lambda_m) over
        the generator's children, with lambda_n - lambda_m =
        (n - m)(n + m - 1 + theta) / 2; at t = 0 the sum is phi_label(x),
        which fixes A[n]."""
        n = label.n
        if n == 0:
            return (Fraction(1),)
        out = [Fraction(0)] * (n + 1)
        for child, c in generator_children(label):
            for m, a in enumerate(self._label_coefficients(child, x)):
                if a:
                    out[m] += c * a
        for m in range(n):
            if out[m]:
                out[m] = 2 * out[m] / ((n - m) * (n + m - 1 + self.theta))
        out[n] = _phi_from_atoms(label, x) - sum(out[:n])
        return tuple(out)

    def eigen_coefficients(
        self, f: tuple[tuple[IntegerPartition, Fraction], ...], x: FrequencyVector
    ) -> dict[int, Fraction]:
        """Group E_x f(X_t) for f = sum c_xi phi_xi by eigenvalue index:
        returns {m: C_m} with C_0 the stationary part, such that
        E_x f(X_t) = C_0 + sum_m C_m e^{-lambda_m t}, with
        C_m = sum_xi c_xi A_xi[m] and zeros dropped."""
        out: dict[int, Fraction] = {}
        for xi, c in f:
            for m, a in enumerate(self._label_coefficients(xi, x)):
                if a:
                    out[m] = out.get(m, Fraction(0)) + c * a
        return {m: v for m, v in out.items() if v != 0}

    def _moment_eigencoeffs(self, omega: IntegerPartition, x: FrequencyVector):
        if omega != EMPTY and omega.min_part < 2:
            raise ValueError("moment needs parts >= 2, got %s" % (omega,))
        return self.eigen_coefficients(((omega, Fraction(1)),), x)

    def _sampler_eigencoeffs(self, eta: IntegerPartition, x: FrequencyVector):
        coeffs = self.eigen_coefficients(expansion_of_monomial_sampler(eta), x)
        const = multinomial_constant(eta)
        return {m: const * v for m, v in coeffs.items()}

    # -- float layer ---------------------------------------------------

    def _mpf_terms(self, eigen: dict[int, Fraction]) -> tuple[tuple[int, mpmath.mpf], ...]:
        with mpmath.workprec(self.precision_bits):
            return tuple((m, _to_mpf(c)) for m, c in sorted(eigen.items()))

    def _moment_terms(self, omega: IntegerPartition, x: FrequencyVector):
        return self._mpf_terms(self._moment_eigencoeffs(omega, x))

    def _sampler_terms(self, eta: IntegerPartition, x: FrequencyVector):
        return self._mpf_terms(self._sampler_eigencoeffs(eta, x))

    def _decay(self, m: int, t) -> mpmath.mpf:
        """e^{-lambda_m t}.  Equal times of different types (0.5,
        Fraction(1, 2), mpf(0.5)) share an entry: they convert to the same
        mpf."""
        with mpmath.workprec(self.precision_bits):
            return mpmath.exp(-_to_mpf(eigenvalue(m, self.theta)) * _to_mpf(t))

    def _combine(self, terms: tuple[tuple[int, mpmath.mpf], ...], t) -> mpmath.mpf:
        """sum_m C_m e^{-lambda_m t} in increasing m, at the evaluator's
        precision."""
        with mpmath.workprec(self.precision_bits):
            total = mpmath.mpf(0)
            for m, c in terms:
                total += c * self._decay(m, t) if m >= 2 else c
            return total

    # -- public surface ------------------------------------------------

    def moment(self, omega: IntegerPartition, x: FrequencyVector, t):
        """E_x phi_omega(X_t); exact Fraction for the stationary sentinel."""
        if check_time(t) is STATIONARY:
            return power_sum_moment(omega, self.theta)
        return self._combine(self._moment_terms(omega, x), t)

    def moment_exact_t0(self, omega: IntegerPartition, x: FrequencyVector) -> Fraction:
        return sum(self._moment_eigencoeffs(omega, x).values(), Fraction(0))

    def sampling_probability(self, eta: IntegerPartition, x: FrequencyVector, t):
        """P_n^theta(eta) = E_x p_eta(X_t); exact ESF value at the sentinel."""
        if check_time(t) is STATIONARY:
            return self.stationary_sampling_probability(eta)
        return self._combine(self._sampler_terms(eta, x), t)

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
