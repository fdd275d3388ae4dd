"""Finite spectral evaluation of transient moments and sampling probabilities.

The generator of the neutral diffusion is triangular on power-sum monomials
(phi_1 == 1):

    L phi_eta = sum_i C(eta_i, 2) phi_{eta_i -> eta_i - 1}
                + sum_{i<j} eta_i eta_j phi_{eta_i, eta_j -> eta_i + eta_j - 1}
                - lambda_n phi_eta,

so E_x phi_eta(X_t) = sum_m A_eta[m] e^{-lambda_m t} with finitely many exact
rational coefficients, found by recursion on moments.generator_children
(Ethier & Kurtz 1981; Griffiths 1979), whose stationary equation also gives
A_eta[0] = <phi_eta, 1>.  No series truncation and no orthogonal basis is
involved.

The exact layer runs the recursion in integers, the way the t = 0 layer sums
over D^n.  Write theta = p/q and d(u, m) = (u - m)(q(u + m - 1) + p), so that
lambda_u - lambda_m = d(u, m) / (2q); let L_u = prod_{m in {0, 2, ..., u-1}}
d(u, m) and H_n = L_2 ... L_n.  With D the lcm of the atoms' denominators,
every A_xi[m] with |xi| = n is an integer N_xi[m] over D^n H_n.  A sampler or
moment sums the numerators of its labels over one common denominator and
builds one Fraction per m.  The numerators depend on theta and x only, so
one bounded exact layer per theta serves the evaluators of every precision.

The float layer works at a configurable (default 256-bit) precision: each
evaluator converts the sampler coefficients of one (eta, x) to mpf once, and
computes each lambda_m once and each e^{-lambda_m t} once per (m, t), so a
sampler call at a finite t is at most n + 1 multiply-adds; a moment converts
its coefficients on each call, since no traffic repeats an (omega, x).
t = inf is a sentinel that drops all exponential terms and returns the exact
stationary value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import lcm

import mpmath

from .combinatorics import EMPTY, IntegerPartition, multinomial_constant
from .config import DEFAULT_PRECISION_BITS, check_precision
from .moments import (
    check_min_part,
    check_theta,
    esf_monomial_moment,
    generator_children,
    power_sum_moment,
)
from .records import FrozenRecord
from .sampling import FrequencyVector, expansion_of_monomial_sampler

#: Entries per evaluator in the cache of mpf sampler eigen-coefficients, one
#: per (eta, x): room for every eta of n <= 9 (96 of them) on two vectors.
EIGENCOEFF_CACHE_SIZE = 256

#: Entries per exact layer in the cache of integer numerators, one per
#: (label, x).  The recursion for one vector visits every label with parts
#: >= 2 up to its size: 231 up to 16, 297 up to 17 and 627 up to 20.  So the
#: bound holds all labels up to size 20 on one vector; a smaller bound evicts
#: children the recursion still needs and recomputes them.
LABEL_CACHE_SIZE = 1024

#: Entries per evaluator in the cache of e^{-lambda_m t}, one per (m, t):
#: room for m = 2..9 at 64 distinct times.
DECAY_CACHE_SIZE = 512

#: Entries per evaluator in the cache of lambda_m as an mpf, and per exact
#: layer in the cache of (L_n, H_n, ...), one per m or n.
LEVEL_CACHE_SIZE = 64

#: Exact layers kept, one per theta: as many as get_evaluator keeps
#: evaluators.
EXACT_LAYER_CACHE_SIZE = 32

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


# Not cached: hashing the vector's Fractions for a lookup costs as much as a rebuild.
def _atom_table(x: FrequencyVector) -> tuple[int, tuple[int, ...]]:
    """(D, (a_i D)_i): the lcm D of the atoms' denominators and each atom
    scaled to an integer, so phi_p(x) = W_p / D^p with W_p = sum_i (a_i D)^p.
    Built here apart from sampling's power-sum table, so that the t = 0
    identity sum_m A[m] = phi_label(x) checks one against the other."""
    d = lcm(*(a.denominator for a in x.atoms))
    return d, tuple(a.numerator * (d // a.denominator) for a in x.atoms)


class ExactLayer:
    """The integer eigen-coefficients of one theta = p/q, shared by the
    evaluators of every precision."""

    def __init__(self, theta: Fraction):
        self.theta = theta
        self.label_numerators = lru_cache(maxsize=LABEL_CACHE_SIZE)(
            self.label_numerators)
        self.level = lru_cache(maxsize=LEVEL_CACHE_SIZE)(self.level)

    def level(self, n: int) -> tuple[int, int, tuple[int, ...]]:
        """(L_n, H_n, (2q L_n / d(n, m))_{m < n}), with the factor 0 at
        m = 1, which is no eigenvalue index; L_u = H_u = 1 for u < 2."""
        if n < 2:
            return 1, 1, (0,) * n
        p, q = self.theta.numerator, self.theta.denominator
        gaps = [(n - m) * (q * (n + m - 1) + p) if m != 1 else 0 for m in range(n)]
        l_n = math.prod(g for g in gaps if g)
        factors = tuple(2 * q * l_n // g if g else 0 for g in gaps)
        return l_n, self.level(n - 1)[1] * l_n, factors

    def label_numerators(self, label: IntegerPartition,
                         table: tuple[int, tuple[int, ...]]) -> tuple[int, ...]:
        """(N[0], ..., N[n]) with A_label[m] = N[m] / (D^n H_n) at the vector
        of the atom table (D, weights).

        A child of size s contributes c D^{n-s} (H_{n-1} / H_s) N_child[m]
        to the sum that 2q L_n / d(n, m) turns into N[m] for m < n; at
        t = 0 the A[m] sum to phi_label(x) = prod_p W_p / D^n, which fixes
        N[n] = H_n prod_p W_p - sum_{m<n} N[m]."""
        n = label.n
        if n == 0:
            return (1,)
        d, weights = table
        near, far = [0] * n, [0] * n  # children of size n - 1 and n - 2
        for child, c in generator_children(label):
            acc = near if child.n == n - 1 else far
            for m, a in enumerate(self.label_numerators(child, table)):
                if a:
                    acc[m] += c * a
        _, h_n, factors = self.level(n)
        far_scale = d * self.level(n - 1)[0]
        out = [f * d * (a + far_scale * b) if f else 0
               for f, a, b in zip(factors, near, far)]
        top = h_n
        for p in label.parts:
            top *= sum(w**p for w in weights)
        out.append(top - sum(out))
        return tuple(out)


@lru_cache(maxsize=EXACT_LAYER_CACHE_SIZE)
def _exact_layer(theta: Fraction) -> ExactLayer:
    """The shared exact layer of one theta."""
    return ExactLayer(theta)


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
        # The integer numerators depend on theta alone, so the evaluators of
        # every precision share them.
        self._exact = _exact_layer(self.theta)
        # Per evaluator, since the floats depend on the precision; bounded,
        # since get_evaluator keeps up to 32 evaluators alive.
        self._sampler_terms = lru_cache(maxsize=EIGENCOEFF_CACHE_SIZE)(
            self._sampler_terms)
        self._decay = lru_cache(maxsize=DECAY_CACHE_SIZE)(self._decay)
        self._rate = lru_cache(maxsize=LEVEL_CACHE_SIZE)(self._rate)

    # -- exact layer ---------------------------------------------------

    def eigen_coefficients(
        self, f: tuple[tuple[IntegerPartition, Fraction], ...], x: FrequencyVector
    ) -> dict[int, Fraction]:
        """Group E_x f(X_t) for f = sum c_xi phi_xi by eigenvalue index:
        returns {m: C_m} with C_0 the stationary part, such that
        E_x f(X_t) = C_0 + sum_m C_m e^{-lambda_m t}, with
        C_m = sum_xi c_xi A_xi[m] and zeros dropped.

        The numerators of each label size s are summed first, then scaled by
        D^{top-s} H_top / H_s to the common denominator of the largest label;
        one Fraction per m divides by it."""
        exact = self._exact
        table = _atom_table(x)
        d = table[0]
        den = lcm(*(c.denominator for _, c in f))
        by_size: dict[int, list[int]] = {}
        for xi, c in f:
            acc = by_size.setdefault(xi.n, [0] * (xi.n + 1))
            weight = c.numerator * (den // c.denominator)
            for m, a in enumerate(exact.label_numerators(xi, table)):
                if a:
                    acc[m] += weight * a
        top = max(by_size, default=0)
        totals = [0] * (top + 1)
        scale = 1
        for s in range(top, min(by_size, default=0) - 1, -1):
            for m, a in enumerate(by_size.get(s, ())):
                if a:
                    totals[m] += scale * a
            scale *= d * exact.level(s)[0]
        common = den * d**top * exact.level(top)[1]  # den D^top H_top
        return {m: Fraction(v, common) for m, v in enumerate(totals) if v}

    def _moment_eigencoeffs(self, omega: IntegerPartition, x: FrequencyVector):
        if omega != EMPTY:
            check_min_part(omega, "moment")
        return self.eigen_coefficients(((omega, Fraction(1)),), x)

    def _sampler_eigencoeffs(self, eta: IntegerPartition, x: FrequencyVector):
        const = multinomial_constant(eta)
        return self.eigen_coefficients(
            tuple((xi, const * c) for xi, c in expansion_of_monomial_sampler(eta)), x)

    # -- float layer ---------------------------------------------------

    def _mpf_terms(self, eigen: dict[int, Fraction]) -> tuple[tuple[int, mpmath.mpf], ...]:
        with mpmath.workprec(self.precision_bits):
            return tuple((m, _to_mpf(c)) for m, c in sorted(eigen.items()))

    def _sampler_terms(self, eta: IntegerPartition, x: FrequencyVector):
        return self._mpf_terms(self._sampler_eigencoeffs(eta, x))

    def _rate(self, m: int) -> mpmath.mpf:
        """lambda_m at the evaluator's precision."""
        with mpmath.workprec(self.precision_bits):
            return _to_mpf(eigenvalue(m, self.theta))

    def _decay(self, m: int, t) -> mpmath.mpf:
        """e^{-lambda_m t}.  Equal times of different types (0.5,
        Fraction(1, 2), mpf(0.5)) share an entry: they convert to the same
        mpf."""
        with mpmath.workprec(self.precision_bits):
            return mpmath.exp(-self._rate(m) * _to_mpf(t))

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
        return self._combine(
            self._mpf_terms(self._moment_eigencoeffs(omega, x)), t)

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


def transient_sampling_probability(eta: IntegerPartition, x: FrequencyVector,
                                   tp: TimePoint):
    return get_evaluator(tp.theta, tp.precision_bits).sampling_probability(eta, x, tp.t)
