"""The exact engine, in exact arithmetic only: the generator of the neutral
diffusion on sampling functions and its one recursion, which gives the
transient eigen-coefficients of sampling probabilities and power-sum moments,
and the Poisson-Dirichlet moments.

Backwards in time the n lineages of a sample coalesce at rate C(n, 2) and
mutate at rate n theta / 2 (Griffiths 1980; Tavare 1984), so the generator is
triangular on the sampling functions P_n(eta | x): each child of eta lacks one
box of eta's diagram.  At theta = p/q the child of a distinct part r >= 2
turns the last r into r - 1 and weighs q n (r - 1) alpha'_{r-1}, alpha' the
child's multiplicities; the child of r = 1 drops one 1 and weighs n p (2q
times the rates).  So E_x P_n(eta | X_t) = sum_m A_eta[m] e^{-lambda_m t},
finitely many exact terms, with no series truncation and no basis.

The recursion runs in integers.  With d(u, m) = (u - m)(q(u + m - 1) + p) =
2q (lambda_u - lambda_m), L_u = prod_{m in {0, 2, ..., u-1}} d(u, m),
H_n = L_2 ... L_n and D the lcm of the atoms' denominators, each A_eta[m] is
an integer N_eta[m] over D^n H_n.  One store per (theta's p, q, the vector's
integer form) holds the numerators of every sample partition reached, keyed
by its parts, and is never evicted entry by entry, so every float evaluator
at a theta shares it.  The t = 0 values fixing the top terms do not depend on
theta and are cached per (eta, x).  A power sum is a positive sum of
monomial samplers over its coarsenings (sampling.expansion_of_power_sum), so
its transient coefficients sum sampler numerators and its PD(theta) mean
sums Ewens closed forms.  No mpmath is imported.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .combinatorics import EMPTY, IntegerPartition, multinomial_constant
from .sampling import FrequencyVector, expansion_of_power_sum, sampling_probability

#: Stores of integer numerators kept, one per (theta, vector), in total over
#: every theta; a store holds every sample partition reached at its pair,
#: about 49 MB at n = 24.  The least bound at which no benchmark workload
#: computes a store twice: transient_grid alternates two vectors at a theta.
STORE_CACHE_SIZE = 2

#: Entries in total in the cache of (H_n, ...), one per (theta, n).
LEVEL_CACHE_SIZE = 64

#: Entries in the cache of t = 0 numerators D^n P_n(eta | x), one per
#: (eta, x) and shared by every theta: room for every sample partition up
#: to size 24 (7338) on one vector, so a second theta recomputes none.
TOP_CACHE_SIZE = 8192


def check_theta(theta: Fraction) -> Fraction:
    theta = Fraction(theta)
    if theta <= 0:
        raise ValueError("theta must be positive, got %s" % theta)
    return theta


def _rising_numerator(p: int, q: int, n: int) -> int:
    """prod_{i<n} (p + i q), so that (p/q)_(n) is this over q^n."""
    return math.prod(p + i * q for i in range(n))


def ewens_prefactor(eta: IntegerPartition) -> int:
    """prod_i (eta_i - 1)!, the Ewens sampling formula's factor of eta."""
    return math.prod(factorial(p - 1) for p in eta.parts)


def esf_monomial_moment(eta: IntegerPartition, theta) -> Fraction:
    """Moment of the monomial sampler p^o_eta under PD(theta).

    Equals prod_i (eta_i - 1)! * theta^l / theta_(n) by the Ewens sampling
    formula, one integer quotient for theta = p/q; valid for any partition
    with parts >= 1 (1 for the empty one).
    """
    theta = check_theta(theta)
    p, q, n, l = theta.numerator, theta.denominator, eta.n, eta.l
    return Fraction(ewens_prefactor(eta) * p**l * q**(n - l), _rising_numerator(p, q, n))


def check_min_part(label: IntegerPartition, name: str):
    """Refuse a label with a part < 2 (phi_1 == 1), the empty one included."""
    if label.min_part < 2:
        raise ValueError("%s needs parts >= 2, got %s" % (name, label))


# One entry per (label, theta): room for the 134 labels up to size 14 at
# about 30 thetas, while a theta scan only revisits the theta it is on.
@lru_cache(maxsize=4096)
def power_sum_moment(eta: IntegerPartition, theta) -> Fraction:
    """<phi_eta, 1>_theta: the Ewens moments of the monomial samplers of
    eta's coarsenings, summed over one denominator.  Requires every part
    >= 2 (the empty partition gives 1)."""
    theta = check_theta(theta)
    if eta != EMPTY:
        check_min_part(eta, "moment")
    p, q, n = theta.numerator, theta.denominator, eta.n
    total = sum(c * ewens_prefactor(IntegerPartition._trusted(rho)) * p**len(rho)
                * q**(n - len(rho)) for rho, c in expansion_of_power_sum(eta.parts))
    return Fraction(total, _rising_numerator(p, q, n))


def mixed_power_sum_moment(eta: IntegerPartition, xi: IntegerPartition, theta) -> Fraction:
    """<phi_eta, phi_xi>_theta via concatenation of the two part lists."""
    return power_sum_moment(eta.concat(xi), theta)


@lru_cache(maxsize=LEVEL_CACHE_SIZE)
def level(p: int, q: int, n: int) -> tuple[int, tuple[int, ...]]:
    """(H_n, (L_n / d(n, m))_{m < n}) at theta = p/q, with the factor 0 at
    m = 1, which is no eigenvalue index; H_u = 1 for u < 2."""
    if n < 2:
        return 1, (0,) * n
    gaps = [(n - m) * (q * (n + m - 1) + p) if m != 1 else 0 for m in range(n)]
    l_n = math.prod(g for g in gaps if g)
    return level(p, q, n - 1)[0] * l_n, tuple(l_n // g if g else 0 for g in gaps)


@lru_cache(maxsize=STORE_CACHE_SIZE)
def _store(p: int, q: int, table: tuple[int, tuple[int, ...]]
           ) -> dict[tuple[int, ...], tuple[int, ...]]:
    """{parts: numerators} of every sample partition computed at theta = p/q
    on the vector whose integer form is `table`, seeded with the empty one,
    (1,), and the single sample, (D, 0): E_x P_1 = 1 = D / D."""
    return {(): (1,), (1,): (table[0], 0)}


@lru_cache(maxsize=TOP_CACHE_SIZE)
def _top(eta: tuple[int, ...], x: FrequencyVector) -> int:
    """D^n P_n(eta | x), the integer t = 0 value, which no theta changes."""
    value = sampling_probability(IntegerPartition._trusted(eta), x)
    return value.numerator * (x.integer_form[0] ** sum(eta) // value.denominator)


def sampler_numerators(p: int, q: int, eta: tuple[int, ...],
                       x: FrequencyVector) -> tuple[int, ...]:
    """(N[0], ..., N[n]) with E_x P_n(eta | X_t) = sum_m N[m] e^{-lambda_m t}
    / (D^n H_n) at theta = p/q, for eta's parts, computed once per store:
    N[m] = D (L_n / d(n, m)) sum_child w N_child[m] for m < n, and the terms
    sum to P_n(eta | x) at t = 0, so N[n] = H_n D^n P_n(eta | x) - the rest."""
    store = _store(p, q, x.integer_form)
    known = store.get(eta)
    if known is not None:
        return known
    n = sum(eta)
    acc = [0] * n
    last = len(eta) - 1
    for i, r in enumerate(eta):
        if i < last and eta[i + 1] == r:
            continue  # the last of each run of equal parts
        if r == 1:
            child, w = eta[:-1], n * p
        else:
            child = eta[:i] + (r - 1,) + eta[i + 1:]
            w = q * n * (r - 1) * (eta.count(r - 1) + 1)
        for m, a in enumerate(store.get(child) or sampler_numerators(p, q, child, x)):
            if a:
                acc[m] += w * a
    d = x.integer_form[0]
    h_n, factors = level(p, q, n)
    out = [f * d * a for f, a in zip(factors, acc)]
    out.append(h_n * _top(eta, x) - sum(out))
    store[eta] = out = tuple(out)
    return out


def eigen_coefficients(
    theta: Fraction, f: tuple[tuple[tuple[int, ...], int], ...], x: FrequencyVector
) -> dict[int, Fraction]:
    """{m: C_m}, zeros dropped, with E_x f(X_t) = C_0 + sum_m C_m
    e^{-lambda_m t} for f = sum c_rho p^o_rho, monomial samplers of one size
    n given by their parts, with integer c_rho.  As p^o_rho = P_n(rho) /
    multinomial_constant(rho), rho adds c_rho (n! / multinomial_constant(rho))
    N_rho[m] over n! D^n H_n; one Fraction per m divides by it."""
    p, q = theta.numerator, theta.denominator
    n = sum(f[0][0])
    weights = [c * (factorial(n) // multinomial_constant(IntegerPartition._trusted(rho)))
               for rho, c in f]
    totals = [0] * (n + 1)
    for (rho, _), w in zip(f, weights):
        numerators = sampler_numerators(p, q, rho, x)
        if len(numerators) != n + 1:
            raise ValueError("monomial samplers of sizes %d and %d" % (n, sum(rho)))
        for m, a in enumerate(numerators):
            if a:
                totals[m] += w * a
    common = factorial(n) * x.integer_form[0]**n * level(p, q, n)[0]
    return {m: Fraction(v, common) for m, v in enumerate(totals) if v}
