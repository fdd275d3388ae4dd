"""The exact engine: the generator of the neutral diffusion on power-sum
monomials and its one exact recursion, whose solution gives the transient
eigen-coefficients and, as their stationary part, the Poisson-Dirichlet
moments, in exact arithmetic only.

The generator is triangular on power-sum monomials (phi_1 == 1):

    L phi_eta = sum_i C(eta_i, 2) phi_{eta_i -> eta_i - 1}
                + sum_{i<j} eta_i eta_j phi_{eta_i, eta_j -> eta_i + eta_j - 1}
                - lambda_n phi_eta

(Ethier & Kurtz 1981; Griffiths 1979).  So E_x phi_eta(X_t) = sum_m A_eta[m]
e^{-lambda_m t} with finitely many exact rational coefficients, found by
recursion on the children; PD(theta) is the generator's stationary law, so
A_eta[0] = <phi_eta, 1>_theta whatever x is.  No series truncation and no
orthogonal basis is involved.

The recursion runs in integers, the way the t = 0 layer sums over D^n.
Write theta = p/q and d(u, m) = (u - m)(q(u + m - 1) + p), so that
lambda_u - lambda_m = d(u, m) / (2q); let L_u = prod_{m in {0, 2, ..., u-1}}
d(u, m) and H_n = L_2 ... L_n.  With D the lcm of the atoms' denominators,
every A_xi[m] with |xi| = n is an integer N_xi[m] over D^n H_n.  The
numerators of one (theta, vector) live in one store, keyed by theta's
integers p, q and the vector's integer form, which holds every label the
recursion has reached and is never evicted label by label: every float
evaluator (transient) at a theta shares it, and the PD moments read the
store of pure dust (D = 1).  A sampler or moment sums the numerators of its
labels over one common denominator and builds one Fraction per m.  No mpmath
is imported.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .combinatorics import EMPTY, IntegerPartition
from .sampling import FrequencyVector

#: Stores of integer numerators kept, one per (theta, vector), in total over
#: every theta; a store holds every label reached at its pair, about 10 MB
#: at n = 24.  The least bound at which no benchmark workload computes a
#: store twice: `verify --suite all` comes back to a pair after six others.
STORE_CACHE_SIZE = 7

#: Entries in total in the cache of (L_n, H_n, ...), one per (theta, n), and
#: in the cache of lambda_m, one per (float evaluator, m).
LEVEL_CACHE_SIZE = 64


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


# One entry per (label, theta): room for the 134 labels up to size 14 at
# about 30 thetas, while a theta scan only revisits the theta it is on.
@lru_cache(maxsize=4096)
def power_sum_moment(eta: IntegerPartition, theta) -> Fraction:
    """<phi_eta, 1>_theta: the PD(theta) mean of the power-sum product.

    The stationary part A_eta[0] of the transient recursion, which no vector
    changes, read on pure dust: N[0] / H_n at theta = p/q.  Requires every
    part >= 2 (the empty partition gives 1).
    """
    theta = check_theta(theta)
    if eta != EMPTY:
        check_min_part(eta, "moment")
    p, q = theta.numerator, theta.denominator
    return Fraction(label_numerators(p, q, eta, (1, ()))[0], level(p, q, eta.n)[1])


def mixed_power_sum_moment(eta: IntegerPartition, xi: IntegerPartition, theta) -> Fraction:
    """<phi_eta, phi_xi>_theta via concatenation of the two part lists."""
    return power_sum_moment(eta.concat(xi), theta)


@lru_cache(maxsize=LEVEL_CACHE_SIZE)
def level(p: int, q: int, n: int) -> tuple[int, int, tuple[int, ...]]:
    """(L_n, H_n, (2q L_n / d(n, m))_{m < n}) at theta = p/q, with the factor
    0 at m = 1, which is no eigenvalue index; L_u = H_u = 1 for u < 2."""
    if n < 2:
        return 1, 1, (0,) * n
    gaps = [(n - m) * (q * (n + m - 1) + p) if m != 1 else 0 for m in range(n)]
    l_n = math.prod(g for g in gaps if g)
    factors = tuple(2 * q * l_n // g if g else 0 for g in gaps)
    return l_n, level(p, q, n - 1)[1] * l_n, factors


@lru_cache(maxsize=STORE_CACHE_SIZE)
def _store(p: int, q: int, table: tuple[int, tuple[int, ...]]
           ) -> dict[IntegerPartition, tuple[int, ...]]:
    """{label: numerators} of every label computed at theta = p/q on the
    vector whose integer form is `table`; the empty label's are (1,)."""
    return {EMPTY: (1,)}


def label_numerators(p: int, q: int, label: IntegerPartition,
                     table: tuple[int, tuple[int, ...]]) -> tuple[int, ...]:
    """(N[0], ..., N[n]) with A_label[m] = N[m] / (D^n H_n) at theta = p/q
    and the vector whose integer form is (D, weights), computed once per
    store.

    A child of size s contributes c D^{n-s} (H_{n-1} / H_s) N_child[m]
    to the sum that 2q L_n / d(n, m) turns into N[m] for m < n; at
    t = 0 the A[m] sum to phi_label(x) = prod_p W_p / D^n, which fixes
    N[n] = H_n prod_p W_p - sum_{m<n} N[m]."""
    store = _store(p, q, table)
    known = store.get(label)
    if known is not None:
        return known
    n = label.n
    d, weights = table
    near, far = [0] * n, [0] * n  # children of size n - 1 and n - 2
    for child, c in generator_children(label):
        acc = near if child.n == n - 1 else far
        for m, a in enumerate(store.get(child) or label_numerators(p, q, child, table)):
            if a:
                acc[m] += c * a
    _, h_n, factors = level(p, q, n)
    far_scale = d * level(p, q, n - 1)[0]
    out = [f * d * (a + far_scale * b) if f else 0
           for f, a, b in zip(factors, near, far)]
    top = h_n
    for part in label.parts:
        top *= sum(w**part for w in weights)
    out.append(top - sum(out))
    store[label] = out = tuple(out)
    return out


def eigen_coefficients(
    theta: Fraction, f: tuple[tuple[IntegerPartition, int], ...], x: FrequencyVector
) -> dict[int, Fraction]:
    """Group E_x f(X_t) for f = sum c_xi phi_xi, with integer c_xi, by
    eigenvalue index: returns {m: C_m} with C_0 the stationary part, such
    that E_x f(X_t) = C_0 + sum_m C_m e^{-lambda_m t}, with
    C_m = sum_xi c_xi A_xi[m] and zeros dropped.

    The numerators of each label size s are summed first, then scaled by
    D^{top-s} H_top / H_s to the common denominator of the largest label;
    one Fraction per m divides by it."""
    p, q = theta.numerator, theta.denominator
    table = x.integer_form
    d = table[0]
    by_size: dict[int, list[int]] = {}
    for xi, c in f:
        acc = by_size.setdefault(xi.n, [0] * (xi.n + 1))
        for m, a in enumerate(label_numerators(p, q, xi, table)):
            if a:
                acc[m] += c * a
    top = max(by_size, default=0)
    totals = [0] * (top + 1)
    scale = 1
    for s in range(top, min(by_size, default=0) - 1, -1):
        for m, a in enumerate(by_size.get(s, ())):
            if a:
                totals[m] += scale * a
        scale *= d * level(p, q, s)[0]
    common = d**top * level(p, q, top)[1]  # D^top H_top
    return {m: Fraction(v, common) for m, v in enumerate(totals) if v}
