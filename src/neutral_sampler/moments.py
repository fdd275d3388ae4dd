"""Exact Poisson-Dirichlet moments of sampling monomials and power sums.

The power-sum moments solve the stationary equation of the generator of the
neutral diffusion (Ethier & Kurtz 1981), the one whose children the
transient expansion recurses on.  All arithmetic is over fractions.Fraction
at a fixed rational mutation rate theta, so every identity downstream can be
asserted with zero tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .combinatorics import EMPTY, IntegerPartition


def check_theta(theta: Fraction) -> Fraction:
    theta = Fraction(theta)
    if theta <= 0:
        raise ValueError("theta must be positive, got %s" % theta)
    return theta


def rising_factorial(theta, n: int) -> Fraction:
    """theta_(n) = theta (theta+1) ... (theta+n-1); 1 for n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0, got %r" % (n,))
    theta = Fraction(theta)
    out = Fraction(1)
    for i in range(n):
        out *= theta + i
    return out


def esf_monomial_moment(eta: IntegerPartition, theta) -> Fraction:
    """Moment of the monomial sampler p^o_eta under PD(theta).

    Equals prod_i (eta_i - 1)! * theta^l / theta_(n) by the Ewens sampling
    formula; valid for any partition with parts >= 1.
    """
    theta = check_theta(theta)
    if eta == EMPTY:
        return Fraction(1)
    num = Fraction(1)
    for p in eta.parts:
        num *= factorial(p - 1)
    return num * theta**eta.l / rising_factorial(theta, eta.n)


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


# One entry per label, shared by every theta: room for every label with
# parts >= 2 up to size 20 (627 of them).
@lru_cache(maxsize=1024)
def _moment_polynomial(eta: IntegerPartition) -> tuple[int, ...]:
    """(c_0, ..., c_l) with theta_(n) <phi_eta, 1>_theta = sum_d c_d theta^d.

    PD(theta) is the generator's stationary law, so lambda_n <phi_eta, 1> =
    sum c <phi_zeta, 1> over the children (zeta, c) of eta.  With lambda_n =
    n (theta + n - 1) / 2 the polynomial is 2/n times the sum of c times each
    child's, where a child of size n - 2 also takes the factor theta + n - 2.
    """
    n = eta.n
    if n == 0:
        return (1,)
    out = [0] * (eta.l + 1)
    for child, c in generator_children(eta):
        for d, a in enumerate(_moment_polynomial(child)):
            if child.n == n - 2:
                out[d + 1] += c * a
                a *= n - 2
            out[d] += c * a
    return tuple(2 * v // n for v in out)


# One entry per (label, theta): room for the 134 labels up to size 14 at
# about 30 thetas, while a theta scan only revisits the theta it is on.
@lru_cache(maxsize=4096)
def power_sum_moment(eta: IntegerPartition, theta) -> Fraction:
    """<phi_eta, 1>_theta: the PD(theta) mean of the power-sum product.

    With theta = p/q and c_d the coefficients of _moment_polynomial it is
    sum_d c_d p^d q^(n-d) / prod_{i<n} (p + i q), one fraction.  Requires
    every part >= 2 (the empty partition gives 1).
    """
    theta = check_theta(theta)
    if eta == EMPTY:
        return Fraction(1)
    check_min_part(eta, "moment")
    p, q, n = theta.numerator, theta.denominator, eta.n
    num = sum(c * p**d * q**(n - d)
              for d, c in enumerate(_moment_polynomial(eta)))
    den = 1
    for i in range(n):
        den *= p + i * q
    return Fraction(num, den)


def mixed_power_sum_moment(eta: IntegerPartition, xi: IntegerPartition, theta) -> Fraction:
    """<phi_eta, phi_xi>_theta via concatenation of the two part lists."""
    return power_sum_moment(eta.concat(xi), theta)
