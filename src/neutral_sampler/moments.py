"""Exact Poisson-Dirichlet moments of sampling monomials and power sums.

All arithmetic is over fractions.Fraction at a fixed rational mutation rate
theta, so every identity downstream can be asserted with zero tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .combinatorics import EMPTY, IntegerPartition, all_set_partitions


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


@lru_cache(maxsize=None)
def power_sum_moment(eta: IntegerPartition, theta) -> Fraction:
    """<phi_eta, 1>_theta: the PD(theta) mean of the power-sum product.

    Sums the Ewens moment of each set-partition coarsening of the parts;
    requires every part >= 2 (the empty partition gives 1).
    """
    theta = check_theta(theta)
    if eta == EMPTY:
        return Fraction(1)
    if eta.min_part < 2:
        raise ValueError("power sums need parts >= 2, got %s" % (eta,))
    total = Fraction(0)
    for beta in all_set_partitions(eta.l):
        term = theta**beta.d
        for s in beta.block_sums(eta.parts):
            term *= factorial(s - 1)
        total += term
    return total / rising_factorial(theta, eta.n)


def mixed_power_sum_moment(eta: IntegerPartition, xi: IntegerPartition, theta) -> Fraction:
    """<phi_eta, phi_xi>_theta via concatenation of the two part lists."""
    return power_sum_moment(eta.concat(xi), theta)
