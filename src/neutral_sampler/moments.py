"""Exact Poisson-Dirichlet moments of sampling monomials and power sums.

All arithmetic is over fractions.Fraction at a fixed rational mutation rate
theta, so every identity downstream can be asserted with zero tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .combinatorics import EMPTY, IntegerPartition, coarsening_weights


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


# One entry per label, shared by every theta: room for every label with
# parts >= 2 up to size 20 (627 of them).
@lru_cache(maxsize=1024)
def _moment_coefficients(eta: IntegerPartition) -> tuple[int, ...]:
    """(c_0, ..., c_l) with <phi_eta, 1>_theta = sum_d c_d theta^d / theta_(n).

    c_d sums N_zeta prod_i (zeta_i - 1)! over the block-sum multisets zeta
    with d blocks, where N_zeta counts the set-partition coarsenings of the
    parts with block sums zeta.
    """
    by_blocks = [0] * (eta.l + 1)
    for sums, count in coarsening_weights(eta.multiplicities, False):
        for s in sums:
            count *= factorial(s - 1)
        by_blocks[len(sums)] += count
    return tuple(by_blocks)


# One entry per (label, theta): room for the 134 labels up to size 14 at
# about 30 thetas, while a theta scan only revisits the theta it is on.
@lru_cache(maxsize=4096)
def power_sum_moment(eta: IntegerPartition, theta) -> Fraction:
    """<phi_eta, 1>_theta: the PD(theta) mean of the power-sum product.

    Sums the Ewens moment of each set-partition coarsening zeta of the parts,
    sum_zeta N_zeta theta^l(zeta) prod_i (zeta_i - 1)! / theta_(n), as one
    fraction: with theta = p/q it is sum_d c_d p^d q^(n-d) / prod_{i<n}
    (p + i q).  Requires every part >= 2 (the empty partition gives 1).
    """
    theta = check_theta(theta)
    if eta == EMPTY:
        return Fraction(1)
    if eta.min_part < 2:
        raise ValueError("power sums need parts >= 2, got %s" % (eta,))
    p, q, n = theta.numerator, theta.denominator, eta.n
    num = sum(c * p**d * q**(n - d)
              for d, c in enumerate(_moment_coefficients(eta)))
    den = 1
    for i in range(n):
        den *= p + i * q
    return Fraction(num, den)


def mixed_power_sum_moment(eta: IntegerPartition, xi: IntegerPartition, theta) -> Fraction:
    """<phi_eta, phi_xi>_theta via concatenation of the two part lists."""
    return power_sum_moment(eta.concat(xi), theta)
