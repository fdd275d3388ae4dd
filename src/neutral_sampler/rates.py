"""Large-deviation rate functions of the transient sampling formula with
their phase transition, in exact arithmetic (no float layer is imported)."""

from __future__ import annotations

import math
from fractions import Fraction

from .combinatorics import IntegerPartition
from .records import FrozenRecord

#: k value meaning "theta t / log theta -> infinity" (still log-theta speed).
K_INFINITE = math.inf
#: k value meaning the sub-logarithmic regime (speed theta * t(theta)).
K_SUBLOG = Fraction(0)

SPEED_LOG_THETA = "logθ"
SPEED_THETA_T = "θ·t(θ)"


class RateFunctionResult(FrozenRecord):
    _fields = ("speed", "value")


def rate_function(n: int, eta: IntegerPartition, k) -> RateFunctionResult:
    """Rate function of the transient sampling LDP at time scale k log(theta)/theta.

    k = K_SUBLOG (0) selects the sub-logarithmic regime with speed theta*t;
    k = inf (or any k >= 2) gives I = n - l.
    """
    if eta.n != n:
        raise ValueError("|eta| = %d does not match n = %d" % (eta.n, n))
    n_minus_l = Fraction(n - eta.l)
    n_minus_a1 = Fraction(n - eta.alpha_1)
    if k == K_INFINITE:
        return RateFunctionResult(SPEED_LOG_THETA, n_minus_l)
    if k < 0:  # -inf included
        raise ValueError("k must be >= 0, got %s" % (k,))
    k = Fraction(k)
    if k == K_SUBLOG:
        return RateFunctionResult(SPEED_THETA_T, n_minus_a1 / 2)
    # The kink sits at k* = 2 - 2 (l - alpha_1) / (n - alpha_1), below 2.
    return RateFunctionResult(SPEED_LOG_THETA, min(n_minus_a1 * k / 2, n_minus_l))
