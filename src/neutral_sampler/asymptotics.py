"""Small-time weak limits, leading-order inner-product estimates and the
large-deviation rate functions with their phase transition, together with
the scan machinery that confronts predictions with exact finite-theta values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Optional

import mpmath

from .basis import basis_element, inner_product
from .combinatorics import EMPTY, IntegerPartition
from .moments import check_theta, power_sum_moment
from .sampling import FrequencyVector, power_sum_product
from .transient import DEFAULT_PRECISION_BITS, _to_mpf, get_evaluator

#: k value meaning "theta t / log theta -> infinity" (still log-theta speed).
K_INFINITE = math.inf
#: k value meaning the sub-logarithmic regime (speed theta * t(theta)).
K_SUBLOG = Fraction(0)


#: Entries in the cache of log(theta), one per (theta, precision): room for
#: a 64-point theta grid at two precisions.
LOG_THETA_CACHE_SIZE = 128


@lru_cache(maxsize=LOG_THETA_CACHE_SIZE)
def _log_theta(theta: Fraction, precision_bits: int) -> mpmath.mpf:
    """log(theta) at `precision_bits`, shared by RegimeSpec.time_at and the
    speed of ldp_slope_scan."""
    with mpmath.workprec(precision_bits):
        return mpmath.log(_to_mpf(theta))


class ClassificationError(ValueError):
    """The time-scale family cannot be classified by its theta*t limit."""


class RegimeKind(Enum):
    PROPORTIONAL = "proportional"  # t = c / theta
    LOGARITHMIC = "logarithmic"    # t = k log(theta) / theta
    SUBLOG = "sublog"              # theta t -> inf, theta t / log theta -> 0
    CUSTOM = "custom"


@dataclass(frozen=True)
class RegimeSpec:
    """A small-time scale family t(theta) with its classification parameter."""

    kind: RegimeKind
    parameter: Optional[Fraction] = None
    t_func: Optional[Callable] = None
    custom_theta_t_limit: Optional[object] = None

    def __post_init__(self):
        if self.kind in (RegimeKind.PROPORTIONAL, RegimeKind.LOGARITHMIC):
            if self.parameter is None or Fraction(self.parameter) <= 0:
                raise ValueError("%s regime needs a positive parameter" % self.kind.value)
            object.__setattr__(self, "parameter", Fraction(self.parameter))
        if self.kind is RegimeKind.CUSTOM and self.t_func is None:
            raise ValueError("custom regime needs a t(theta) function")

    @classmethod
    def proportional(cls, c) -> "RegimeSpec":
        return cls(RegimeKind.PROPORTIONAL, Fraction(c))

    @classmethod
    def logarithmic(cls, k) -> "RegimeSpec":
        return cls(RegimeKind.LOGARITHMIC, Fraction(k))

    @classmethod
    def sublog(cls) -> "RegimeSpec":
        return cls(RegimeKind.SUBLOG)

    def time_at(self, theta, precision_bits: int = DEFAULT_PRECISION_BITS):
        theta = check_theta(theta)
        with mpmath.workprec(precision_bits):
            th = _to_mpf(theta)
            if self.kind is RegimeKind.PROPORTIONAL:
                return _to_mpf(self.parameter) / th
            if self.kind is RegimeKind.LOGARITHMIC:
                return _to_mpf(self.parameter) * _log_theta(theta, precision_bits) / th
            if self.kind is RegimeKind.SUBLOG:
                # Default concrete family: log(theta) / (theta loglog(theta)).
                if theta <= math.e:
                    raise ValueError("sublog family needs theta > e")
                log_theta = _log_theta(theta, precision_bits)
                return log_theta / (th * mpmath.log(log_theta))
            return mpmath.mpf(self.t_func(theta))

    def theta_t_limit(self):
        """lim theta t(theta): a positive Fraction, 0 or math.inf."""
        if self.kind is RegimeKind.PROPORTIONAL:
            return self.parameter
        if self.kind in (RegimeKind.LOGARITHMIC, RegimeKind.SUBLOG):
            return math.inf
        if self.custom_theta_t_limit is None:
            raise ClassificationError("custom regime with undeclared theta*t limit")
        return self.custom_theta_t_limit


@dataclass(frozen=True)
class LimitPoint:
    """Weak-limit point exp(log_scale) * base, kept exact via homogeneity:
    phi_omega at the point is e^{|omega| log_scale} phi_omega(base)."""

    base: FrequencyVector
    log_scale: Fraction = Fraction(0)

    def moment(self, omega: IntegerPartition,
               precision_bits: int = DEFAULT_PRECISION_BITS):
        exact = power_sum_product(omega, self.base)
        if self.log_scale == 0:
            return exact
        with mpmath.workprec(precision_bits):
            return _to_mpf(exact) * mpmath.exp(_to_mpf(self.log_scale) * omega.n)

    def atoms(self, precision_bits: int = DEFAULT_PRECISION_BITS):
        with mpmath.workprec(precision_bits):
            scale = mpmath.exp(_to_mpf(self.log_scale))
            return tuple(_to_mpf(a) * scale for a in self.base.atoms)


def weak_limit_point(x: FrequencyVector, regime: RegimeSpec) -> LimitPoint:
    """The weak-limit point of the diffusion started at x under the regime."""
    limit = regime.theta_t_limit()
    if isinstance(limit, float) and math.isinf(limit):
        return LimitPoint(FrequencyVector(()))  # pure dust
    if limit == 0:
        return LimitPoint(x)
    return LimitPoint(x, log_scale=-Fraction(limit) / 2)


@dataclass(frozen=True)
class MomentScanRow:
    theta: Fraction
    computed: object
    predicted: object
    error: object


def moment_limit_scan(
    omega: IntegerPartition,
    x: FrequencyVector,
    regime: RegimeSpec,
    theta_grid,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> list[MomentScanRow]:
    """Exact transient moments along a theta grid against the predicted limit."""
    limit_point = weak_limit_point(x, regime)
    predicted = limit_point.moment(omega, precision_bits)
    rows = []
    for theta in theta_grid:
        theta = check_theta(theta)
        t = regime.time_at(theta, precision_bits)
        computed = get_evaluator(theta, precision_bits).moment(omega, x, t)
        with mpmath.workprec(precision_bits):
            err = abs(_to_mpf(computed) - _to_mpf(predicted))
        rows.append(MomentScanRow(theta, computed, predicted, err))
    return rows


def _prefactorials(eta: IntegerPartition) -> int:
    out = 1
    for p in eta.parts:
        out *= factorial(p - 1)
    return out


def lemma41_leading_term(eta: IntegerPartition, xi: Optional[IntegerPartition],
                         theta) -> Fraction:
    """Predicted leading order of <phi_eta, 1> (xi empty) or <phi_eta, psi_xi>."""
    theta = check_theta(theta)
    if eta.min_part < 2:
        raise ValueError("eta needs parts >= 2, got %s" % (eta,))
    if xi is None or xi == EMPTY:
        return Fraction(_prefactorials(eta)) * theta ** -(eta.n - eta.l)
    if xi.min_part < 2:
        raise ValueError("xi needs parts >= 2, got %s" % (xi,))
    bracket = Fraction(0)
    for a in eta.parts:
        for b in xi.parts:
            bracket += Fraction(factorial(a + b - 1),
                                factorial(a - 1) * factorial(b - 1))
    bracket -= eta.n * xi.n
    pre = Fraction(_prefactorials(eta) * _prefactorials(xi))
    return bracket * pre * theta ** -(eta.n - eta.l + xi.n - xi.l + 1)


def exact_inner(eta: IntegerPartition, xi: Optional[IntegerPartition],
                theta) -> Fraction:
    """<phi_eta, 1> or <phi_eta, psi_xi^theta>, exactly."""
    theta = check_theta(theta)
    if xi is None or xi == EMPTY:
        return power_sum_moment(eta, theta)
    psi = basis_element(xi.n, theta, xi)
    return inner_product({eta: Fraction(1)}, psi.coeffs, theta)


@dataclass(frozen=True)
class OrderScanRow:
    theta: Fraction
    theta2: Fraction
    measured_exponent: float


def lemma41_order_scan(eta: IntegerPartition, xi: Optional[IntegerPartition],
                       theta_pairs) -> list[OrderScanRow]:
    """Measured theta-exponent -log2(v(2 theta)/v(theta)) for exact v."""
    rows = []
    for th1, th2 in theta_pairs:
        th1, th2 = Fraction(th1), Fraction(th2)
        if th2 != 2 * th1:
            raise ValueError("theta pairs must be (theta, 2*theta)")
        v1 = exact_inner(eta, xi, th1)
        v2 = exact_inner(eta, xi, th2)
        if v1 == 0 or v2 == 0:
            raise ValueError("inner product vanished; no slope at theta=%s" % th1)
        ratio = abs(Fraction(v2, v1))
        # math.log2 takes arbitrary-size ints, so no overflow here.
        measured = -(math.log2(ratio.numerator) - math.log2(ratio.denominator))
        rows.append(OrderScanRow(th1, th2, measured))
    return rows


def lemma41_constant_ratio(eta: IntegerPartition, xi: Optional[IntegerPartition],
                           theta) -> Fraction:
    """Exact value divided by the predicted leading term (reported, not asserted
    for nonempty xi: the normalization of the printed recursion is ambiguous)."""
    return exact_inner(eta, xi, theta) / lemma41_leading_term(eta, xi, theta)


SPEED_LOG_THETA = "logθ"
SPEED_THETA_T = "θ·t(θ)"


@dataclass(frozen=True)
class RateFunctionResult:
    speed: str
    value: Fraction


def rate_function(n: int, eta: IntegerPartition, k) -> RateFunctionResult:
    """Rate function of the transient sampling LDP at time scale k log(theta)/theta.

    k = K_SUBLOG (0) selects the sub-logarithmic regime with speed theta*t;
    k = inf (or any k >= 2) gives I = n - l.
    """
    if eta.n != n:
        raise ValueError("|eta| = %d does not match n = %d" % (eta.n, n))
    n_minus_l = Fraction(n - eta.l)
    n_minus_a1 = Fraction(n - eta.alpha_1)
    if isinstance(k, float) and math.isinf(k):
        return RateFunctionResult(SPEED_LOG_THETA, n_minus_l)
    k = Fraction(k)
    if k < 0:
        raise ValueError("k must be >= 0, got %s" % (k,))
    if k == K_SUBLOG:
        return RateFunctionResult(SPEED_THETA_T, n_minus_a1 / 2)
    if eta.alpha_1 == eta.l:  # eta = (1,...,1)
        return RateFunctionResult(SPEED_LOG_THETA, Fraction(0))
    if k >= 2:
        return RateFunctionResult(SPEED_LOG_THETA, n_minus_l)
    density = n_minus_a1 / (eta.l - eta.alpha_1)
    if density > Fraction(2, 1) / (2 - k):
        return RateFunctionResult(SPEED_LOG_THETA, n_minus_a1 * k / 2)
    return RateFunctionResult(SPEED_LOG_THETA, n_minus_l)


@dataclass(frozen=True)
class SlopeScanRow:
    theta: Fraction
    probability: object
    slope: object
    abs_error: object
    underflow: bool


def ldp_slope_scan(
    n: int,
    eta: IntegerPartition,
    k,
    theta_grid,
    x: FrequencyVector,
    precision_bits: int = 512,
) -> list[SlopeScanRow]:
    """s(theta) = -log P_n^theta(eta) / log theta along the grid, against
    the rate-function prediction; underflowing rows are flagged, not faked."""
    target = rate_function(n, eta, k)
    regime = RegimeSpec.sublog() if Fraction(k) == K_SUBLOG \
        else RegimeSpec.logarithmic(k)
    rows = []
    for theta in theta_grid:
        theta = check_theta(theta)
        t = regime.time_at(theta, precision_bits)
        p = get_evaluator(theta, precision_bits).sampling_probability(eta, x, t)
        with mpmath.workprec(precision_bits):
            if p <= 0:
                rows.append(SlopeScanRow(theta, p, None, None, True))
                continue
            if regime.kind is RegimeKind.SUBLOG:
                speed = _to_mpf(theta) * t
            else:
                speed = _log_theta(theta, precision_bits)
            s = -mpmath.log(p) / speed
            err = abs(s - _to_mpf(target.value))
        rows.append(SlopeScanRow(theta, p, s, err, False))
    return rows
