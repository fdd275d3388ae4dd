"""Small-time weak limits and leading-order inner-product estimates,
together with the scan machinery that confronts these predictions and the
rate functions of `rates` with exact finite-theta values.

The Lemma 4.1 scan is exact, so mpmath and the float layer (`transient`) are
imported only inside the functions that compute times or float values.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from math import factorial
from typing import Optional

from .combinatorics import EMPTY, IntegerPartition
from .config import DEFAULT_PRECISION_BITS, SLOPE_SCAN_PRECISION_BITS
from .moments import check_min_part, check_theta, ewens_prefactor, power_sum_moment
from .rates import K_SUBLOG, rate_function
from .records import FrozenRecord
from .sampling import FrequencyVector, power_sum_product

class RegimeKind(Enum):
    PROPORTIONAL = "proportional"  # t = c / theta
    LOGARITHMIC = "logarithmic"    # t = k log(theta) / theta
    SUBLOG = "sublog"              # theta t -> inf, theta t / log theta -> 0


class RegimeSpec(FrozenRecord):
    """One of the paper's small-time scales: its time t(theta), the thetas
    on which that is a time, and the weak limit of the diffusion there."""

    _fields = ("kind", "parameter")

    def __init__(self, kind: RegimeKind, parameter: Optional[Fraction] = None):
        if kind in (RegimeKind.PROPORTIONAL, RegimeKind.LOGARITHMIC):
            if parameter is None or Fraction(parameter) <= 0:
                raise ValueError("%s regime needs a positive parameter" % kind.value)
            parameter = Fraction(parameter)
        self._freeze(kind, parameter)

    @classmethod
    def proportional(cls, c) -> "RegimeSpec":
        return cls(RegimeKind.PROPORTIONAL, Fraction(c))

    @classmethod
    def logarithmic(cls, k) -> "RegimeSpec":
        return cls(RegimeKind.LOGARITHMIC, Fraction(k))

    @classmethod
    def sublog(cls) -> "RegimeSpec":
        return cls(RegimeKind.SUBLOG)

    def check_theta(self, theta) -> Fraction:
        """theta, if t(theta) is a time t >= 0: theta > 0 for c/theta, >= 1
        for k log(theta)/theta, > e for the sublog family."""
        theta = Fraction(theta)
        if self.kind is RegimeKind.PROPORTIONAL:
            ok, domain = theta > 0, "theta > 0"
        elif self.kind is RegimeKind.LOGARITHMIC:
            ok, domain = theta >= 1, "theta >= 1"
        else:
            ok, domain = theta > math.e, "theta > e"
        if not ok:
            raise ValueError("%s regime needs %s, got theta=%s"
                             % (self.kind.value, domain, theta))
        return theta

    def time_at(self, theta, precision_bits: int = DEFAULT_PRECISION_BITS):
        return self._time_and_log(theta, precision_bits)[0]

    def _time_and_log(self, theta, precision_bits: int):
        """(t(theta), log theta), the log None for c/theta, which takes none."""
        import mpmath
        from .transient import _to_mpf
        theta = self.check_theta(theta)
        with mpmath.workprec(precision_bits):
            th = _to_mpf(theta)
            if self.kind is RegimeKind.PROPORTIONAL:
                return _to_mpf(self.parameter) / th, None
            log_theta = mpmath.log(th)
            if self.kind is RegimeKind.LOGARITHMIC:
                return _to_mpf(self.parameter) * log_theta / th, log_theta
            # Sublog: the concrete family log(theta) / (theta loglog(theta)).
            return log_theta / (th * mpmath.log(log_theta)), log_theta

    def limit_moment(self, omega: IntegerPartition, x: FrequencyVector,
                     precision_bits: int = DEFAULT_PRECISION_BITS):
        """phi_omega at the weak limit from x: e^{-c|omega|/2} phi_omega(x)
        at t = c/theta (the limit is e^{-c/2} x), else pure dust, exactly."""
        if self.kind is not RegimeKind.PROPORTIONAL:
            return power_sum_product(omega, FrequencyVector(()))
        import mpmath
        from .transient import _to_mpf
        exact = power_sum_product(omega, x)
        with mpmath.workprec(precision_bits):
            return _to_mpf(exact) * mpmath.exp(
                _to_mpf(-self.parameter / 2) * omega.n)


class MomentScanRow(FrozenRecord):
    _fields = ("theta", "computed", "predicted", "error")


def moment_limit_scan(
    omega: IntegerPartition,
    x: FrequencyVector,
    regime: RegimeSpec,
    theta_grid,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> list[MomentScanRow]:
    """Exact transient moments along a theta grid against the predicted
    limit; the grid and omega are checked before any point is computed."""
    import mpmath
    from .transient import _to_mpf, get_evaluator
    thetas = [regime.check_theta(theta) for theta in theta_grid]
    if omega != EMPTY:
        check_min_part(omega, "omega")
    predicted = regime.limit_moment(omega, x, precision_bits)
    rows = []
    for theta in thetas:
        t = regime.time_at(theta, precision_bits)
        computed = get_evaluator(theta, precision_bits).moment(omega, x, t)
        with mpmath.workprec(precision_bits):
            err = abs(_to_mpf(computed) - _to_mpf(predicted))
        rows.append(MomentScanRow(theta, computed, predicted, err))
    return rows


def lemma41_leading_term(eta: IntegerPartition, xi: Optional[IntegerPartition],
                         theta) -> Fraction:
    """Predicted leading order of <phi_eta, 1> (xi empty) or <phi_eta, psi_xi>."""
    theta = check_theta(theta)
    check_min_part(eta, "eta")
    if xi is None or xi == EMPTY:
        return ewens_prefactor(eta) * theta ** -(eta.n - eta.l)
    check_min_part(xi, "xi")
    bracket = Fraction(0)
    for a in eta.parts:
        for b in xi.parts:
            bracket += Fraction(factorial(a + b - 1),
                                factorial(a - 1) * factorial(b - 1))
    bracket -= eta.n * xi.n
    pre = ewens_prefactor(eta) * ewens_prefactor(xi)
    return bracket * pre * theta ** -(eta.n - eta.l + xi.n - xi.l + 1)


def exact_inner(eta: IntegerPartition, xi: Optional[IntegerPartition],
                theta) -> Fraction:
    """<phi_eta, 1> or <phi_eta, psi_xi^theta>, exactly."""
    theta = check_theta(theta)
    if xi is None or xi == EMPTY:
        return power_sum_moment(eta, theta)
    check_min_part(xi, "xi")
    # Imported here, at the module's one use of psi, so that the scans that
    # need none do not load the basis.
    from .basis import basis_element, inner_product
    psi = basis_element(xi.n, theta, xi)
    return inner_product({eta: Fraction(1)}, psi.coeffs, theta)


class OrderScanRow(FrozenRecord):
    _fields = ("theta", "measured_exponent", "constant_ratio")


def lemma41_order_scan(eta: IntegerPartition, xi: Optional[IntegerPartition],
                       thetas) -> list[OrderScanRow]:
    """For exact v at each theta, the measured theta-exponent
    -log2(v(2 theta)/v(theta)) and the constant ratio v(theta) over the
    predicted leading term (reported, not asserted for nonempty xi: the
    normalization of the printed recursion is ambiguous); eta and the thetas
    checked first.  The exponent is None where v(theta) = 0, and inf where
    only v(2 theta) is."""
    thetas = [check_theta(theta) for theta in thetas]
    check_min_part(eta, "eta")
    rows = []
    for theta in thetas:
        v1 = exact_inner(eta, xi, theta)
        v2 = exact_inner(eta, xi, 2 * theta)
        if v1 == 0 or v2 == 0:
            measured = math.inf if v1 else None
        else:
            ratio = abs(Fraction(v2, v1))
            # math.log2 takes arbitrary-size ints, so no overflow here.
            measured = -(math.log2(ratio.numerator) - math.log2(ratio.denominator))
        rows.append(OrderScanRow(
            theta, measured, v1 / lemma41_leading_term(eta, xi, theta)))
    return rows


class SlopeScanRow(FrozenRecord):
    _fields = ("theta", "probability", "slope", "abs_error", "underflow")


def ldp_slope_scan(
    n: int,
    eta: IntegerPartition,
    k,
    theta_grid,
    x: FrequencyVector,
    precision_bits: int = SLOPE_SCAN_PRECISION_BITS,
) -> list[SlopeScanRow]:
    """s(theta) = -log P_n^theta(eta) / log theta along the grid, against
    the rate-function prediction, for theta > 1, all checked before any
    point; underflowing rows are flagged, not faked."""
    import mpmath
    from .transient import _to_mpf, get_evaluator
    if isinstance(k, float) and not math.isfinite(k):  # no time t(theta) at k = inf
        raise ValueError("the slope scan needs a finite k, got k=%s" % k)
    target = rate_function(n, eta, k)
    regime = RegimeSpec.sublog() if Fraction(k) == K_SUBLOG \
        else RegimeSpec.logarithmic(k)
    thetas = [Fraction(theta) for theta in theta_grid]
    for theta in thetas:
        if theta <= 1:  # the speed log(theta) is 0 at 1 and negative below
            raise ValueError("the slope scan needs theta > 1, got theta=%s" % theta)
    thetas = [regime.check_theta(theta) for theta in thetas]
    rows = []
    for theta in thetas:
        # The speed is log theta, not theta t / k: that moves the last bit
        # of 1 slope in 5.
        t, speed = regime._time_and_log(theta, precision_bits)
        p = get_evaluator(theta, precision_bits).sampling_probability(eta, x, t)
        with mpmath.workprec(precision_bits):
            if p <= 0:
                rows.append(SlopeScanRow(theta, p, None, None, True))
                continue
            if regime.kind is RegimeKind.SUBLOG:
                speed = _to_mpf(theta) * t
            s = -mpmath.log(p) / speed
            err = abs(s - _to_mpf(target.value))
        rows.append(SlopeScanRow(theta, p, s, err, False))
    return rows
