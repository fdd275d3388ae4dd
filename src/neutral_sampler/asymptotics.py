"""Small-time weak limits and leading-order inner-product estimates,
together with the scan machinery that confronts these predictions and the
rate functions of `rates` with exact finite-theta values.

The Lemma 4.1 scan is exact, so mpmath and the float layer (`transient`) are
imported only inside the functions that compute times or float values: raw
mpmath.libmp operations rounded to nearest, log theta kept by the evaluator.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from math import factorial
from typing import Optional

from .combinatorics import EMPTY, IntegerPartition
from .config import DEFAULT_PRECISION_BITS, SLOPE_SCAN_PRECISION_BITS, check_precision
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
        import mpmath
        return mpmath.mp.make_mpf(self._time_and_speed(theta, precision_bits)[0])

    def _time_and_speed(self, theta, prec: int):
        """(t(theta), the slope's speed) as raw mpf values: the speed is
        log theta, theta t on the sublog family and None for c/theta."""
        from mpmath.libmp import mpf_div, mpf_log, mpf_mul, round_nearest as rnd
        from .transient import _raw_mpf, get_evaluator
        theta, prec = self.check_theta(theta), check_precision(prec)
        th = _raw_mpf(theta, prec)
        if self.kind is RegimeKind.PROPORTIONAL:
            return mpf_div(_raw_mpf(self.parameter, prec), th, prec, rnd), None
        log_theta = get_evaluator(theta, prec)._log_theta()
        if self.kind is RegimeKind.LOGARITHMIC:
            k_log = mpf_mul(_raw_mpf(self.parameter, prec), log_theta, prec, rnd)
            return mpf_div(k_log, th, prec, rnd), log_theta
        # Sublog: the concrete family log(theta) / (theta loglog(theta)).
        t = mpf_div(log_theta, mpf_mul(th, mpf_log(log_theta, prec, rnd), prec, rnd),
                    prec, rnd)
        return t, mpf_mul(th, t, prec, rnd)

    def limit_moment(self, omega: IntegerPartition, x: FrequencyVector,
                     precision_bits: int = DEFAULT_PRECISION_BITS):
        """phi_omega at the weak limit from x: e^{-c|omega|/2} phi_omega(x)
        at t = c/theta (the limit is e^{-c/2} x), else pure dust, exactly."""
        if self.kind is not RegimeKind.PROPORTIONAL:
            return power_sum_product(omega, FrequencyVector(()))
        import mpmath
        from mpmath.libmp import mpf_exp, mpf_mul, mpf_mul_int, round_nearest as rnd
        from .transient import _raw_mpf
        prec = precision_bits
        rate = mpf_mul_int(_raw_mpf(-self.parameter / 2, prec), omega.n, prec, rnd)
        return mpmath.mp.make_mpf(mpf_mul(_raw_mpf(power_sum_product(omega, x), prec),
                                          mpf_exp(rate, prec, rnd), prec, rnd))


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
    from mpmath.libmp import mpf_abs, mpf_sub, round_nearest as rnd
    from .transient import _raw_mpf, get_evaluator
    thetas = [regime.check_theta(theta) for theta in theta_grid]
    if omega != EMPTY:
        check_min_part(omega, "omega")
    prec = precision_bits
    predicted = regime.limit_moment(omega, x, prec)
    rows = []
    for theta in thetas:
        t = regime.time_at(theta, prec)
        computed = get_evaluator(theta, prec).moment(omega, x, t)
        err = mpf_abs(mpf_sub(_raw_mpf(computed, prec), _raw_mpf(predicted, prec),
                              prec, rnd), prec, rnd)
        rows.append(MomentScanRow(theta, computed, predicted, mpmath.mp.make_mpf(err)))
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
    from mpmath.libmp import mpf_abs, mpf_div, mpf_log, mpf_neg, mpf_sub, round_nearest as rnd
    from .transient import _raw_mpf, get_evaluator
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
    prec = precision_bits
    rows = []
    for theta in thetas:
        # The speed is log theta, not theta t / k: that moves the last bit
        # of 1 slope in 5.
        t, speed = regime._time_and_speed(theta, prec)
        p = get_evaluator(theta, prec).sampling_probability(eta, x, mpmath.mp.make_mpf(t))
        if p <= 0:
            rows.append(SlopeScanRow(theta, p, None, None, True))
            continue
        s = mpf_div(mpf_neg(mpf_log(p._mpf_, prec, rnd)), speed, prec, rnd)
        err = mpf_abs(mpf_sub(s, _raw_mpf(target.value, prec), prec, rnd), prec, rnd)
        rows.append(SlopeScanRow(theta, p, mpmath.mp.make_mpf(s), mpmath.mp.make_mpf(err), False))
    return rows
