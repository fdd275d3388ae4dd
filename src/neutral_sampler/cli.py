"""Command-line front end: machine-first JSON/CSV output for every operation.

Exit codes: 0 success, 1 failed verification, 2 usage/parse errors,
3 cap or precision violations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .combinatorics import IntegerPartition
from .config import SLOPE_SCAN_PRECISION_BITS, load_config
from .sampling import (
    CapExceededError,
    FrequencyVector,
    check_digits,
    parse_rational,
    rational,
    sampling_probability,
)

EXIT_CAP = 3

#: The suites of `verify --suite` besides "all", sorted: verify.SUITES's
#: names, written out so that no other command imports verify.
SUITE_NAMES = ("consistency", "normalization", "oracle", "orthogonality",
               "rate-function", "transient")

#: Most points a theta grid may have; a longer grid exits 3.
MAX_THETA_GRID_POINTS = 64


def _check_grid_length(count: int):
    if count > MAX_THETA_GRID_POINTS:
        raise CapExceededError("theta grid has more than %d points"
                               % MAX_THETA_GRID_POINTS)


def parse_theta_grid(text: str) -> list[Fraction]:
    """Either a comma list of thetas or "lo:hi:log" for decade steps, with
    at most MAX_THETA_GRID_POINTS points.  A log grid's point count is
    checked before the digits of its bounds."""
    if ":" in text:
        fields = text.split(":")
        if len(fields) != 3:
            raise ValueError("a log grid is lo:hi:log, got %r" % text)
        lo_text, hi_text, kind = fields
        if kind != "log":
            raise ValueError("only log-spaced grids are supported, got %r" % kind)
        lo, hi = rational(lo_text), rational(hi_text)
        if lo <= 0 or hi <= 0:
            raise ValueError("log grid bounds must be positive, got %r" % text)
        if lo > hi:
            raise ValueError("log grid runs from lo to hi, got lo > hi in %r" % text)
        grid = []
        v = lo
        while v <= hi:
            grid.append(v)
            _check_grid_length(len(grid))
            v *= 10
        check_digits(lo_text, lo)
        check_digits(hi_text, hi)
        return grid
    tokens = text.split(",")
    _check_grid_length(len(tokens))
    return [parse_rational(tok) for tok in tokens]


def parse_regime(text: str):
    from .asymptotics import RegimeSpec
    kind, _, param = text.partition(":")
    if kind == "proportional":
        return RegimeSpec.proportional(parse_rational(param))
    if kind == "logarithmic":
        return RegimeSpec.logarithmic(parse_rational(param))
    if kind == "sublog":
        return RegimeSpec.sublog()
    raise ValueError("unknown regime %r (proportional:C, logarithmic:K, sublog)" % text)


def fmt_float(value, precision_bits: int) -> str:
    import mpmath
    if isinstance(value, Fraction):
        value = mpmath.mpf(value.numerator) / value.denominator
    return mpmath.nstr(value, int(precision_bits * 0.30103) + 2)


def exact(field: str, value: Fraction) -> str:
    """str(value) for an exact output field; one too long to print exits 3."""
    return str(check_digits(field, value, CapExceededError))


def check_size(size: int, what: str, cfg):
    """Refuse a request larger than the configured max_n (exit 3)."""
    if size > cfg.max_n:
        raise CapExceededError("%s = %d exceeds max_n = %d" % (what, size, cfg.max_n))


def _out_error(out: str, exc: OSError) -> ValueError:
    return ValueError("cannot write --out %r: %s" % (out, exc.strerror))


def check_out(out: str):
    """Refuse an --out that cannot be opened for writing (exit 2) before any
    computation runs; a file this check creates is removed again."""
    created = not os.path.exists(out)
    try:
        open(out, "a").close()
    except OSError as exc:
        raise _out_error(out, exc) from None
    if created:
        os.remove(out)


def emit(payload, rows=None, header=None, fmt="json", out=None):
    try:
        stream = open(out, "w", newline="") if out else sys.stdout
    except OSError as exc:
        raise _out_error(out, exc) from None
    try:
        if fmt == "csv":
            import csv
            writer = csv.writer(stream)
            writer.writerow(header)
            writer.writerows(rows)
        else:
            json.dump(payload, stream, separators=(",", ":"))
            stream.write("\n")
    finally:
        if out:
            stream.close()


def cmd_sample_prob(args, cfg):
    eta = IntegerPartition.parse(args.eta)
    x = FrequencyVector.parse(args.x)
    check_size(eta.n, "|eta|", cfg)
    p = sampling_probability(eta, x)
    emit({
        "eta": eta.to_json(),
        "x": x.to_json(),
        "dust": exact("dust", x.dust),
        "p_exact": exact("p_exact", p),
        "p_float": float(p),
    }, fmt="json", out=args.out)


def cmd_moment(args, cfg):
    from .moments import check_min_part, mixed_power_sum_moment
    eta = IntegerPartition.parse(args.eta)
    xi = IntegerPartition.parse(args.xi or "")
    theta = parse_rational(args.theta)
    check_size(eta.n + xi.n, "|eta| + |xi|", cfg)
    for label, name in ((eta, "eta"), (xi, "xi")):
        if label.parts:
            check_min_part(label, name)
    value = mixed_power_sum_moment(eta, xi, theta)
    emit({"eta": eta.to_json(), "xi": args.xi, "theta": str(theta),
          "value": exact("value", value)}, fmt="json", out=args.out)


def cmd_basis(args, cfg):
    from .basis import build_basis
    theta = parse_rational(args.theta)
    check_size(args.max_size, "--max-size", cfg)
    basis = build_basis(args.max_size, theta)
    for el in basis:
        for value in (el.norm2, *el.coeffs.values()):
            exact("basis element %s" % el.label, value)
    emit([el.to_json() for el in basis], fmt="json", out=args.out)


def cmd_transient(args, cfg):
    import mpmath
    from .transient import get_evaluator
    eta = IntegerPartition.parse(args.eta)
    x = FrequencyVector.parse(args.x)
    theta = parse_rational(args.theta)
    prec = cfg.precision_bits
    check_size(eta.n, "|eta|", cfg)
    ev = get_evaluator(theta, prec)
    try:
        t = mpmath.mpf(args.t)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % args.t) from None
    stationary = exact("stationary_value", ev.stationary_sampling_probability(eta))
    t0 = exact("t0_value", sampling_probability(eta, x))
    value = ev.sampling_probability(eta, x, t)
    emit({
        "eta": eta.to_json(),
        "theta": str(theta),
        "t": args.t,
        "value": fmt_float(value, prec),
        "precision_bits": prec,
        "stationary_value": stationary,
        "t0_value": t0,
    }, fmt="json", out=args.out)


def cmd_weak_limit_scan(args, cfg):
    from .asymptotics import moment_limit_scan
    omega = IntegerPartition.parse(args.omega)
    x = FrequencyVector.parse(args.x)
    regime = parse_regime(args.regime)
    prec = cfg.precision_bits
    check_size(omega.n, "|omega|", cfg)
    rows = moment_limit_scan(
        omega, x, regime, parse_theta_grid(args.theta_grid), prec)
    table = [[exact("theta", r.theta), fmt_float(r.computed, prec),
              fmt_float(r.predicted, prec), fmt_float(r.error, prec)]
             for r in rows]
    header = ["theta", "computed", "predicted", "error"]
    emit([dict(zip(header, row)) for row in table], rows=table, header=header,
         fmt=cfg.output_format, out=args.out)


def cmd_lemma41_scan(args, cfg):
    from .asymptotics import lemma41_order_scan
    eta = IntegerPartition.parse(args.eta)
    xi = IntegerPartition.parse(args.xi) if args.xi is not None else None
    grid = parse_theta_grid(args.theta_grid)
    check_size(eta.n + (xi.n if xi is not None else 0), "|eta| + |xi|", cfg)
    table = [[exact("theta", row.theta), "%.6f" % row.measured_exponent,
              "%.6f" % float(row.constant_ratio)]
             for row in lemma41_order_scan(eta, xi, grid)]
    header = ["theta", "measured_exponent", "constant_ratio"]
    emit([dict(zip(header, row)) for row in table], rows=table, header=header,
         fmt=cfg.output_format, out=args.out)


def cmd_rate_function(args, cfg):
    from .rates import rate_function
    eta = IntegerPartition.parse(args.eta)
    k = math.inf if args.k == "inf" else parse_rational(args.k)
    result = rate_function(args.n, eta, k)
    emit({"speed": result.speed, "I": exact("I", result.value)}, fmt="json",
         out=args.out)


def cmd_ldp_scan(args, cfg):
    from .asymptotics import ldp_slope_scan
    from .rates import rate_function
    eta = IntegerPartition.parse(args.eta)
    x = FrequencyVector.parse(args.x)
    k = parse_rational(args.k)
    prec = cfg.precision_bits
    check_size(args.n, "n", cfg)
    target = rate_function(args.n, eta, k)
    rows = ldp_slope_scan(
        args.n, eta, k, parse_theta_grid(args.theta_grid), x, prec)
    table = []
    for r in rows:
        if r.underflow:
            table.append([exact("theta", r.theta), "underflow", "", ""])
        else:
            table.append([exact("theta", r.theta), fmt_float(r.probability, prec),
                          fmt_float(r.slope, prec), fmt_float(r.abs_error, prec)])
    header = ["theta", "P", "s", "abs_error"]
    emit({"I": exact("I", target.value), "speed": target.speed,
          "rows": [dict(zip(header, row)) for row in table]},
         rows=table, header=header, fmt=cfg.output_format, out=args.out)


def cmd_verify(args, cfg):
    from .verify import run_suite
    if args.max_size is not None:
        check_size(args.max_size, "--max-size", cfg)
    theta = parse_rational(args.theta) if args.theta is not None else None
    failures = 0
    for label, ok, detail in run_suite(args.suite, max_size=args.max_size,
                                       theta=theta):
        if not ok:
            failures += 1
            print("FAIL %s: %s" % (label, detail))
    if failures:
        return 1
    print("ok: suite %r passed" % args.suite)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neutral-sampler",
        description="Exact sampling probabilities under the neutral diffusion",
    )
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--precision", type=int, help="precision bits override")
    parser.add_argument("--format", choices=("json", "csv"), dest="output_format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-prob", help="exact stationary-free p_eta(x)")
    p.add_argument("--eta", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample_prob)

    p = sub.add_parser("moment", help="exact PD(theta) power-sum moments")
    p.add_argument("--eta", required=True)
    p.add_argument("--xi")
    p.add_argument("--theta", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("basis", help="dump the orthogonal basis")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("transient", help="transient sampling probability")
    p.add_argument("--eta", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--t", required=True, help='time, or "inf" for stationary')
    p.add_argument("--out")
    p.set_defaults(func=cmd_transient)

    p = sub.add_parser("weak-limit-scan", help="transient moments vs weak limit")
    p.add_argument("--omega", required=True, help="parts >= 2, e.g. 3,2")
    p.add_argument("--x", required=True)
    p.add_argument("--regime", required=True)
    p.add_argument("--theta-grid", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_weak_limit_scan)

    p = sub.add_parser("lemma41-scan", help="measured theta-orders of inner products")
    p.add_argument("--eta", required=True)
    p.add_argument("--xi")
    p.add_argument("--theta-grid", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lemma41_scan)

    p = sub.add_parser("rate-function", help="LDP rate function value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--k", required=True, help='rational, "inf", or 0 for sublog')
    p.add_argument("--out")
    p.set_defaults(func=cmd_rate_function)

    p = sub.add_parser("ldp-scan", help="rate-function slope scan")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--theta-grid", required=True)
    p.add_argument("--x", default="1/2,1/3,1/6")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ldp_scan)

    p = sub.add_parser("verify", help="run an exact invariant suite")
    p.add_argument("--suite", default="all",
                   choices=SUITE_NAMES + ("all",))
    p.add_argument("--max-size", type=int,
                   help="size bound for every suite run (default: each suite's own)")
    p.add_argument("--theta", help="theta of the orthogonality suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    defaults = ({"precision_bits": SLOPE_SCAN_PRECISION_BITS}
                if args.func is cmd_ldp_scan else None)
    try:
        cfg = load_config(args.config, {
            "precision_bits": args.precision,
            "output_format": args.output_format,
        }, defaults)
    except OSError as exc:
        print("error: cannot read --config %r: %s" % (args.config, exc.strerror),
              file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    try:
        if getattr(args, "out", None):
            check_out(args.out)
        rc = args.func(args, cfg)
    except CapExceededError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        parser.exit(2, "error: %s\n" % exc)
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
