"""Output checks: invariants that hold on any seed, and committed digests of
round 0 at the default seed.

Exact values (Fractions) must match exactly; float values must agree to
`DIGITS` significant digits.  Every check returns the indices of the
requests it failed, so each mismatch counts in failed_ratio.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from fractions import Fraction

import mpmath

DIGITS = 30
PREC = 400
ZERO_EXPONENT = 40
DEFAULT_SEED = 1
DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
EXACT = re.compile(r"-?\d+(/\d+)?")
DECIMAL = re.compile(r"-?\d*\.?\d+([eE][-+]?\d+)?")
#: Brute-force oracle comparisons per t0 round, on requests with n <= 8 whose
#: enumeration stays small.
ORACLE_PER_ROUND = 6
ORACLE_MAX_LEAVES = 3000


def parse_value(text: str):
    """A Fraction for an exact value ("p/q" or an integer), else an mpf."""
    if EXACT.fullmatch(text):
        return Fraction(text)
    return mpmath.mpf(text)


def to_mpf(value):
    """An mpf from a Fraction, an mpf or an output string; call it inside
    `mpmath.workprec(PREC)`."""
    if isinstance(value, str):
        value = parse_value(value)
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpf(value)


def close(a, b, digits: int = DIGITS) -> bool:
    """a and b agree to `digits` significant digits of the larger, where
    magnitudes below 10^-ZERO_EXPONENT count as zero (an exact zero comes
    back from the float combine as rounding noise)."""
    with mpmath.workprec(PREC):
        a, b = to_mpf(a), to_mpf(b)
        scale = max(abs(a), abs(b), mpmath.mpf(10) ** -ZERO_EXPONENT)
        return abs(a - b) <= mpmath.mpf(10) ** -digits * scale


def ewens(parts: tuple[int, ...], theta: Fraction) -> Fraction:
    """Ewens sampling formula: n!/theta_(n) prod_j (theta/j)^a_j / a_j!."""
    n = sum(parts)
    rising = Fraction(1)
    for i in range(n):
        rising *= theta + i
    value = Fraction(math.factorial(n)) / rising
    for j in set(parts):
        a = parts.count(j)
        value *= (theta / j) ** a / math.factorial(a)
    return value


def rate_min_form(parts: tuple[int, ...], k: Fraction) -> Fraction:
    """The LDP rate in min-form: 0 for (1,..,1), else min((n-a1)k/2, n-l)."""
    n, l, a1 = sum(parts), len(parts), parts.count(1)
    if a1 == l:
        return Fraction(0)
    return min(Fraction(n - a1) * k / 2, Fraction(n - l))


def parts_of(text: str) -> tuple[int, ...]:
    return tuple(sorted((int(p) for p in text.split(",")), reverse=True)) if text else ()


# -- per-workload invariants ----------------------------------------------
# Each takes records [(round, request, output)] and the seed.

def check_t0(records, seed):
    """Each (round, n, x) distribution sums to exactly 1, and a seeded
    subset with n <= 8 equals the brute-force oracle."""
    from neutral_sampler.combinatorics import IntegerPartition, multinomial_constant
    from neutral_sampler.sampling import FrequencyVector, monomial_sampler_bruteforce

    failed = set()
    groups: dict = {}
    candidates: dict = {}
    for i, (rnd, req, out) in enumerate(records):
        parts = parts_of(req["eta"])
        groups.setdefault((rnd, sum(parts), req["x"]), []).append(i)
        atoms = len(req["x"].split(",")) if req["x"] else 0
        if sum(parts) <= 8 and (atoms + 1) ** len(parts) <= ORACLE_MAX_LEAVES:
            candidates.setdefault(rnd, []).append(i)
    for members in groups.values():
        values = [records[i][2] for i in members]
        if None in values or sum(map(Fraction, values)) != 1:
            failed.update(members)
    for rnd, pool in candidates.items():
        rng = random.Random("oracle/%d/%d" % (seed, rnd))
        for i in rng.sample(pool, min(ORACLE_PER_ROUND, len(pool))):
            req, out = records[i][1], records[i][2]
            eta = IntegerPartition.parse(req["eta"])
            x = FrequencyVector.parse(req["x"])
            want = multinomial_constant(eta) * monomial_sampler_bruteforce(eta, x)
            if out is None or Fraction(out) != want:
                failed.add(i)
    return failed


def check_transient(records, seed):
    """t = inf is the exact Ewens value, t = 0 matches sampling_probability
    and every t sums to 1 over eta, both to DIGITS digits."""
    import neutral_sampler as ns
    from neutral_sampler.combinatorics import IntegerPartition
    from neutral_sampler.sampling import FrequencyVector

    failed = set()
    groups: dict = {}
    for i, (rnd, req, out) in enumerate(records):
        parts = parts_of(req["eta"])
        groups.setdefault((rnd, req["theta"], sum(parts), req["x"], req["t"]), []).append(i)
        if out is None:
            failed.add(i)
        elif req["t"] == "inf":
            if parse_value(out) != ewens(parts, Fraction(req["theta"])):
                failed.add(i)
        elif req["t"] == "0":
            exact = ns.sampling_probability(IntegerPartition.parse(req["eta"]),
                                            FrequencyVector.parse(req["x"]))
            if not close(out, exact):
                failed.add(i)
    with mpmath.workprec(PREC):
        for members in groups.values():
            values = [records[i][2] for i in members]
            if None in values or not close(mpmath.fsum(map(to_mpf, values)), 1):
                failed.update(members)
    return failed


def check_ldp(records, seed):
    """Slope rows: 0 < P <= 1, s = -log P / log theta and abs_error = |s - I|
    for the min-form rate I; weak-limit rows: predicted 0 (the pure-dust
    limit) and error = |computed| <= 1.  Rows flagged underflow are counted
    by the trace, not failed."""
    failed = set()
    with mpmath.workprec(PREC):
        tol = mpmath.mpf(10) ** -DIGITS
        for i, (rnd, req, out) in enumerate(records):
            if out is None or len(out) != 1:
                failed.add(i)
                continue
            if req["op"] == "ldp":
                theta, p, s, err, underflow = out[0]
                if underflow:
                    continue
                p, s, err = to_mpf(p), to_mpf(s), to_mpf(err)
                want_s = -mpmath.log(p) / mpmath.log(to_mpf(theta))
                target = to_mpf(rate_min_form(parts_of(req["eta"]), Fraction(req["k"])))
                scale = tol * max(1, abs(s))
                ok = (0 < p <= 1 + tol and abs(s - want_s) <= scale
                      and abs(err - abs(s - target)) <= scale)
            else:
                theta, computed, predicted, err = out[0]
                computed = to_mpf(computed)
                ok = predicted == "0" and abs(computed) <= 1 and close(err, abs(computed))
            if not ok:
                failed.add(i)
    return failed


def check_cli(records, seed):
    """Each command exits 0; verify reports its suite passed, every other
    command prints JSON that parses."""
    return {i for i, (rnd, req, out) in enumerate(records)
            if out is None or out["rc"] != 0 or cli_payload(req, out) is None}


def cli_payload(req, out):
    """The parsed JSON a command printed, or verify's "ok" line; None if
    neither is there."""
    if req["argv"][0] == "verify":
        return out["stdout"] if out["stdout"].startswith("ok: suite") else None
    try:
        return json.loads(out["stdout"])
    except ValueError:
        return None


CHECKS = {
    "t0_distribution": check_t0,
    "transient_grid": check_transient,
    "ldp_theta_scan": check_ldp,
    "cli_mix": check_cli,
}


# -- digests ----------------------------------------------------------------

def request_key(req: dict) -> str:
    return json.dumps(req, sort_keys=True, separators=(",", ":"))


def digest_output(req, out):
    """What a digest stores for one output: CLI commands keep their payload."""
    return cli_payload(req, out) if req["op"] == "cli" else out


def significant_digits(text: str) -> int:
    mantissa = text.lower().split("e")[0]
    return len(mantissa.lstrip("-+0.").replace(".", "")) or 1


def same(ref, got, digits: int = DIGITS) -> bool:
    """Exact strings equal; decimal strings agree to min(digits, their own
    significant digits - 1); JSON floats to 12 digits."""
    if isinstance(ref, list):
        return isinstance(got, list) and len(ref) == len(got) and all(
            same(a, b, digits) for a, b in zip(ref, got))
    if isinstance(ref, dict):
        return isinstance(got, dict) and ref.keys() == got.keys() and all(
            same(ref[k], got[k], digits) for k in ref)
    if isinstance(ref, float):
        return isinstance(got, (int, float)) and close(got, ref, 12)
    if isinstance(ref, str) and isinstance(got, str) and ref != got:
        if not DECIMAL.fullmatch(ref) or not DECIMAL.fullmatch(got):
            return False
        return close(got, ref, min(digits, significant_digits(ref) - 1))
    return ref == got


def load_digests() -> dict:
    with open(DIGEST_FILE) as fh:
        return json.load(fh)


def check_digests(workload, records, digests) -> set:
    table = digests.get(workload, {})
    return {i for i, (rnd, req, out) in enumerate(records)
            if request_key(req) in table
            and (out is None or not same(table[request_key(req)], digest_output(req, out)))}
