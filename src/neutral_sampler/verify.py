"""Batch verification suites: every algebraic identity the library rests on,
checked in exact arithmetic.  Used by the CLI `verify` subcommand."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain

from .basis import build_basis, inner_product
from .combinatorics import enumerate_partitions
from .moments import eigen_coefficients
from .rates import rate_function
from .sampling import (
    BRUTEFORCE_MAX_N,
    CapExceededError,
    FrequencyVector,
    consistency_check,
    monomial_sampler_bruteforce,
    monomial_sampler_expansion,
    random_frequency_vector,
    removal_children,
    sampler_expansion,
    sampling_probability,
)

#: The suites' fixed inputs: the seed of their random vectors, how many the
#: oracle suite draws, the k of the rate-function suite, and the thetas and
#: vectors (the last pure dust) of the transient suite.
SEED, ORACLE_VECTORS = 20260824, 20
RATE_FUNCTION_KS = tuple(Fraction(k, 4) for k in (1, 2, 4, 6, 7))
TRANSIENT_THETAS = (Fraction(1, 2), Fraction(1), Fraction(29, 3))
TRANSIENT_VECTORS = ("1/2,1/3,1/6", "2/7,1/5", "")


def orthogonality_suite(max_size: int = 6, thetas=(Fraction(1, 2), 1, 10)):
    for theta in map(Fraction, thetas):
        basis = build_basis(max_size, theta)
        for i, a in enumerate(basis):
            for b in basis[i + 1:]:
                ip = inner_product(a.coeffs, b.coeffs, theta)
                yield ("orthogonality <psi_%s, psi_%s> theta=%s" % (a.label, b.label, theta),
                       ip == 0, str(ip))


def oracle_suite(max_size: int = 6):
    rng = random.Random(SEED)
    xs = [random_frequency_vector(rng, max_atoms=8) for _ in range(ORACLE_VECTORS)]
    for n in range(1, max_size + 1):
        for eta in enumerate_partitions(n):
            for j, x in enumerate(xs):
                lhs = monomial_sampler_expansion(eta, x)
                rhs = monomial_sampler_bruteforce(eta, x)
                yield ("oracle eta=%s vector#%d" % (eta, j), lhs == rhs,
                       "%s vs %s" % (lhs, rhs))


def normalization_suite(max_size: int = 6):
    rng = random.Random(SEED)
    xs = [
        FrequencyVector.parse("1/2,1/3,1/6"),
        random_frequency_vector(rng, max_atoms=6),
        random_frequency_vector(rng, max_atoms=6, with_dust=True),
        FrequencyVector(()),  # pure dust
    ]
    for n in range(1, max_size + 1):
        for x in xs:
            total = sum(
                (sampling_probability(eta, x) for eta in enumerate_partitions(n)),
                Fraction(0),
            )
            yield ("normalization n=%d x=(%s) dust=%s" % (n, x, x.dust), total == 1,
                   str(total))


def consistency_suite(max_size: int = 6):
    rng = random.Random(SEED)
    xs = [random_frequency_vector(rng, max_atoms=6) for _ in range(4)]
    xs.append(random_frequency_vector(rng, max_atoms=6, with_dust=True))
    for n in range(2, max_size + 1):
        for j, x in enumerate(xs):
            ok, residuals = consistency_check(n, x)
            worst = max(abs(r) for r in residuals.values())
            yield ("consistency n=%d vector#%d" % (n, j), ok, "max residual %s" % worst)


def rate_function_suite(max_size: int = 8):
    for n in range(2, max_size + 1):
        for eta in enumerate_partitions(n):
            for k in RATE_FUNCTION_KS:
                got = rate_function(n, eta, k).value
                want = min(Fraction(n - eta.alpha_1) * k / 2, Fraction(n - eta.l))
                yield ("rate-function n=%d eta=(%s) k=%s" % (n, eta, k), got == want,
                       "%s vs min-form %s" % (got, want))
            # Exact branch agreement at the kink k*, which lies in (0, 2)
            # exactly when alpha_1 < l < n.
            if eta.alpha_1 < eta.l < eta.n:
                k_star = 2 - Fraction(2 * (eta.l - eta.alpha_1), n - eta.alpha_1)
                kinked = Fraction(n - eta.alpha_1) * k_star / 2
                flat = Fraction(n - eta.l)
                yield (
                    "rate-function boundary eta=(%s) k*=%s" % (eta, k_star),
                    kinked == flat == rate_function(n, eta, k_star).value,
                    "%s vs %s" % (kinked, flat),
                )


def _eigen_row(label: str, got: dict, want: dict):
    """The row checking that `got`, zeros dropped, equals `want` ({m: C_m})."""
    got = {m: v for m, v in got.items() if v}

    def show(coeffs):
        return ", ".join("C[%d]=%s" % mc for mc in sorted(coeffs.items()))
    return label, got == want, "%s vs %s" % (show(got), show(want))


def transient_suite(max_size: int = 6):
    """The exact eigen-coefficients C_eta[m] of the transient sampling
    probabilities, one eigen-index m at a time (the e^{-lambda_m t} are
    linearly independent): over eta of n they sum to [m = 0], and
    sum_eta w(eta -> xi) C_eta[m] = C_xi[m] with removal_children's weights."""
    for theta in TRANSIENT_THETAS:
        for x in map(FrequencyVector.parse, TRANSIENT_VECTORS):
            where = "theta=%s x=(%s)" % (theta, x)
            prev: dict = {}
            for n in range(1, max_size + 1):
                coeffs = {eta: eigen_coefficients(theta, sampler_expansion(eta), x)
                          for eta in enumerate_partitions(n)}
                total: dict = {}
                children: dict = {xi: {} for xi in prev}
                for eta, c in coeffs.items():
                    for m, v in c.items():
                        total[m] = total.get(m, 0) + v
                    for xi, w in removal_children(eta) if prev else ():
                        for m, v in c.items():
                            children[xi][m] = children[xi].get(m, 0) + w * v
                yield _eigen_row("transient sum n=%d %s" % (n, where), total, {0: 1})
                for xi, want in prev.items():
                    yield _eigen_row("transient consistency xi=(%s) %s" % (xi, where),
                                     children[xi], want)
                prev = coeffs


#: Each suite and its smallest size bound, the least that yields a check.
SUITES = {
    "orthogonality": (orthogonality_suite, 2),
    "oracle": (oracle_suite, 1),
    "normalization": (normalization_suite, 1),
    "consistency": (consistency_suite, 2),
    "rate-function": (rate_function_suite, 2),
    "transient": (transient_suite, 1),
}


def run_suite(name: str, max_size: int | None = None, theta=None):
    """(label, ok, detail) rows for one suite or, with "all", every suite.

    max_size bounds the sizes of every suite run; each keeps its own default
    when it is None.  theta replaces the thetas of the orthogonality suite,
    the only one with a theta.  Arguments a suite cannot take raise
    ValueError before any row is computed, and so does a max_size beyond the
    brute-force oracle's cap for the oracle suite (CapExceededError).
    """
    if name != "all" and name not in SUITES:
        raise KeyError("unknown suite %r; choose from %s or 'all'"
                       % (name, sorted(SUITES)))
    names = list(SUITES) if name == "all" else [name]
    if theta is not None and names != ["orthogonality"]:
        raise ValueError("theta applies only to the orthogonality suite, not %r"
                         % name)
    kwargs = {}
    if max_size is not None:
        for suite_name in names:
            least = SUITES[suite_name][1]
            if max_size < least:
                raise ValueError("max size %d is below %d, the least the %s suite "
                                 "takes" % (max_size, least, suite_name))
        if "oracle" in names and max_size > BRUTEFORCE_MAX_N:
            raise CapExceededError("max size %d exceeds cap %d of the oracle suite's "
                                   "brute-force oracle" % (max_size, BRUTEFORCE_MAX_N))
        kwargs["max_size"] = max_size
    if theta is not None:
        kwargs["thetas"] = (Fraction(theta),)
    return chain.from_iterable(SUITES[n][0](**kwargs) for n in names)
