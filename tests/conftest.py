"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: partition counts come
from the Euler recurrence, Bell/Stirling numbers from their triangles,
set-partition sums list every set partition instead of recursing on the
multiset of parts, power sums add Fraction powers atom by atom instead of
summing integers over a common denominator, the brute-force sampler visits
every tuple of distinct atoms in Fractions instead of summing each (slot, used
atoms) state once in integers, eigen-coefficients come from the Gram-Schmidt
basis (by projection with inner products, or from the rows of the Gram
factorization) or from the generator's action on power-sum monomials, solved
label by label over the sampler's power-sum expansion, instead of the
recursion on sampling functions, that power-sum recursion also runs in
Fractions, dividing at every level, instead of in integers over one common
denominator, the float combine converts every coefficient,
eigenvalue and time afresh on each call instead of once per evaluator and sums
by mpmath.fdot instead of on raw mpf tuples, the scan times, weak limits,
slopes and errors run on mpf objects inside mpmath.workprec instead of on raw
mpf tuples with one log theta per evaluator, the multinomial constant divides
by the factorials of the multiplicity vector alpha instead of multiplying the
run counts of equal parts, the Ewens moment of a monomial sampler divides
Fraction powers of theta by the rising factorial, a product of Fractions,
instead of forming one quotient of integers, lambda_m is a Fraction instead of
one rounded quotient of theta's integers, and expected rationals are
recomputed from first principles where frozen.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import mpmath
import pytest
from hypothesis import strategies as st

from neutral_sampler.asymptotics import RegimeKind, RegimeSpec
from neutral_sampler.basis import build_basis, inner_product
from neutral_sampler.combinatorics import (
    IntegerPartition,
    enumerate_set_partitions,
    multinomial_constant,
)
from neutral_sampler.moments import eigen_coefficients
from neutral_sampler.rates import K_SUBLOG, rate_function
from neutral_sampler.sampling import (
    FrequencyVector,
    _power_sum_table,
    expansion_of_monomial_sampler,
    expansion_of_power_sum,
    power_sum_product,
)
from neutral_sampler.transient import get_evaluator


def rising_factorial(theta, n: int) -> Fraction:
    """theta_(n) = theta (theta+1) ... (theta+n-1) as a product of Fractions;
    1 for n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0, got %r" % (n,))
    theta = Fraction(theta)
    return prod((theta + i for i in range(n)), start=Fraction(1))


def eigenvalue(m: int, theta) -> Fraction:
    """lambda_m = m (m - 1 + theta) / 2 for m >= 2."""
    if m < 2:
        raise ValueError("the spectral expansion starts at m = 2, got %r" % (m,))
    return Fraction(m) * (m - 1 + Fraction(theta)) / 2


@lru_cache(maxsize=None)
def partition_count(n: int, max_part: int | None = None) -> int:
    """p(n) by direct recursion on the largest part."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    return sum(partition_count(n - k, k) for k in range(1, min(n, max_part) + 1))


@lru_cache(maxsize=None)
def stirling2(l: int, d: int) -> int:
    if d == 0:
        return 1 if l == 0 else 0
    if l == 0 or d > l:
        return 0
    return d * stirling2(l - 1, d) + stirling2(l - 1, d - 1)


def bell(l: int) -> int:
    return sum(stirling2(l, d) for d in range(l + 1))


def coarsenings(parts: tuple[int, ...]):
    """Yield (set partition, block sums) for every set partition of the
    positions of `parts`: Bell(len(parts)) of them."""
    l = len(parts)
    for d in range(1, l + 1):
        for beta in enumerate_set_partitions(l, d):
            yield beta, tuple(sum(parts[i - 1] for i in b) for b in beta)


def bell_expansion(eta: IntegerPartition) -> dict[IntegerPartition, Fraction]:
    """p^o_eta over phi-monomials by the Moebius-weighted Bell sum, with
    block sums equal to 1 dropped (phi_1 == 1) and zero terms removed."""
    if not eta.parts:
        return {eta: Fraction(1)}
    coeffs: dict[IntegerPartition, Fraction] = {}
    for beta, sums in coarsenings(eta.parts):
        weight = Fraction((-1) ** (eta.l - len(beta)))
        for b in beta:
            weight *= factorial(len(b) - 1)
        key = IntegerPartition.of(*(s for s in sums if s >= 2))
        coeffs[key] = coeffs.get(key, Fraction(0)) + weight
    return {k: v for k, v in coeffs.items() if v != 0}


def bell_power_sum_moment(eta: IntegerPartition, theta) -> Fraction:
    """<phi_eta, 1>_theta as the Bell sum of the Ewens moments of every
    set-partition coarsening of the parts (all parts >= 2)."""
    theta = Fraction(theta)
    total = Fraction(0)
    for beta, sums in coarsenings(eta.parts):
        term = theta**len(beta)
        for s in sums:
            term *= factorial(s - 1)
        total += term
    return total / rising_factorial(theta, eta.n)


def alpha_multinomial_constant(eta: IntegerPartition) -> int:
    """n! / (eta_1! ... eta_l! alpha_1! ... alpha_n!) from the multiplicity
    vector alpha."""
    denom = 1
    for p in eta.parts:
        denom *= factorial(p)
    for a in eta.alpha:
        denom *= factorial(a)
    return factorial(eta.n) // denom


def ratio_esf_monomial_moment(eta: IntegerPartition, theta) -> Fraction:
    """prod_i (eta_i - 1)! theta^l / theta_(n) in Fraction arithmetic."""
    theta = Fraction(theta)
    prefactor = 1
    for p in eta.parts:
        prefactor *= factorial(p - 1)
    return prefactor * theta**eta.l / rising_factorial(theta, eta.n)


def atom_power_sum_product(eta: IntegerPartition, x: FrequencyVector) -> Fraction:
    """phi_eta(x) as a product of per-atom Fraction power sums, with
    phi_1 == 1."""
    out = Fraction(1)
    for p in eta.parts:
        if p > 1:
            out *= sum((a**p for a in x.atoms), Fraction(0))
    return out


def tuple_walk_sampler(eta: IntegerPartition, x: FrequencyVector) -> Fraction:
    """p^o_eta(x) summed over every tuple of distinct atom indices, one
    Fraction product per leaf; singleton slots may also draw the dust."""
    atoms, dust, parts = x.atoms, x.dust, eta.parts

    def walk(slot: int, used: int) -> Fraction:
        if slot == len(parts):
            return Fraction(1)
        p = parts[slot]
        total = Fraction(0)
        for i, a in enumerate(atoms):
            if not used >> i & 1:
                total += a**p * walk(slot + 1, used | (1 << i))
        if p == 1 and dust > 0:
            total += dust * walk(slot + 1, used)
        return total

    return walk(0, 0)


def evaluate_coeff_map(coeffs, x: FrequencyVector) -> Fraction:
    """sum_xi c_xi phi_xi(x), every term from one power-sum table of x."""
    n = max((xi.n for xi in coeffs), default=0)
    d_powers, sums = _power_sum_table(x, n)
    total = Fraction(0)
    for xi, c in coeffs.items():
        value = d_powers[n - xi.n]
        for p in xi.parts:
            value *= sums[p]
        total += c * value
    return total / d_powers[n]


def projection_eigen_coefficients(f, x: FrequencyVector, theta) -> dict[int, Fraction]:
    """{m: C_m} of f = sum c_xi phi_xi by projecting f on each psi_j.

    Gram-Schmidt makes psi_j orthogonal to every phi_a before it in the
    canonical order, so each psi_j is projected on the labels of f at or
    after position j only, and the psi past the last label of f are
    skipped."""
    rest = dict(f)
    out: dict[int, Fraction] = {}
    for psi in build_basis(max(2, max(xi.n for xi in rest)), theta):
        if not rest:
            break
        c = inner_product(rest, psi.coeffs, theta) / psi.norm2
        rest.pop(psi.label, None)
        if c == 0:
            continue
        m = psi.label.n
        value = c if m == 0 else c * evaluate_coeff_map(psi.coeffs, x)
        out[m] = out.get(m, Fraction(0)) + value
    return {m: v for m, v in out.items() if v != 0}


def row_eigen_coefficients(f, x: FrequencyVector, theta) -> dict[int, Fraction]:
    """{m: C_m} of f = sum c_xi phi_xi from the rows of L instead of inner
    products: the psi_j coordinate of f is sum_xi c_xi L[xi][j], and psi_j
    is evaluated atom by atom."""
    basis = build_basis(max(2, max(xi.n for xi, _ in f)), theta)
    rows = {psi.label: psi.row for psi in basis}
    out: dict[int, Fraction] = {}
    for j, psi in enumerate(basis):
        c = sum((v * rows[xi][j] for xi, v in f if j < len(rows[xi])), Fraction(0))
        if c == 0:
            continue
        m = psi.label.n
        if m:
            c *= sum((v * atom_power_sum_product(k, x) for k, v in psi.coeffs.items()),
                     Fraction(0))
        out[m] = out.get(m, Fraction(0)) + c
    return {m: v for m, v in out.items() if v != 0}


def label_coefficients(label: IntegerPartition, x: FrequencyVector,
                       theta) -> tuple[Fraction, ...]:
    """(A[0], ..., A[n]) with E_x phi_label(X_t) = sum_m A[m] e^{-lambda_m t}
    and lambda_0 = 0; A[1] = 0, since no label has size 1.  Not an oracle:
    the library's own coefficients, from the sampler recursion over the
    label's coarsenings, zeros kept, for comparison with the oracles."""
    coeffs = eigen_coefficients(Fraction(theta), expansion_of_power_sum(label.parts), x)
    return tuple(coeffs.get(m, Fraction(0)) for m in range(label.n + 1))


# The power-sum route: the sampler expanded over power sums, and the
# generator's action on power-sum monomials solved label by label.

def sampler_expansion(eta: IntegerPartition) -> tuple[tuple[IntegerPartition, int], ...]:
    """p_eta = multinomial_constant(eta) p^o_eta over power-sum monomials
    with parts >= 2: the pairs of expansion_of_monomial_sampler, each scaled
    by the constant, with their parts 1 dropped (phi_1 == 1)."""
    const = multinomial_constant(eta)
    return tuple((IntegerPartition(tuple(p for p in xi if p > 1)), const * c)
                 for xi, c in expansion_of_monomial_sampler(eta))


@lru_cache(maxsize=None)
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
    return tuple((IntegerPartition(k), w) for k, w in weights.items())


@lru_cache(maxsize=None)
def power_sum_level(p: int, q: int, n: int) -> tuple[int, int, tuple[int, ...]]:
    """(L_n, H_n, (2q L_n / d(n, m))_{m < n}) at theta = p/q, with
    d(n, m) = (n - m)(q(n + m - 1) + p) and the factor 0 at m = 1."""
    if n < 2:
        return 1, 1, (0,) * n
    gaps = [(n - m) * (q * (n + m - 1) + p) if m != 1 else 0 for m in range(n)]
    l_n = prod(g for g in gaps if g)
    factors = tuple(2 * q * l_n // g if g else 0 for g in gaps)
    return l_n, power_sum_level(p, q, n - 1)[1] * l_n, factors


@lru_cache(maxsize=None)
def label_numerators(p: int, q: int, label: IntegerPartition,
                     table: tuple[int, tuple[int, ...]]) -> tuple[int, ...]:
    """(N[0], ..., N[n]) with E_x phi_label(X_t) = N[m] / (D^n H_n) at
    theta = p/q on the vector whose integer form is (D, weights), by the
    generator's action on power-sum monomials: a child of size s adds
    c D^{n-s} (H_{n-1} / H_s) N_child[m], which 2q L_n / d(n, m) turns into
    N[m] for m < n, and N[n] makes the terms sum to phi_label(x) at t = 0."""
    n = label.n
    if n == 0:
        return (1,)
    d, weights = table
    near, far = [0] * n, [0] * n  # children of size n - 1 and n - 2
    for child, c in generator_children(label):
        acc = near if child.n == n - 1 else far
        for m, a in enumerate(label_numerators(p, q, child, table)):
            acc[m] += c * a
    _, h_n, factors = power_sum_level(p, q, n)
    far_scale = d * power_sum_level(p, q, n - 1)[0]
    out = [f * d * (a + far_scale * b) for f, a, b in zip(factors, near, far)]
    top = h_n
    for part in label.parts:
        top *= sum(w**part for w in weights)
    out.append(top - sum(out))
    return tuple(out)


def power_sum_eigen_coefficients(theta, f, x: FrequencyVector) -> dict[int, Fraction]:
    """{m: C_m} of E_x f(X_t) for f = sum c_xi phi_xi, power-sum labels of
    any sizes with integer c_xi, each label's numerators over its own
    D^|xi| H_|xi|, summed in Fractions."""
    theta = Fraction(theta)
    p, q, table = theta.numerator, theta.denominator, x.integer_form
    out: dict[int, Fraction] = {}
    for xi, c in f:
        den = table[0] ** xi.n * power_sum_level(p, q, xi.n)[1]
        for m, a in enumerate(label_numerators(p, q, xi, table)):
            out[m] = out.get(m, Fraction(0)) + Fraction(c * a, den)
    return {m: v for m, v in out.items() if v}


@lru_cache(maxsize=4096)
def fraction_label_coefficients(label: IntegerPartition, x: FrequencyVector,
                                theta: Fraction) -> tuple[Fraction, ...]:
    """(A[0], ..., A[n]) with E_x phi_label(X_t) = sum_m A[m] e^{-lambda_m t},
    by the generator recursion in Fractions: for m < n,
    A[m] = sum_zeta c A_zeta[m] / (lambda_n - lambda_m) over the children,
    with lambda_n - lambda_m = (n - m)(n + m - 1 + theta) / 2, and A[n] makes
    the coefficients sum to phi_label(x), taken atom by atom."""
    n = label.n
    if n == 0:
        return (Fraction(1),)
    out = [Fraction(0)] * (n + 1)
    for child, c in generator_children(label):
        for m, a in enumerate(fraction_label_coefficients(child, x, theta)):
            if a:
                out[m] += c * a
    for m in range(n):
        if out[m]:
            out[m] = 2 * out[m] / ((n - m) * (n + m - 1 + theta))
    out[n] = atom_power_sum_product(label, x) - sum(out[:n])
    return tuple(out)


def direct_combine(eigen: dict[int, Fraction], theta, t, bits: int) -> mpmath.mpf:
    """sum_m C_m e^{-lambda_m t} at `bits` by mpmath.fdot, with
    lambda_m = m (m - 1 + theta) / 2: every Fraction (by mpmath.fdiv of its
    numerator and denominator), lambda_m and t is rounded to nearest and every
    exponential computed on each call, and the exact products are summed with
    one rounding."""
    def to_mpf(q):
        if isinstance(q, Fraction):
            return mpmath.fdiv(q.numerator, q.denominator)
        return mpmath.mpf(q)

    with mpmath.workprec(bits):
        tval = to_mpf(t)
        terms = sorted(eigen.items())
        decays = [mpmath.exp(-to_mpf(Fraction(m) * (m - 1 + theta) / 2) * tval)
                  if m >= 2 else 1 for m, _ in terms]
        return mpmath.fdot([to_mpf(c) for _, c in terms], decays)


def _workprec_mpf(q) -> mpmath.mpf:
    """q rounded once to nearest at the working precision."""
    if isinstance(q, (int, Fraction)):
        return mpmath.fdiv(q.numerator, q.denominator)
    return +q


def workprec_time_and_log(regime, theta, bits: int):
    """(t(theta), log theta) of a RegimeSpec by mpf arithmetic in
    mpmath.workprec(bits), the log None for c/theta."""
    with mpmath.workprec(bits):
        th = _workprec_mpf(Fraction(theta))
        if regime.kind is RegimeKind.PROPORTIONAL:
            return _workprec_mpf(regime.parameter) / th, None
        log_theta = mpmath.log(th)
        if regime.kind is RegimeKind.LOGARITHMIC:
            return _workprec_mpf(regime.parameter) * log_theta / th, log_theta
        return log_theta / (th * mpmath.log(log_theta)), log_theta


def workprec_moment_limit_rows(omega, x, regime, grid, bits: int) -> list:
    """(theta, computed, predicted, error) per grid point, the prediction
    e^{-c|omega|/2} phi_omega(x) at c/theta (else pure dust) and the error
    by mpf arithmetic in mpmath.workprec(bits); the moment from the shared
    evaluator."""
    if regime.kind is RegimeKind.PROPORTIONAL:
        with mpmath.workprec(bits):
            predicted = _workprec_mpf(power_sum_product(omega, x)) * mpmath.exp(
                _workprec_mpf(-regime.parameter / 2) * omega.n)
    else:
        predicted = power_sum_product(omega, FrequencyVector(()))
    rows = []
    for theta in grid:
        t, _ = workprec_time_and_log(regime, theta, bits)
        computed = get_evaluator(theta, bits).moment(omega, x, t)
        with mpmath.workprec(bits):
            error = abs(_workprec_mpf(computed) - _workprec_mpf(predicted))
        rows.append((theta, computed, predicted, error))
    return rows


def workprec_slope_rows(n: int, eta, k, grid, x, bits: int) -> list:
    """(theta, P, slope, error, underflow) per grid point: the slope
    -log P / log theta (-log P / (theta t) at k = 0) and its error against
    the rate function by mpf arithmetic in mpmath.workprec(bits); P from
    the shared evaluator."""
    target = rate_function(n, eta, k)
    sublog = Fraction(k) == K_SUBLOG
    regime = RegimeSpec.sublog() if sublog else RegimeSpec.logarithmic(k)
    rows = []
    for theta in grid:
        t, speed = workprec_time_and_log(regime, theta, bits)
        p = get_evaluator(theta, bits).sampling_probability(eta, x, t)
        with mpmath.workprec(bits):
            if p <= 0:
                rows.append((theta, p, None, None, True))
                continue
            if sublog:
                speed = _workprec_mpf(Fraction(theta)) * t
            s = -mpmath.log(p) / speed
            rows.append((theta, p, s, abs(s - _workprec_mpf(target.value)), False))
    return rows


#: theta for the properties: small p/q, a non-integer with a larger
#: denominator, and the top of the slope-scan grid.
thetas = st.one_of(
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)),
    st.just(Fraction(37, 4)),
    st.just(Fraction(10**8)),
)


@st.composite
def coprime_vectors(draw):
    """Up to five atoms with independent denominators, so that their lcm
    mixes coprime factors; with dust, without (the rest of the mass becomes
    one more atom), or pure dust."""
    raw = draw(st.lists(st.fractions(Fraction(1, 97), Fraction(1, 2),
                                     max_denominator=97), max_size=5))
    atoms, mass = [], Fraction(0)
    for a in raw:
        if mass + a <= 1:
            atoms.append(a)
            mass += a
    if atoms and mass < 1 and not draw(st.booleans()):
        atoms.append(1 - mass)
    return FrequencyVector.of(*atoms)


@pytest.fixture
def x_full() -> FrequencyVector:
    return FrequencyVector.parse("1/2,1/3,1/6")


@pytest.fixture
def x_dusty() -> FrequencyVector:
    return FrequencyVector.parse("1/2,1/4")  # dust 1/4


@pytest.fixture
def x_point() -> FrequencyVector:
    return FrequencyVector.parse("1")


@pytest.fixture
def x_pure_dust() -> FrequencyVector:
    return FrequencyVector(())
