"""Sampling probabilities p_eta(x) on the closed infinite simplex.

Two independent routes are kept side by side: a brute-force direct sum over
injective maps from sample slots to atoms, walked once per (slot, set of used
atoms) state in integers over a common denominator of the atoms (exponential
in the number of atoms, capped), and the alternating set-partition expansion
in power sums (the continuous extension, with the phi_1 == 1 convention),
summed by a recursion on the multiset of parts and evaluated as one integer
sum over the same common denominator.  The walk shares no code with the
expansion.
Singleton sample slots may draw from the dust mass 1 - sum(atoms); each
dust draw is automatically a fresh type.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .combinatorics import (
    IntegerPartition,
    coarsening_weights,
    enumerate_partitions,
    multinomial_constant,
)
from .records import FrozenRecord

#: Caps of the brute-force oracle, whose walk is exponential in the atoms.
BRUTEFORCE_MAX_N = 8
BRUTEFORCE_MAX_ATOMS = 10


class CapExceededError(ValueError):
    """The brute-force oracle was asked for more than its configured caps."""


def parse_rational(text: str) -> Fraction:
    """A finite rational such as 1/3, 0.25 or 1e6; inf and nan are rejected,
    and so is one with more digits than can be printed (check_digits)."""
    return check_digits(text, rational(text))


#: Largest decimal exponent a rational may be written with, so that building
#: one takes at most about 0.2 s (1e10000000 would take 12 s).
MAX_EXPONENT = 10**6


def rational(text: str) -> Fraction:
    """The Fraction that `text` denotes, its digits unchecked; an exponent
    beyond MAX_EXPONENT is refused before the value is built."""
    _, e, exponent = text.lower().partition("e")
    try:
        huge = bool(e) and abs(int(exponent)) > MAX_EXPONENT
    except ValueError:  # no exponent after all; Fraction names the error
        huge = False
    if huge:
        raise ValueError("exponent of %r is beyond %d" % (text, MAX_EXPONENT))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def check_digits(text: str, value: Fraction, error=ValueError) -> Fraction:
    """`value`, parsed from `text` or named by it, unless its numerator or
    denominator has more decimal digits than Python converts to a string
    (sys.get_int_max_str_digits(), 4300 by default), so that the CLI, which
    prints its rationals, could not print it; then `error` is raised."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    big = max(abs(value.numerator), value.denominator)
    # A number of b bits is below 2^b, which is at most 10^limit while
    # b <= 3.32 limit (log2(10) > 3.32); so 10^limit, about 60 us to build,
    # is built only for a number near the limit.
    if limit and big.bit_length() > 3.32 * limit and big >= 10**limit:
        raise error("%r is too long: a numerator or denominator may have "
                    "at most %d digits" % (text, limit))
    return value


class FrequencyVector(FrozenRecord):
    """Finitely many ranked atoms plus a dust mass making up total mass 1."""

    _fields = ("atoms",)

    def __init__(self, atoms: tuple[Fraction, ...]):
        atoms = tuple(Fraction(a) for a in atoms)
        # Trailing zero atoms carry no information.
        while atoms and atoms[-1] == 0:
            atoms = atoms[:-1]
        if any(a < 0 or a > 1 for a in atoms):
            raise ValueError("atoms must lie in [0,1]: %r" % (atoms,))
        if any(atoms[i] < atoms[i + 1] for i in range(len(atoms) - 1)):
            raise ValueError("atoms must be nonincreasing: %r" % (atoms,))
        if sum(atoms) > 1:
            raise ValueError("atoms must sum to at most 1: %r" % (atoms,))
        self._freeze(atoms)
        # (D, (a_i D)_i) with D the lcm of the atoms' denominators, so that
        # phi_p(x) = sum_i (a_i D)^p / D^p; not a field, so repr is unchanged.
        d = lcm(*(a.denominator for a in atoms))
        object.__setattr__(self, "integer_form", (d, tuple(
            a.numerator * (d // a.denominator) for a in atoms)))

    # Every cache lookup keyed by a vector runs these two, so they read the
    # integer form, which determines the atoms, instead of hashing Fractions.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.integer_form == other.integer_form

    def __hash__(self):
        return hash(self.integer_form)

    @classmethod
    def of(cls, *atoms) -> "FrequencyVector":
        return cls(tuple(sorted((Fraction(a) for a in atoms), reverse=True)))

    @classmethod
    def parse(cls, text: str) -> "FrequencyVector":
        """Parse comma-separated rationals, e.g. "1/2,1/3,1/6"; "" is pure dust."""
        text = text.strip()
        if not text:
            return cls(())
        return cls.of(*(parse_rational(tok) for tok in text.split(",")))

    @property
    def dust(self) -> Fraction:
        return 1 - sum(self.atoms, Fraction(0))

    def __str__(self):
        return ",".join(str(a) for a in self.atoms)

    def to_json(self) -> list[str]:
        return [str(a) for a in self.atoms]


# A t0_distribution round reads 36 tables: four vectors, sizes 1 to 9.
@lru_cache(maxsize=256)
def _power_sum_table(x: FrequencyVector, k_max: int) -> tuple[tuple, tuple]:
    """((D^k)_k, (W_k)_k) for 0 <= k <= k_max, with phi_k(x) = W_k / D^k.

    (D, (a_i D)_i) is the vector's integer form and W_k = sum_i (a_i D)^k;
    W_1 = D carries the phi_1 == 1 convention (W_0 is unused).
    """
    d, weights = x.integer_form
    d_powers, sums = [1, d], [0, d]
    powers = weights
    for _ in range(2, k_max + 1):
        powers = [p * w for p, w in zip(powers, weights)]
        sums.append(sum(powers))
        d_powers.append(d_powers[-1] * d)
    return tuple(d_powers), tuple(sums)


def power_sum_product(eta: IntegerPartition, x: FrequencyVector) -> Fraction:
    """phi_eta(x) = prod_j phi_{eta_j}(x), as one fraction over D^|eta|."""
    d_powers, sums = _power_sum_table(x, eta.n)
    value = 1
    for p in eta.parts:
        value *= sums[p]
    return Fraction(value, d_powers[eta.n])


def monomial_sampler_bruteforce(eta: IntegerPartition, x: FrequencyVector) -> Fraction:
    """p^o_eta(x) summed directly over injective maps from sample slots to
    atoms.

    Parts of size >= 2 must take distinct atoms; each singleton slot takes
    either an unused atom or the dust (reusable: continuous-spectrum draws
    are distinct types by themselves).  The rest of a walk depends only on
    (slot, set of used atoms), so each such state is summed once: at most
    l 2^r r steps for l parts and r atoms.  The sum is over integers: with D
    the lcm of the atoms' denominators, atom i weighs w_i = a_i D and the
    dust D - sum w_i, and the result is total / D^|eta|.
    """
    if eta.n > BRUTEFORCE_MAX_N:
        raise CapExceededError("|eta| = %d exceeds cap %d"
                               % (eta.n, BRUTEFORCE_MAX_N))
    if len(x.atoms) > BRUTEFORCE_MAX_ATOMS:
        raise CapExceededError("%d atoms exceed cap %d"
                               % (len(x.atoms), BRUTEFORCE_MAX_ATOMS))
    d = lcm(*(a.denominator for a in x.atoms))
    weights = [a.numerator * (d // a.denominator) for a in x.atoms]
    dust = d - sum(weights)
    parts = eta.parts  # nonincreasing, so singleton slots come last
    powers = {p: [w**p for w in weights] for p in set(parts)}
    memo: dict[tuple[int, int], int] = {}

    def walk(slot: int, used: int) -> int:
        if slot == len(parts):
            return 1
        key = slot, used
        if key in memo:
            return memo[key]
        p = parts[slot]
        total = 0
        for i, w in enumerate(powers[p]):
            if not used >> i & 1:
                total += w * walk(slot + 1, used | (1 << i))
        if p == 1 and dust:
            total += dust * walk(slot + 1, used)
        memo[key] = total
        return total

    return Fraction(walk(0, 0), d**eta.n)


# Room for every eta up to n = 16 (915 of them).
@lru_cache(maxsize=1024)
def expansion_of_monomial_sampler(eta: IntegerPartition) -> tuple[tuple[IntegerPartition, int], ...]:
    """Expansion of p^o_eta over power-sum monomials phi_xi.

    Returns (xi, coefficient) pairs where xi has all parts >= 2 or is empty:
    the Moebius-weighted sum over set partitions of the parts, grouped by
    block sums, with block sums equal to 1 dropped because phi_1 == 1.
    """
    coeffs: dict[tuple[int, ...], int] = {}
    for sums, weight in coarsening_weights(eta.multiplicities):
        key = tuple(s for s in sums if s >= 2)
        coeffs[key] = coeffs.get(key, 0) + weight
    return tuple((IntegerPartition._trusted(k), v)
                 for k, v in coeffs.items() if v != 0)


def sampler_expansion(eta: IntegerPartition) -> tuple[tuple[IntegerPartition, int], ...]:
    """p_eta = multinomial_constant(eta) p^o_eta over power-sum monomials:
    the pairs of expansion_of_monomial_sampler, each scaled by the constant."""
    const = multinomial_constant(eta)
    return tuple((xi, const * c) for xi, c in expansion_of_monomial_sampler(eta))


def monomial_sampler_expansion(eta: IntegerPartition, x: FrequencyVector) -> Fraction:
    """p^o_eta(x) via the alternating set-partition expansion, summed as one
    integer over the common denominator D^|eta|."""
    n = eta.n
    d_powers, sums = _power_sum_table(x, n)
    total = 0
    for xi, coeff in expansion_of_monomial_sampler(eta):
        term = coeff * d_powers[n - xi.n]
        for p in xi.parts:
            term *= sums[p]
        total += term
    return Fraction(total, d_powers[n])


def sampling_probability(eta: IntegerPartition, x: FrequencyVector) -> Fraction:
    """P_n(eta) = multinomial constant times p^o_eta(x)."""
    return multinomial_constant(eta) * monomial_sampler_expansion(eta, x)


def removal_children(eta: IntegerPartition):
    """Yield (xi, weight) where weight is the chance a uniformly removed
    individual turns an eta-sample into a xi-sample."""
    n = eta.n
    seen: set[int] = set()
    for r in eta.parts:
        if r in seen:
            continue
        seen.add(r)
        count = sum(1 for p in eta.parts if p == r)
        parts = list(eta.parts)
        parts.remove(r)
        if r > 1:
            parts.append(r - 1)
        xi = IntegerPartition._trusted(tuple(sorted(parts, reverse=True)))
        yield xi, Fraction(r * count, n)


def consistency_check(n: int, x: FrequencyVector):
    """Kingman consistency: marginalizing one individual from the n-sample
    law reproduces the (n-1)-sample law.  Returns (ok, residuals by xi)."""
    if n < 2:
        raise ValueError("n must be >= 2, got %r" % (n,))
    child_totals: dict[IntegerPartition, Fraction] = {
        xi: Fraction(0) for xi in enumerate_partitions(n - 1)
    }
    for eta in enumerate_partitions(n):
        p = sampling_probability(eta, x)
        for xi, weight in removal_children(eta):
            child_totals[xi] += p * weight
    residuals = {
        xi: sampling_probability(xi, x) - child_totals[xi]
        for xi in child_totals
    }
    ok = all(r == 0 for r in residuals.values())
    return ok, residuals


def random_frequency_vector(
    rng: random.Random, max_atoms: int = 8, with_dust: bool = False
) -> FrequencyVector:
    """A pseudo-random exact vector from a normalized integer composition."""
    k = rng.randint(1, max_atoms)
    weights = [rng.randint(1, 20) for _ in range(k)]
    denom = sum(weights) + (rng.randint(1, 20) if with_dust else 0)
    return FrequencyVector.of(*(Fraction(w, denom) for w in weights))
