"""Integer partitions, set partitions and the total order used everywhere else.

Partitions of equal size are ordered so that the one with the larger leading
part comes first, i.e. (4) < (3,1) < (2,2).  The empty partition stands for
the constant function 1 and sorts before everything.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, factorial
from typing import Iterator

from .records import FrozenRecord


class EmptyInputError(ValueError):
    """Raised when an enumeration is asked for nothing."""


class IntegerPartition(FrozenRecord):
    """A partition of n into nonincreasing positive parts (possibly empty)."""

    _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive: %r" % (parts,))
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be nonincreasing: %r" % (parts,))
        self._freeze(parts)
        # Not a field, so equality, hash and repr are unchanged.
        object.__setattr__(self, "n", sum(parts))

    # Every cache lookup keyed by a label runs these two, so they read the
    # one field directly.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "IntegerPartition":
        """A label from positive ints already in nonincreasing order, as the
        library derives them from valid labels; skips the validation."""
        label = object.__new__(cls)
        object.__setattr__(label, "parts", parts)
        object.__setattr__(label, "n", sum(parts))
        return label

    @classmethod
    def of(cls, *parts: int) -> "IntegerPartition":
        return cls(tuple(sorted(parts, reverse=True)))

    @classmethod
    def parse(cls, text: str) -> "IntegerPartition":
        """Parse a comma-separated part list, e.g. "2,2,1"; "" is empty."""
        text = text.strip()
        if not text:
            return cls(())
        return cls.of(*(int(tok) for tok in text.split(",")))

    @property
    def l(self) -> int:
        return len(self.parts)

    @property
    def alpha(self) -> tuple[int, ...]:
        """Multiplicity vector (alpha_1, ..., alpha_n)."""
        counts = [0] * self.n
        for p in self.parts:
            counts[p - 1] += 1
        return tuple(counts)

    @property
    def multiplicities(self) -> tuple[tuple[int, int], ...]:
        """(part, multiplicity) pairs, largest part first."""
        return tuple((p, c) for p, c in reversed(tuple(enumerate(self.alpha, 1))) if c)

    @property
    def alpha_1(self) -> int:
        """Number of singleton parts."""
        return sum(1 for p in self.parts if p == 1)

    @property
    def min_part(self) -> int:
        return self.parts[-1] if self.parts else 0

    def sort_key(self):
        # Larger leading part ranks smaller within equal size.
        return (self.n, tuple(-p for p in self.parts))

    def concat(self, other: "IntegerPartition") -> "IntegerPartition":
        return IntegerPartition._trusted(
            tuple(sorted(self.parts + other.parts, reverse=True)))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other):
        return self.sort_key() > other.sort_key()

    def __ge__(self, other):
        return self.sort_key() >= other.sort_key()

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    def to_json(self) -> list[int]:
        return list(self.parts)


EMPTY = IntegerPartition(())


def _partition_tuples(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n with parts <= cap, in the canonical order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=64)
def enumerate_partitions(n: int) -> tuple[IntegerPartition, ...]:
    """All partitions of n, in the canonical order."""
    if n < 1:
        raise EmptyInputError("n must be >= 1, got %r" % (n,))
    return tuple(IntegerPartition._trusted(t) for t in _partition_tuples(n, n))


def enumerate_partitions_min2(n: int) -> tuple[IntegerPartition, ...]:
    """Partitions of n with every part >= 2, in canonical order."""
    if n < 1:
        raise EmptyInputError("n must be >= 1, got %r" % (n,))
    return tuple(p for p in enumerate_partitions(n) if p.min_part >= 2)


@lru_cache(maxsize=256)
def enumerate_set_partitions(l: int, d: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All partitions of {1..l} into exactly d blocks, each a sorted tuple,
    the blocks ordered by their minima."""
    if l < 1:
        raise EmptyInputError("l must be >= 1, got %r" % (l,))
    if d < 1 or d > l:
        raise ValueError("need 1 <= d <= l, got d=%r l=%r" % (d, l))

    results: list[tuple[tuple[int, ...], ...]] = []

    def assign(e: int, blocks: list[list[int]]):
        if e > l:
            if len(blocks) == d:
                results.append(tuple(tuple(b) for b in blocks))
            return
        # Opening a new block keeps blocks ordered by minima automatically.
        remaining = l - e + 1
        for b in blocks:
            if len(blocks) + remaining - 1 >= d:
                b.append(e)
                assign(e + 1, blocks)
                b.pop()
        if len(blocks) < d:
            blocks.append([e])
            assign(e + 1, blocks)
            blocks.pop()

    assign(1, [])
    return tuple(results)


# Expanding every eta of n = 20 visits 1254 sub-multisets.
@lru_cache(maxsize=4096)
def coarsening_weights(
    multiset: tuple[tuple[int, int], ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Moebius-weighted sum over the set partitions of a multiset of parts,
    grouped by the multiset of block sums.

    `multiset` holds (part, multiplicity) pairs, largest part first, as
    IntegerPartition.multiplicities gives them.  Returns (block sums,
    weight) pairs, the sums nonincreasing, with zero weights dropped.  A set
    partition weighs the product over its blocks B of (-1)^(|B|-1) (|B|-1)!,
    the Moebius function of the partition lattice.

    Equal parts are indistinguishable, so no set partition is listed: one
    copy of the largest part takes a sub-multiset of the rest into its block,
    C(c, s) ways for s of c equal copies, and the remainder recurses.
    """
    if not multiset:
        return (((), 1),)
    (top, count), rest = multiset[0], multiset[1:]
    groups = ((top, count - 1),) + rest
    out: dict[tuple[int, ...], int] = {}
    for taken in product(*(range(c + 1) for _, c in groups)):
        size, total, ways = 1, top, 1
        remainder = []
        for (part, c), s in zip(groups, taken):
            size += s
            total += part * s
            ways *= comb(c, s)
            if c > s:
                remainder.append((part, c - s))
        ways *= (-1) ** (size - 1) * factorial(size - 1)
        for sums, weight in coarsening_weights(tuple(remainder)):
            key = tuple(sorted(sums + (total,), reverse=True))
            out[key] = out.get(key, 0) + ways * weight
    return tuple((k, v) for k, v in out.items() if v != 0)


def multinomial_constant(eta: IntegerPartition) -> int:
    """n! / (eta_1! ... eta_l! alpha_1! ... alpha_n!), an exact integer; equal
    parts are adjacent, so alpha_j! is the product of their run counts."""
    denom, run, previous = 1, 0, 0
    for p in eta.parts:
        run = run + 1 if p == previous else 1
        previous = p
        denom *= factorial(p) * run
    return factorial(eta.n) // denom
