import itertools

import pytest
from fractions import Fraction
from hypothesis import given
from hypothesis import strategies as st

from neutral_sampler.combinatorics import (
    EMPTY,
    EmptyInputError,
    IntegerPartition,
    enumerate_partitions,
    enumerate_set_partitions,
    multinomial_constant,
)
from neutral_sampler.sampling import removal_children
from conftest import alpha_multinomial_constant, bell, partition_count, stirling2


class TestIntegerPartition:
    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            IntegerPartition((1, 2))

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            IntegerPartition((2, 0))
        with pytest.raises(ValueError):
            IntegerPartition.of(3, -1)
        with pytest.raises(ValueError):
            IntegerPartition.parse("2,0")

    def test_of_sorts(self):
        assert IntegerPartition.of(1, 3, 2).parts == (3, 2, 1)

    def test_parse(self):
        assert IntegerPartition.parse("2,2,1").parts == (2, 2, 1)
        assert IntegerPartition.parse("") == EMPTY

    @pytest.mark.parametrize("n", range(1, 11))
    def test_alpha_roundtrip(self, n):
        for eta in enumerate_partitions(n):
            alpha = eta.alpha
            assert sum(alpha) == eta.l
            assert sum((i + 1) * a for i, a in enumerate(alpha)) == eta.n
            assert IntegerPartition.of(*(size for size, count in enumerate(alpha, 1)
                                         for _ in range(count))) == eta

    def test_concat(self):
        a = IntegerPartition.of(3, 1)
        b = IntegerPartition.of(2)
        assert a.concat(b).parts == (3, 2, 1)

    @given(st.lists(st.integers(1, 6), max_size=6),
           st.lists(st.integers(2, 6), max_size=4))
    def test_size_is_the_sum_of_the_parts(self, a, b):
        # Every way a label is made stores the same size as its parts sum to.
        text = ",".join(str(p) for p in a)
        labels = [IntegerPartition(tuple(sorted(a, reverse=True))),
                  IntegerPartition.of(*a), IntegerPartition.parse(text),
                  IntegerPartition.of(*a).concat(IntegerPartition.of(*b))]
        labels += [xi for xi, _ in removal_children(IntegerPartition.of(*a))]
        labels += [xi for xi, _ in removal_children(IntegerPartition.of(*b))]
        for label in labels:
            assert label.n == sum(label.parts), label
        with pytest.raises(AttributeError):
            labels[0].n = 0

    @given(st.lists(st.integers(1, 9), max_size=8),
           st.lists(st.integers(1, 9), max_size=8))
    def test_concat_equals_validated_label(self, a, b):
        a, b = IntegerPartition.of(*a), IntegerPartition.of(*b)
        got = a.concat(b)
        want = IntegerPartition.of(*(a.parts + b.parts))
        assert got == want and hash(got) == hash(want)


class TestEnumeratePartitions:
    def test_n1(self):
        assert [p.parts for p in enumerate_partitions(1)] == [(1,)]

    def test_n4_listing(self):
        got = [p.parts for p in enumerate_partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_against_recurrence(self, n):
        assert len(enumerate_partitions(n)) == partition_count(n)

    def test_n6_count(self):
        assert len(enumerate_partitions(6)) == 11

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            enumerate_partitions(0)

    def test_listing_is_in_canonical_order(self):
        # build_basis takes the labels of each size in this order, so that
        # the basis up to a smaller size is a prefix of a larger one.
        for n in range(1, 21):
            assert enumerate_partitions(n) == tuple(sorted(enumerate_partitions(n)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_no_duplicates_and_all_valid(self, n):
        seen = set(enumerate_partitions(n))
        assert len(seen) == len(enumerate_partitions(n))
        assert all(p.n == n for p in seen)


class TestPartitionOrder:
    def test_smaller_size_first(self):
        assert IntegerPartition.of(2) < IntegerPartition.of(3)

    def test_larger_leading_part_first(self):
        # The listing puts (4) before (2,2).
        assert IntegerPartition.of(4) < IntegerPartition.of(2, 2)

    def test_reflexive(self):
        p = IntegerPartition.of(2, 2)
        assert not p < p and not p > p

    def test_empty_sorts_first(self):
        assert EMPTY < IntegerPartition.of(2)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_strict_total_order(self, n):
        ps = enumerate_partitions(n)
        for a, b in itertools.combinations(ps, 2):
            assert (a < b) != (b < a)
        for a, b, c in itertools.combinations(ps, 3):
            if a < b and b < c:
                assert a < c


class TestSetPartitions:
    def test_3_2_listing(self):
        got = list(enumerate_set_partitions(3, 2))
        assert ((1, 2), (3,)) in got
        assert ((1, 3), (2,)) in got
        assert ((1,), (2, 3)) in got
        assert len(got) == 3

    @pytest.mark.parametrize("l", range(1, 7))
    def test_singletons_forced(self, l):
        (sp,) = enumerate_set_partitions(l, l)
        assert sp == tuple((i,) for i in range(1, l + 1))

    @pytest.mark.parametrize("l", range(1, 7))
    def test_one_block_forced(self, l):
        (sp,) = enumerate_set_partitions(l, 1)
        assert sp == (tuple(range(1, l + 1)),)

    @pytest.mark.parametrize("l,d", [(l, d) for l in range(1, 8) for d in range(1, l + 1)])
    def test_counts_are_stirling(self, l, d):
        assert len(enumerate_set_partitions(l, d)) == stirling2(l, d)

    @pytest.mark.parametrize("l", range(1, 9))
    def test_bell_totals(self, l):
        total = sum(len(enumerate_set_partitions(l, d)) for d in range(1, l + 1))
        assert total == bell(l)

    def test_min_ordered(self):
        for sp in enumerate_set_partitions(5, 3):
            mins = [b[0] for b in sp]
            assert mins == sorted(mins)
            assert all(list(b) == sorted(b) for b in sp)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            enumerate_set_partitions(3, 4)
        with pytest.raises(ValueError):
            enumerate_set_partitions(3, 0)
        with pytest.raises(EmptyInputError):
            enumerate_set_partitions(0, 1)


class TestMultinomialConstant:
    @pytest.mark.parametrize("parts,expected", [
        ((2,), 1),
        ((1, 1), 1),
        ((2, 1), 3),
        ((1, 1, 1), 1),
        ((2, 2), 3),
        ((3, 1), 4),
    ])
    def test_values(self, parts, expected):
        assert multinomial_constant(IntegerPartition(parts)) == Fraction(expected)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_is_positive_integer(self, n):
        for eta in enumerate_partitions(n):
            c = multinomial_constant(eta)
            assert c > 0 and c.denominator == 1

    def test_equals_the_alpha_vector_formula(self):
        assert multinomial_constant(EMPTY) == alpha_multinomial_constant(EMPTY) == 1
        for n in range(1, 17):
            for eta in enumerate_partitions(n):
                assert multinomial_constant(eta) == alpha_multinomial_constant(eta), eta

    def test_is_an_int(self):
        assert all(type(multinomial_constant(eta)) is int
                   for n in range(1, 7) for eta in enumerate_partitions(n))
