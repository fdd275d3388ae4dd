import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutral_sampler.combinatorics import (
    EMPTY,
    IntegerPartition,
    enumerate_partitions,
    multinomial_constant,
)
from neutral_sampler.sampling import (
    CapExceededError,
    FrequencyVector,
    consistency_check,
    expansion_of_monomial_sampler,
    expansion_of_power_sum,
    monomial_sampler_bruteforce,
    monomial_sampler_expansion,
    power_sum_product,
    random_frequency_vector,
    sampling_probability,
)
from conftest import (
    atom_power_sum_product,
    bell_expansion,
    coprime_vectors,
    tuple_walk_sampler,
)


class TestFrequencyVector:
    def test_dust(self, x_dusty):
        assert x_dusty.dust == Fraction(1, 4)

    def test_full_mass(self, x_full):
        assert x_full.dust == 0

    def test_rejects_excess_mass(self):
        with pytest.raises(ValueError):
            FrequencyVector.of(Fraction(2, 3), Fraction(2, 3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FrequencyVector((Fraction(-1, 2),))

    def test_trailing_zeros_dropped(self):
        assert FrequencyVector.parse("1/2,0,0").atoms == (Fraction(1, 2),)

    def test_pure_dust_is_legal(self, x_pure_dust):
        assert x_pure_dust.dust == 1

    @pytest.mark.parametrize("text", ["1/0", "1/2,1/0", "0/0"])
    def test_parse_rejects_zero_denominator(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            FrequencyVector.parse(text)

    def test_two_spellings_are_one_vector(self):
        x, y = FrequencyVector.parse("0.5,1/3"), FrequencyVector.parse("1/2,2/6")
        assert x == y and hash(x) == hash(y)
        assert x.integer_form == y.integer_form == (6, (3, 2))

    def test_hash_and_equality_hash_no_fraction(self, monkeypatch):
        x, y = FrequencyVector.parse("1/2,1/3"), FrequencyVector.parse("1/2,1/3")
        z = FrequencyVector.parse("1/2,1/4")

        def refuse(*args):
            raise AssertionError("a Fraction was hashed or compared")
        monkeypatch.setattr(Fraction, "__hash__", refuse)
        monkeypatch.setattr(Fraction, "__eq__", refuse)
        assert hash(x) == hash(y)
        assert x == y and x != z

    def test_repr_str_and_json_show_the_atoms(self):
        x = FrequencyVector.parse("1/2,1/3")
        assert repr(x) == "FrequencyVector(atoms=(Fraction(1, 2), Fraction(1, 3)))"
        assert str(x) == "1/2,1/3"
        assert x.to_json() == ["1/2", "1/3"]


class TestPowerSum:
    def test_pair(self):
        x = FrequencyVector.parse("1/2,1/2")
        assert power_sum_product(IntegerPartition.of(2), x) == Fraction(1, 2)

    def test_k1_convention(self):
        x = FrequencyVector.parse("1/3")  # dust 2/3
        assert power_sum_product(IntegerPartition.of(1), x) == 1

    def test_quartic(self, x_full):
        assert power_sum_product(IntegerPartition.of(4), x_full) == Fraction(49, 648)


class TestBruteForce:
    def test_two_pairs(self, x_full):
        got = monomial_sampler_bruteforce(IntegerPartition.of(2, 2), x_full)
        assert got == Fraction(49, 648)
        assert got == (power_sum_product(IntegerPartition.of(2), x_full) ** 2
                       - power_sum_product(IntegerPartition.of(4), x_full))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_single_type_point_mass(self, n, x_point):
        assert monomial_sampler_bruteforce(IntegerPartition.of(n), x_point) == 1

    def test_two_singletons_with_dust(self):
        x = FrequencyVector.parse("1/2")
        got = monomial_sampler_bruteforce(IntegerPartition.of(1, 1), x)
        assert got == Fraction(3, 4)

    def test_caps(self, x_full):
        with pytest.raises(CapExceededError):
            monomial_sampler_bruteforce(IntegerPartition.of(9), x_full)
        big = FrequencyVector.of(*[Fraction(1, 16)] * 11)
        with pytest.raises(CapExceededError):
            monomial_sampler_bruteforce(IntegerPartition.of(2), big)


class TestExpansion:
    @pytest.mark.parametrize("a,b", [(2, 2), (3, 2), (4, 3)])
    def test_two_part_formula(self, a, b, x_full):
        eta = IntegerPartition.of(a, b)
        expected = (power_sum_product(IntegerPartition.of(a), x_full)
                    * power_sum_product(IntegerPartition.of(b), x_full)
                    - power_sum_product(IntegerPartition.of(a + b), x_full))
        assert monomial_sampler_expansion(eta, x_full) == expected

    def test_matches_bruteforce(self, x_full):
        eta = IntegerPartition.of(2, 2)
        assert monomial_sampler_expansion(eta, x_full) == \
            monomial_sampler_bruteforce(eta, x_full)

    def test_single_sample_is_one(self, x_dusty):
        assert monomial_sampler_expansion(IntegerPartition.of(1), x_dusty) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_equivalence_with_dust(self, seed):
        # The dusty side of the equivalence; the full-mass sweep is in the
        # acceptance suite.
        rng = random.Random(1000 + seed)
        x = random_frequency_vector(rng, max_atoms=5, with_dust=True)
        for n in range(1, 6):
            for eta in enumerate_partitions(n):
                assert monomial_sampler_expansion(eta, x) == \
                    monomial_sampler_bruteforce(eta, x), (eta, x)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_equals_bell_sum(self, n):
        for eta in enumerate_partitions(n):
            # Each xi is a partition of n, so dropping its parts 1
            # (phi_1 == 1) merges no two terms.
            pairs = expansion_of_monomial_sampler(eta)
            assert all(sum(xi) == n for xi, _ in pairs), eta
            got = {IntegerPartition.of(*(p for p in xi if p > 1)): c for xi, c in pairs}
            assert len(got) == len(pairs), eta
            assert got == bell_expansion(eta), eta
            assert all(type(c) is int for c in got.values())

    @pytest.mark.parametrize("n", range(1, 13))
    def test_point_mass_keeps_only_one_part(self, n):
        # On one atom of mass 1 every phi_k is 1, so p^o_eta is the sum of
        # the coefficients, the Moebius sum over the partition lattice: two
        # parts cannot take distinct atoms, and one part takes the atom.
        x = FrequencyVector.of(1)
        for eta in enumerate_partitions(n):
            assert monomial_sampler_expansion(eta, x) == (1 if eta.l == 1 else 0), eta


@pytest.mark.parametrize("x", ["1/2,1/3,1/6", "1/2,1/4", "1", "", "2/7,1/5,1/9,1/11"],
                         ids=repr)
def test_power_sum_is_its_coarsenings_monomial_samplers(x):
    # phi_omega = sum_rho c_rho p^o_rho over the coarsenings of omega, each
    # p^o_rho summed atom by atom by the brute-force walk, for every omega
    # with parts >= 2 up to size 8 (and the empty one).
    x = FrequencyVector.parse(x)
    labels = [EMPTY] + [omega for n in range(2, 9) for omega in enumerate_partitions(n)
                        if omega.min_part >= 2]
    for omega in labels:
        pairs = expansion_of_power_sum(omega.parts)
        assert all(sum(rho) == omega.n and c > 0 for rho, c in pairs), omega
        total = sum((c * monomial_sampler_bruteforce(IntegerPartition(rho), x)
                     for rho, c in pairs), Fraction(0))
        assert total == power_sum_product(omega, x), omega


@st.composite
def exact_vectors(draw):
    """Up to five atoms from integer weights, with or without dust mass."""
    weights = draw(st.lists(st.integers(1, 20), min_size=1, max_size=5))
    dust = draw(st.integers(0, 20))
    denom = sum(weights) + dust
    return FrequencyVector.of(*(Fraction(w, denom) for w in weights))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.sampled_from(enumerate_partitions(n))),
       st.one_of(exact_vectors(), coprime_vectors()))
def test_expansion_equals_bruteforce_property(eta, x):
    got = monomial_sampler_bruteforce(eta, x)
    assert type(got) is Fraction
    assert got == tuple_walk_sampler(eta, x)
    assert got == monomial_sampler_expansion(eta, x)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 16).flatmap(
           lambda n: st.sampled_from(enumerate_partitions(n)) if n else st.just(EMPTY)),
       coprime_vectors())
def test_power_sum_product_equals_atom_oracle(eta, x):
    assert power_sum_product(eta, x) == atom_power_sum_product(eta, x)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 10), coprime_vectors())
def test_normalization_property(n, x):
    total = sum(sampling_probability(eta, x) for eta in enumerate_partitions(n))
    assert total == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), coprime_vectors())
def test_consistency_property(n, x):
    ok, _ = consistency_check(n, x)
    assert ok


class TestSamplingProbability:
    def test_pair_on_two_atoms(self):
        x = FrequencyVector.parse("1/2,1/2")
        assert sampling_probability(IntegerPartition.of(2), x) == Fraction(1, 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pure_dust_gives_all_singletons(self, n, x_pure_dust):
        for eta in enumerate_partitions(n):
            expected = 1 if eta.parts == (1,) * n else 0
            assert sampling_probability(eta, x_pure_dust) == expected

    def test_pair_plus_singleton(self):
        x = FrequencyVector.parse("1/2,1/2")
        got = sampling_probability(IntegerPartition.of(2, 1), x)
        assert got == Fraction(3, 4)
        assert got == multinomial_constant(IntegerPartition.of(2, 1)) * \
            monomial_sampler_bruteforce(IntegerPartition.of(2, 1), x)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_normalization_full_mass(self, n, x_full):
        total = sum(sampling_probability(eta, x_full)
                    for eta in enumerate_partitions(n))
        assert total == 1

    @pytest.mark.parametrize("n", [*range(1, 7), 14])
    def test_normalization_with_dust(self, n, x_dusty):
        total = sum(sampling_probability(eta, x_dusty)
                    for eta in enumerate_partitions(n))
        assert total == 1

    def test_nonnegative_everywhere_tested(self, x_full, x_dusty, x_pure_dust, x_point):
        for x in (x_full, x_dusty, x_pure_dust, x_point):
            for n in range(1, 6):
                for eta in enumerate_partitions(n):
                    assert sampling_probability(eta, x) >= 0


class TestConsistency:
    def test_n2_full_mass(self):
        x = FrequencyVector.parse("2/3,1/3")
        ok, residuals = consistency_check(2, x)
        assert ok and all(r == 0 for r in residuals.values())

    def test_n4(self, x_full):
        ok, _ = consistency_check(4, x_full)
        assert ok

    def test_n3_with_dust(self, x_dusty):
        ok, _ = consistency_check(3, x_dusty)
        assert ok

    def test_n12(self, x_full):
        ok, _ = consistency_check(12, x_full)
        assert ok

    def test_n1_rejected(self, x_full):
        with pytest.raises(ValueError):
            consistency_check(1, x_full)
