import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neutral_sampler import basis as basis_module
from neutral_sampler.basis import (
    DegenerateBasisError,
    BasisElement,
    basis_element,
    build_basis,
    inner_product,
    monomial_labels,
)
from neutral_sampler.combinatorics import EMPTY, IntegerPartition
from neutral_sampler.moments import mixed_power_sum_moment, power_sum_moment
from neutral_sampler.sampling import FrequencyVector
from conftest import atom_power_sum_product, coprime_vectors, evaluate_coeff_map

P2 = IntegerPartition.of(2)


class TestLabels:
    def test_order_up_to_six(self):
        labels = monomial_labels(6)
        parts = [lb.parts for lb in labels]
        assert parts == [(), (2,), (3,), (4,), (2, 2), (5,), (3, 2),
                         (6,), (4, 2), (3, 3), (2, 2, 2)]


class TestInnerProduct:
    def test_phi2_phi2(self):
        got = inner_product({P2: Fraction(1)}, {P2: Fraction(1)}, 1)
        assert got == Fraction(7, 24)

    def test_constant_normalization(self):
        assert inner_product({EMPTY: Fraction(1)}, {EMPTY: Fraction(1)}, 10) == 1

    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 10])
    def test_psi2_orthogonal_to_one(self, theta):
        theta = Fraction(theta)
        psi2 = {P2: Fraction(1), EMPTY: -1 / (1 + theta)}
        assert inner_product(psi2, {EMPTY: Fraction(1)}, theta) == 0


class TestBuildBasis:
    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 10])
    def test_first_element_formula(self, theta):
        theta = Fraction(theta)
        el = basis_element(2, theta, P2)
        assert el.coeffs == {P2: Fraction(1), EMPTY: -1 / (1 + theta)}

    def test_psi2_norm_at_one(self):
        el = basis_element(2, Fraction(1), P2)
        assert el.norm2 == Fraction(1, 24)  # 7/24 - (1/2)^2

    def test_psi4_orthogonal_to_psi22(self):
        basis = build_basis(4, Fraction(1))
        psi4 = next(el for el in basis if el.label == IntegerPartition.of(4))
        psi22 = next(el for el in basis if el.label == IntegerPartition.of(2, 2))
        assert inner_product(psi4.coeffs, psi22.coeffs, Fraction(1)) == 0

    def test_monic_and_triangular(self):
        for el in build_basis(5, Fraction(2)):
            assert el.coeffs[el.label] == 1
            assert all(xi <= el.label for xi in el.coeffs)

    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 10])
    def test_exact_pairwise_orthogonality(self, theta):
        theta = Fraction(theta)
        basis = build_basis(6, theta)
        for a, b in itertools.combinations(basis, 2):
            assert inner_product(a.coeffs, b.coeffs, theta) == 0

    @pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(37, 4), 10**8])
    def test_psi_orthogonal_to_every_earlier_phi(self, theta):
        # The identity that lets the projection oracle skip the labels of f
        # before psi_j: <phi_a, psi_j> = 0 for every a before j.
        theta = Fraction(theta)
        basis = build_basis(7, theta)
        for j, psi in enumerate(basis):
            for a in basis[:j]:
                assert inner_product({a.label: Fraction(1)}, psi.coeffs, theta) == 0

    def test_norms_positive(self):
        assert all(el.norm2 > 0 for el in build_basis(6, Fraction(1, 2)))

    def test_norm_is_self_inner_product(self):
        # Independent recomputation through the raw moment route.
        for el in build_basis(4, Fraction(1)):
            recomputed = Fraction(0)
            for a, ca in el.coeffs.items():
                for b, cb in el.coeffs.items():
                    recomputed += ca * cb * mixed_power_sum_moment(a, b, Fraction(1))
            assert el.norm2 == recomputed

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            build_basis(4, 0)

    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 10, Fraction(37, 4), 10**8])
    def test_smaller_basis_is_exact_prefix(self, theta):
        # Independent oracle: one Gram-Schmidt over every label up to size 7,
        # by inner products; row j of L is <phi_label, psi_j> / |psi_j|^2.
        theta = Fraction(theta)
        oracle, rows = [], []
        for label in monomial_labels(7):
            coeffs, row = {label: Fraction(1)}, []
            for prev in oracle:
                c = inner_product({label: Fraction(1)}, prev.coeffs, theta) / prev.norm2
                row.append(c)
                for k, v in prev.coeffs.items():
                    coeffs[k] = coeffs.get(k, Fraction(0)) - c * v
            coeffs = {k: v for k, v in coeffs.items() if v != 0}
            oracle.append(BasisElement(label, theta, coeffs,
                                       inner_product(coeffs, coeffs, theta)))
            rows.append(tuple(row) + (Fraction(1),))
        for k in range(3, 8):
            small, large = build_basis(k - 1, theta), build_basis(k, theta)
            assert large[:len(small)] == small
            assert list(large) == oracle[:len(large)]
            assert [el.row for el in large] == rows[:len(large)]

    def test_one_call_builds_every_label_in_one_pass(self):
        build_basis.cache_clear()
        build_basis(5, Fraction(7, 3))
        assert build_basis.cache_info().currsize == 1

    @pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(37, 4)])
    def test_each_basis_is_a_prefix_of_the_next(self, theta):
        # Each size built afresh, so no prefix comes from the cache.
        for n in range(2, 7):
            build_basis.cache_clear()
            small = build_basis(n, theta)
            build_basis.cache_clear()
            large = build_basis(n + 1, theta)
            assert large[:len(small)] == small
            assert [el.row for el in large[:len(small)]] == [el.row for el in small]

    def test_row_is_left_out_of_equality_repr_and_json(self):
        el = basis_element(3, Fraction(1), IntegerPartition.of(3))
        bare = BasisElement(el.label, el.theta, el.coeffs, el.norm2)
        assert len(el.row) == 3 and bare.row == ()
        assert el == bare
        assert repr(el) == repr(bare)
        assert el.to_json() == bare.to_json()

    def test_rank_one_gram_matrix_is_degenerate(self, monkeypatch):
        # phi_a phi_b -> <phi_a, 1><phi_b, 1>: every phi is a multiple of 1,
        # so D = 0 for psi_2.
        def rank_one(a, b, theta):
            return power_sum_moment(a, theta) * power_sum_moment(b, theta)
        monkeypatch.setattr(basis_module, "mixed_power_sum_moment", rank_one)
        with pytest.raises(DegenerateBasisError):
            build_basis(2, Fraction(9973, 3))

    def test_max_size_too_small(self):
        with pytest.raises(ValueError):
            build_basis(1, Fraction(1))


class TestEvaluate:
    def test_psi2_at_point_mass(self, x_point):
        el = basis_element(2, Fraction(1), P2)
        assert evaluate_coeff_map(el.coeffs, x_point) == Fraction(1, 2)

    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 10])
    def test_psi2_at_zero(self, theta, x_pure_dust):
        theta = Fraction(theta)
        el = basis_element(2, theta, P2)
        assert evaluate_coeff_map(el.coeffs, x_pure_dust) == -1 / (1 + theta)

    def test_constant_element(self, x_full):
        el = basis_element(2, Fraction(1), EMPTY)
        assert evaluate_coeff_map(el.coeffs, x_full) == 1

    def test_coeff_map_evaluation(self, x_full):
        got = evaluate_coeff_map({IntegerPartition.of(2): Fraction(3)}, x_full)
        assert got == 3 * (Fraction(1, 4) + Fraction(1, 9) + Fraction(1, 36))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(monomial_labels(9)),
                       st.fractions(-10, 10, max_denominator=50), max_size=12),
       coprime_vectors())
@example({EMPTY: Fraction(-3, 7), P2: Fraction(2)}, FrequencyVector(()))
def test_coeff_map_equals_atom_oracle(coeffs, x):
    expected = sum((c * atom_power_sum_product(xi, x) for xi, c in coeffs.items()),
                   Fraction(0))
    assert evaluate_coeff_map(coeffs, x) == expected


class TestNormalizedElement:
    def test_psi2(self):
        el = basis_element(2, Fraction(1), P2)
        assert el.norm2 == Fraction(1, 24)
        assert el.coeffs[P2] == 1

    def test_constant(self):
        assert basis_element(2, Fraction(1), EMPTY).norm2 == 1

    def test_psi3_positive(self):
        assert basis_element(3, Fraction(1), IntegerPartition.of(3)).norm2 > 0


def bound_table(labels):
    """Lemma-style recursion: M(omega) = 1 + sum of squared bounds below it."""
    bounds = {}
    for lb in labels:
        bounds[lb] = 1 + sum(bounds[xi] ** 2 for xi in bounds)
    return bounds


class TestThetaLimits:
    GRID = [
        FrequencyVector(()),
        FrequencyVector.parse("1"),
        FrequencyVector.parse("1/2,1/2"),
        FrequencyVector.parse("1/2,1/3,1/6"),
        FrequencyVector.parse("1/2,1/4"),
        FrequencyVector.parse("2/3,1/5"),
        FrequencyVector.parse("1/4,1/4,1/4,1/4"),
        FrequencyVector.parse("9/10,1/10"),
        FrequencyVector.parse("1/6,1/6,1/6,1/6,1/6,1/6"),
    ]

    @pytest.mark.parametrize("theta", [1, 10, 100, 1000])
    def test_grid_boundedness(self, theta):
        labels = monomial_labels(6)
        bounds = bound_table(labels)
        basis = build_basis(6, Fraction(theta))
        for el in basis:
            for x in self.GRID:
                assert abs(evaluate_coeff_map(el.coeffs, x)) <= bounds[el.label]

    def test_coefficients_vanish_as_theta_grows(self):
        lo = build_basis(6, Fraction(10) ** 2)
        hi = build_basis(6, Fraction(10) ** 4)
        for el_lo, el_hi in zip(lo, hi):
            assert el_lo.label == el_hi.label
            for xi, c_lo in el_lo.coeffs.items():
                if xi == el_lo.label:
                    continue
                assert abs(el_hi.coeffs.get(xi, Fraction(0))) < abs(c_lo)
