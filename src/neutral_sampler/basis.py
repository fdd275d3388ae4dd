"""Gram-Schmidt basis over power-sum monomials, exact at a fixed rational theta.

Elements are coefficient maps over phi-monomials (labels with all parts >= 2,
plus the empty partition for the constant 1).  Projections divide by the
squared norm of each predecessor, so the family is pairwise orthogonal
exactly; norms are kept squared so no irrational scalar ever appears.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .combinatorics import EMPTY, IntegerPartition, enumerate_partitions_min2
from .moments import check_theta, mixed_power_sum_moment
from .sampling import FrequencyVector, power_sum_product

CoeffMap = dict[IntegerPartition, Fraction]


class DegenerateBasisError(ValueError):
    """A basis element came out with nonpositive squared norm."""


def monomial_labels(max_size: int) -> tuple[IntegerPartition, ...]:
    """The ordered label set: empty, then all parts>=2 partitions of 2..max_size."""
    labels = [EMPTY]
    for m in range(2, max_size + 1):
        labels.extend(enumerate_partitions_min2(m))
    return tuple(labels)


def inner_product(f: CoeffMap, g: CoeffMap, theta) -> Fraction:
    """<f, g>_theta, the bilinear extension of the mixed power-sum moment."""
    theta = check_theta(theta)
    total = Fraction(0)
    for a, ca in f.items():
        if ca == 0:
            continue
        for b, cb in g.items():
            if cb == 0:
                continue
            total += ca * cb * mixed_power_sum_moment(a, b, theta)
    return total


@dataclass
class BasisElement:
    """psi_label as an exact linear combination of phi-monomials."""

    label: IntegerPartition
    theta: Fraction
    coeffs: CoeffMap = field(repr=False)
    norm2: Fraction

    def to_json(self) -> dict:
        return {
            "label": self.label.to_json(),
            "coeffs": {str(k): str(v) for k, v in sorted(
                self.coeffs.items(), key=lambda kv: kv[0].sort_key())},
            "norm2": str(self.norm2),
        }


# One entry per (max_size, theta); like power_sum_moment, a scan only
# revisits the theta it is on.
@lru_cache(maxsize=128)
def build_basis(max_size: int, theta) -> tuple[BasisElement, ...]:
    """Orthogonalize {1, phi_eta : 2 <= |eta| <= max_size} in canonical order.

    The canonical order makes build_basis(max_size - 1, theta) a prefix, so
    only the labels of size max_size are orthogonalized here.
    """
    if max_size < 2:
        raise ValueError("max_size must be >= 2, got %r" % (max_size,))
    theta = check_theta(theta)
    elements = list(build_basis(max_size - 1, theta)) if max_size > 2 else []
    for label in monomial_labels(max_size)[len(elements):]:
        coeffs: CoeffMap = {label: Fraction(1)}
        for prev in elements:
            c = inner_product({label: Fraction(1)}, prev.coeffs, theta) / prev.norm2
            if c == 0:
                continue
            for k, v in prev.coeffs.items():
                coeffs[k] = coeffs.get(k, Fraction(0)) - c * v
        coeffs = {k: v for k, v in coeffs.items() if v != 0}
        norm2 = inner_product(coeffs, coeffs, theta)
        if norm2 <= 0:
            raise DegenerateBasisError(
                "nonpositive norm for %s at theta=%s" % (label, theta)
            )
        elements.append(BasisElement(label, theta, coeffs, norm2))
    return tuple(elements)


def basis_element(max_size: int, theta, label: IntegerPartition) -> BasisElement:
    for el in build_basis(max_size, theta):
        if el.label == label:
            return el
    raise KeyError("no basis element labelled %s up to size %d" % (label, max_size))


def evaluate_coeff_map(coeffs: CoeffMap, x: FrequencyVector) -> Fraction:
    total = Fraction(0)
    for xi, c in coeffs.items():
        total += c * power_sum_product(xi, x)
    return total


def evaluate_basis_element(psi: BasisElement, x: FrequencyVector) -> Fraction:
    return evaluate_coeff_map(psi.coeffs, x)


def normalized_element(psi: BasisElement) -> tuple[CoeffMap, Fraction]:
    """(coefficients of psi, squared norm); consumers divide by norm2 where
    the normalized element appears quadratically."""
    if psi.norm2 <= 0:
        raise DegenerateBasisError("degenerate element %s" % (psi.label,))
    return dict(psi.coeffs), psi.norm2
