"""Gram-Schmidt basis over power-sum monomials, exact at a fixed rational theta.

Elements are coefficient maps over phi-monomials (labels with all parts >= 2,
plus the empty partition for the constant 1).  The basis comes from the
factorization G = L D L^T of the Gram matrix G[a, b] = <phi_a, phi_b>_theta:
row i of the unit lower-triangular L holds the coordinates of phi_i in the
psi basis and D_i is the squared norm of psi_i, so the family is pairwise
orthogonal exactly and no irrational scalar ever appears.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .combinatorics import EMPTY, IntegerPartition, enumerate_partitions_min2
from .moments import check_theta, mixed_power_sum_moment
from .records import Record

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


class BasisElement(Record):
    """psi_label as an exact linear combination of phi-monomials.

    Equality compares label, theta, coeffs and norm2; repr shows label,
    theta and norm2."""

    _fields = ("label", "theta", "coeffs", "norm2")

    def __init__(self, label: IntegerPartition, theta: Fraction,
                 coeffs: CoeffMap, norm2: Fraction, row: tuple[Fraction, ...] = ()):
        self.label = label
        self.theta = theta
        self.coeffs = coeffs
        self.norm2 = norm2
        #: L[i][0..i]: phi_label = sum_j row[j] psi_j, with row[i] = 1.
        self.row = row

    def __repr__(self):
        return "BasisElement(label=%r, theta=%r, norm2=%r)" % (
            self.label, self.theta, self.norm2)

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

    Row i of L comes from the Gram entries alone:
    L[i][j] = (G[i][j] - sum_{k<j} L[i][k] L[j][k] D_k) / D_j and
    D_i = G[i][i] - sum_{k<i} L[i][k]^2 D_k; then psi_i = phi_i -
    sum_{j<i} L[i][j] psi_j.  Each row needs only the rows before it, so
    build_basis(max_size - 1, theta) is a prefix of the result.
    """
    if max_size < 2:
        raise ValueError("max_size must be >= 2, got %r" % (max_size,))
    theta = check_theta(theta)
    elements: list[BasisElement] = []
    for label in monomial_labels(max_size):
        # ld[j] = L[i][j] D_j = <phi_i, psi_j>, so each step costs one product.
        row: list[Fraction] = []
        ld: list[Fraction] = []
        coeffs: CoeffMap = {label: Fraction(1)}
        for prev in elements:
            g = mixed_power_sum_moment(label, prev.label, theta)
            for u, l in zip(ld, prev.row):
                g -= u * l
            c = g / prev.norm2
            ld.append(g)
            row.append(c)
            if c == 0:
                continue
            for k, v in prev.coeffs.items():
                coeffs[k] = coeffs.get(k, Fraction(0)) - c * v
        coeffs = {k: v for k, v in coeffs.items() if v != 0}
        norm2 = mixed_power_sum_moment(label, label, theta)
        for u, c in zip(ld, row):
            norm2 -= u * c
        if norm2 <= 0:
            raise DegenerateBasisError(
                "nonpositive norm for %s at theta=%s" % (label, theta)
            )
        row.append(Fraction(1))
        elements.append(BasisElement(label, theta, coeffs, norm2, tuple(row)))
    return tuple(elements)


def basis_element(max_size: int, theta, label: IntegerPartition) -> BasisElement:
    for el in build_basis(max_size, theta):
        if el.label == label:
            return el
    raise KeyError("no basis element labelled %s up to size %d" % (label, max_size))

