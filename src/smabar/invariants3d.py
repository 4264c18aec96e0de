"""Cubic-symmetry strain invariants and the 3D free energy they generate.

For a symmetric strain tensor eps, ten polynomial invariants of the full
48-element cubic point group (all signed permutation matrices) enter the
free-energy expansion up to sixth order.  With

    A = 2 e33 - e11 - e22,   B = e11 - e22,

they are

    I2_1 = (tr eps)^2 / 9
    I2_2 = A^2/12 + B^2/4
    I2_3 = e23^2 + e13^2 + e12^2
    I4_1 = (I2_2)^2
    I4_2 = e23^4 + e13^4 + e12^4
    I4_3 = (I2_3)^2
    I4_4 = I2_2 I2_3
    I4_5 = e23^2 (A/6 - B/2)^2 + e13^2 (A/6 + B/2)^2 + e12^2 A^2 / 9
    I6_1 = (I2_2)^3
    I6_2 = (A^2/36) (A^2/36 - B^2/4)^2

Odd-order invariants are intentionally absent from the expansion.  The free
energy is

    Psi = psi0(theta) + sum_j psi2_j I2_j + sum_j psi4_j I4_j + sum_j psi6_j I6_j

with temperature-affine coefficients; the built-in table is for Cu-based
alloys in g/(ms^2 cm), i.e. energy per unit volume in the cgs-ms-K system.
The thermal part psi0 = -a1 theta ln((theta - theta0)/theta0) is singular
at theta0 = 300 K and undefined below it; it is exposed verbatim behind a
flag (on by default) and a domain error is raised when its logarithm
argument is non-positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import NamedTuple

import numpy as np

__all__ = [
    "Strain3",
    "StrainInvariants",
    "FalkKonopkaCoeffs",
    "invariants",
    "cubic_group_elements",
    "free_energy_3d",
    "cu_based_3d",
]


@dataclass
class Strain3:
    """Symmetric 3x3 strain tensor; symmetry is enforced on construction."""

    eps: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        if eps.shape[-2:] != (3, 3):
            raise ValueError("strain must have shape (..., 3, 3)")
        skew = np.abs(eps - np.swapaxes(eps, -1, -2)).max()
        scale = max(np.abs(eps).max(), 1.0)
        if skew > 1e-12 * scale:
            raise ValueError("strain tensor is not symmetric")
        self.eps = 0.5 * (eps + np.swapaxes(eps, -1, -2))

    @classmethod
    def from_components(cls, e11=0.0, e22=0.0, e33=0.0,
                        e23=0.0, e13=0.0, e12=0.0) -> "Strain3":
        return cls(np.array([[e11, e12, e13],
                             [e12, e22, e23],
                             [e13, e23, e33]], dtype=float))


class StrainInvariants(NamedTuple):
    i2_1: np.ndarray
    i2_2: np.ndarray
    i2_3: np.ndarray
    i4_1: np.ndarray
    i4_2: np.ndarray
    i4_3: np.ndarray
    i4_4: np.ndarray
    i4_5: np.ndarray
    i6_1: np.ndarray
    i6_2: np.ndarray


def invariants(eps) -> StrainInvariants:
    """Evaluate the ten cubic invariants.

    Accepts a Strain3 or any array of shape (..., 3, 3); returns the
    invariants with the leading batch shape preserved.
    """
    e = eps.eps if isinstance(eps, Strain3) else np.asarray(eps, dtype=float)
    e11, e22, e33 = e[..., 0, 0], e[..., 1, 1], e[..., 2, 2]
    e23, e13, e12 = e[..., 1, 2], e[..., 0, 2], e[..., 0, 1]

    A = 2.0 * e33 - e11 - e22
    B = e11 - e22
    i2_1 = (e11 + e22 + e33) ** 2 / 9.0
    i2_2 = A * A / 12.0 + B * B / 4.0
    i2_3 = e23 * e23 + e13 * e13 + e12 * e12
    i4_1 = i2_2 * i2_2
    i4_2 = e23 ** 4 + e13 ** 4 + e12 ** 4
    i4_3 = i2_3 * i2_3
    i4_4 = i2_2 * i2_3
    i4_5 = (e23 * e23 * (A / 6.0 - B / 2.0) ** 2
            + e13 * e13 * (A / 6.0 + B / 2.0) ** 2
            + e12 * e12 * A * A / 9.0)
    i6_1 = i2_2 ** 3
    i6_2 = (A * A / 36.0) * (A * A / 36.0 - B * B / 4.0) ** 2
    return StrainInvariants(i2_1, i2_2, i2_3, i4_1, i4_2, i4_3, i4_4,
                            i4_5, i6_1, i6_2)


def cubic_group_elements() -> np.ndarray:
    """All 48 signed permutation matrices (the full cubic point group).

    Generated as axis permutations times sign flips rather than hard-coded;
    the element count and exact orthogonality are asserted at call time.
    """
    mats = np.zeros((48, 3, 3))
    n = 0
    for perm in permutations(range(3)):
        for signs in product((1.0, -1.0), repeat=3):
            for row, (col, sgn) in enumerate(zip(perm, signs)):
                mats[n, row, col] = sgn
            n += 1
    assert n == 48
    eye = np.eye(3)
    for q in mats:
        assert np.array_equal(q.T @ q, eye)
    return mats


@dataclass(frozen=True)
class FalkKonopkaCoeffs:
    """Temperature-affine coefficient table of the sixth-order expansion.

    Each entry is (base, slope): value(theta) = base + slope*(theta - theta0)
    with pivot theta0 = 300 K.  Sixth-order constants carry zero slope.
    psi0_alpha1 scales the thermal part psi0.
    """

    psi2: tuple = (
        (5.92e6, 0.0),
        (1.41e5, 46.0),
        (1.48e6, -940.0),
    )
    psi4: tuple = (
        (-1.182e8, 3.55e5),
        (3.13e9, 0.0),
        (1.64e9, 0.0),
        (-5.53e8, 0.0),
        (-4.27e8, 0.0),
    )
    psi6: tuple = (
        (3.35e10, 0.0),
        (3.71e11, 0.0),
    )
    psi0_alpha1: float = 29.0
    theta0: float = 300.0

    def __post_init__(self):
        if len(self.psi2) != 3 or len(self.psi4) != 5 or len(self.psi6) != 2:
            raise ValueError("coefficient table must hold 3+5+2 entries")

    def _eval(self, table, theta):
        theta = np.asarray(theta, dtype=float)
        return [base + slope * (theta - self.theta0) for base, slope in table]

    def psi2_at(self, theta):
        return self._eval(self.psi2, theta)

    def psi4_at(self, theta):
        return self._eval(self.psi4, theta)

    def psi6_at(self, theta):
        return self._eval(self.psi6, theta)

    def psi0_at(self, theta):
        """Thermal part; domain error unless theta > theta0."""
        theta = np.asarray(theta, dtype=float)
        arg = (theta - self.theta0) / self.theta0
        if np.any(arg <= 0):
            raise ValueError(
                "psi0 logarithm argument non-positive: requires theta > theta0")
        return -self.psi0_alpha1 * theta * np.log(arg)


#: Cu-based alloy coefficient table.
CU_BASED_3D = FalkKonopkaCoeffs()


def cu_based_3d() -> FalkKonopkaCoeffs:
    return CU_BASED_3D


def free_energy_3d(c: FalkKonopkaCoeffs, eps, theta,
                   include_thermal: bool = True):
    """Free energy per unit volume from the ten invariants.

    Psi = psi0(theta) + sum psi2_j I2_j + sum psi4_j I4_j + sum psi6_j I6_j.
    With include_thermal=False the singular psi0 term is suppressed and any
    positive theta is accepted.
    """
    inv = invariants(eps)
    p2 = c.psi2_at(theta)
    p4 = c.psi4_at(theta)
    p6 = c.psi6_at(theta)
    out = (p2[0] * inv.i2_1 + p2[1] * inv.i2_2 + p2[2] * inv.i2_3
           + p4[0] * inv.i4_1 + p4[1] * inv.i4_2 + p4[2] * inv.i4_3
           + p4[3] * inv.i4_4 + p4[4] * inv.i4_5
           + p6[0] * inv.i6_1 + p6[1] * inv.i6_2)
    if include_thermal:
        out = out + c.psi0_at(theta)
    return out
