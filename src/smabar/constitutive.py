"""Sextic Landau thermodynamics for a 1D shape-memory-alloy bar.

The Helmholtz free energy per unit mass is

    Psi(theta, eps) = psi0(theta) + (1/2) a2 theta eps^2 + psi3(eps)

with a thermal part  psi0 = a0 - a1 theta ln(theta)  and a mechanical part

    psi3(eps) = -(1/2) a2 theta1 eps^2 - (1/4) a4 eps^4 + (1/6) a6 eps^6 .

Below the transition temperature theta1 the potential is non-convex in the
strain: the two symmetric side wells are the martensite variants (M+/M-),
the central well (present for theta > theta1) is austenite.

Everything is expressed in the cgs-millisecond-Kelvin unit system: lengths
in cm, mass in g, time in ms, temperature in K.  Stress then carries
g/(cm ms^2) and energy per unit volume g/(cm ms^2) as well.

The solver-facing coefficients are the density-absorbed ones,

    C_v = rho a1,  k1 = rho a2,  k2 = rho a4,  k3 = rho a6,
    mu = rho mu~,  nu = rho nu~,

and those are what `MaterialParams1D` stores; the per-mass alpha forms are
derived accessors.  Note: k2 and k3 are often quoted with a spurious 1/K in
their units although the cubic and quintic stress terms carry no
temperature factor; here they are plain g/(cm ms^2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "MaterialParams1D",
    "cu_based",
    "free_energy",
    "strain_energy",
    "equilibrium_stress",
    "entropy",
    "internal_energy",
    "conductivity",
]


# Smallest positive tau0 (ms).  The theta_dot equation divides by tau0, so
# near the double-precision limit its terms overflow (experiment1's implicit
# step fails at tau0 = 1e-306); 1e-100 ms keeps 200 decades of head-room and
# is still far below any physical relaxation time.
_TAU0_FLOOR = 1e-100


@dataclass(frozen=True)
class MaterialParams1D:
    """Constitutive and transport constants of the 1D bar model.

    Units (cgs-ms-K): rho g/cm^3; cv g/(ms^2 cm K); k0 cm g/(ms^3 K);
    theta1 K; k1 g/(ms^2 cm K); k2, k3 g/(ms^2 cm); mu, nu, tau0, gamma
    and beta_tilde as used by the stress law and heat flux; alpha0 is an
    additive internal-energy offset per unit mass (defaults to zero, only
    energy differences matter).
    """

    rho: float = 11.1
    cv: float = 29.0
    k0: float = 1.9e-2
    beta_tilde: float = 0.0
    theta1: float = 208.0
    k1: float = 480.0
    k2: float = 6.0e6
    k3: float = 4.5e8
    mu: float = 0.0
    nu: float = 0.0
    tau0: float = 0.0
    gamma: float = 0.0
    alpha0: float = 0.0

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.cv <= 0:
            raise ValueError("cv must be positive")
        if self.k0 <= 0:
            raise ValueError("k0 must be positive")
        if self.theta1 <= 0:
            raise ValueError("theta1 must be positive")
        if self.k2 < 0 or self.k3 < 0:
            raise ValueError("k2 and k3 must be non-negative")
        if self.tau0 < 0:
            raise ValueError("tau0 must be non-negative")
        if 0 < self.tau0 < _TAU0_FLOOR:
            raise ValueError(
                f"tau0 = {self.tau0!r}: a positive tau0 must be at least "
                f"{_TAU0_FLOOR:g} ms (0 gives Fourier conduction)")
        if self.mu < 0:
            raise ValueError("mu must be non-negative")

    # per-mass coefficients: alpha_i = k_i / rho
    @property
    def alpha1(self) -> float:
        return self.cv / self.rho

    @property
    def alpha2(self) -> float:
        return self.k1 / self.rho

    @property
    def alpha4(self) -> float:
        return self.k2 / self.rho

    @property
    def alpha6(self) -> float:
        return self.k3 / self.rho

    def with_(self, **kw) -> "MaterialParams1D":
        """Copy with selected fields replaced."""
        return replace(self, **kw)


#: Cu-based alloy constants (constant conductivity, no rate terms).
CU_BASED = MaterialParams1D()


def cu_based() -> MaterialParams1D:
    """Built-in Cu-based parameter set."""
    return CU_BASED


def _check_theta(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0):
        raise ValueError("temperature must be positive")
    return theta


def strain_energy(p: MaterialParams1D, eps):
    """Mechanical part psi3(eps) of the free energy, per unit mass."""
    eps = np.asarray(eps, dtype=float)
    e2 = eps * eps
    return e2 * (-0.5 * p.alpha2 * p.theta1
                 + e2 * (-0.25 * p.alpha4 + e2 * (p.alpha6 / 6.0)))


def free_energy(p: MaterialParams1D, theta, eps):
    """Helmholtz free energy per unit mass.

    Even in eps; non-convex in eps for theta below the well-merging
    temperature.  Raises for non-positive temperature.
    """
    theta = _check_theta(theta)
    eps = np.asarray(eps, dtype=float)
    psi0 = p.alpha0 - p.alpha1 * theta * np.log(theta)
    return psi0 + 0.5 * p.alpha2 * theta * eps * eps + strain_energy(p, eps)


def equilibrium_stress(p: MaterialParams1D, theta, eps):
    """Rate-independent stress s = k1 (theta - theta1) eps - k2 eps^3 + k3 eps^5.

    This is the density-absorbed form rho * dPsi/deps used by the solver,
    in g/(cm ms^2).
    """
    return _equilibrium_stress(p, _check_theta(theta),
                               np.asarray(eps, dtype=float))


def _equilibrium_stress(p: MaterialParams1D, theta, eps):
    """equilibrium_stress of float arrays, without its argument checks: the
    bar solver's right-hand side calls it on every evaluation.

    eps (k1 (theta - theta1) + e2 (-k2 + e2 k3)), e2 = eps^2, in that
    order of operations, on four temporaries; the result has the
    broadcast shape of theta and eps."""
    e2 = eps * eps
    quartic = e2 * p.k3
    quartic -= p.k2
    quartic *= e2
    s = theta - p.theta1
    s *= p.k1
    s = s + quartic
    s *= eps
    return s


def entropy(p: MaterialParams1D, theta, eps):
    """Entropy per unit mass, eta = a1 (1 + ln theta) - (1/2) a2 eps^2.

    Equals -dPsi/dtheta for the potential above.
    """
    theta = _check_theta(theta)
    eps = np.asarray(eps, dtype=float)
    return p.alpha1 * (1.0 + np.log(theta)) - 0.5 * p.alpha2 * eps * eps


def internal_energy(p: MaterialParams1D, theta, eps):
    """Internal energy per unit mass, e = a0 + a1 theta + psi3(eps).

    Satisfies e = Psi + theta * eta identically.
    """
    theta = _check_theta(theta)
    return p.alpha0 + p.alpha1 * theta + strain_energy(p, eps)


def conductivity(p: MaterialParams1D, theta):
    """Thermal conductivity k0 (1 + beta_tilde * theta).

    With beta_tilde = 0 (the default) this is the constant k0.
    """
    theta = np.asarray(theta, dtype=float)
    return p.k0 * (1.0 + p.beta_tilde * theta)
