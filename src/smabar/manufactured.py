"""Manufactured smooth solutions for convergence verification.

Chooses the exact fields

    u*(x, t)     = a sin(pi x / L) sin(omega_u t)
    theta*(x, t) = theta_bar + b cos(pi x / L) cos(omega_t t)

which satisfy pinned mechanical ends (u* and v* vanish at x = 0, L) and
insulated thermal ends (dtheta*/dx vanishes there), and derives with sympy
the body force F* and heat supply G* that make them solve the coupled
system with tau0 = mu = nu = gamma = 0:

    F* = rho u*_tt - d/dx[ k1 (theta* - theta1) u*_x - k2 u*_x^3 + k3 u*_x^5 ]
    G* = C_v theta*_t - d/dx( k(theta*) theta*_x ) - k1 theta* u*_x u*_xt

The derivation is symbolic and entirely independent of the solver's
discrete right-hand side, so integrating with the derived forcing and
comparing against the exact fields is a genuine two-sided check.  Both
fields are mirror-symmetric about the ends (odd/even), so the one-sided
boundary closures of the solver do not limit the observed spatial order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import sympy as sp

from .constitutive import MaterialParams1D

__all__ = ["MmsCase", "build_mms_case"]


@dataclass
class MmsCase:
    """Exact fields and compensating forcing, all vectorised callables."""

    u: Callable
    v: Callable
    theta: Callable
    body: Callable            # F*(x, t)
    heat: Callable            # G*(x, t)


def build_mms_case(params: MaterialParams1D, length: float = 1.0,
                   u_amplitude: float = 0.005, omega_u: float = 3.0,
                   theta_bar: float = 300.0, theta_amplitude: float = 5.0,
                   omega_t: float = 2.0) -> MmsCase:
    """Construct the manufactured case for the given material constants.

    Requires the simplified regime tau0 = mu = nu = gamma = 0 (raises
    otherwise).
    """
    if params.tau0 != 0 or params.mu != 0 or params.nu != 0 or params.gamma != 0:
        raise ValueError("manufactured case covers tau0 = mu = nu = gamma = 0")

    x, t = sp.symbols("x t", real=True)
    L = sp.Float(length)
    a = sp.Float(u_amplitude)
    bb = sp.Float(theta_amplitude)
    wu = sp.Float(omega_u)
    wt = sp.Float(omega_t)

    u_e = a * sp.sin(sp.pi * x / L) * sp.sin(wu * t)
    th_e = sp.Float(theta_bar) + bb * sp.cos(sp.pi * x / L) * sp.cos(wt * t)

    k1, k2, k3 = map(sp.Float, (params.k1, params.k2, params.k3))
    th1 = sp.Float(params.theta1)
    rho, cv = sp.Float(params.rho), sp.Float(params.cv)
    k_of_th = sp.Float(params.k0) * (1 + sp.Float(params.beta_tilde) * th_e)

    ux = sp.diff(u_e, x)
    stress = k1 * (th_e - th1) * ux - k2 * ux ** 3 + k3 * ux ** 5
    f_body = rho * sp.diff(u_e, t, 2) - sp.diff(stress, x)
    g_heat = (cv * sp.diff(th_e, t) - sp.diff(k_of_th * sp.diff(th_e, x), x)
              - k1 * th_e * ux * sp.diff(ux, t))

    mods = ["numpy"]
    u_f = sp.lambdify((x, t), u_e, mods)
    v_f = sp.lambdify((x, t), sp.diff(u_e, t), mods)
    th_f = sp.lambdify((x, t), th_e, mods)
    body_f = sp.lambdify((x, t), f_body, mods)
    heat_f = sp.lambdify((x, t), g_heat, mods)

    def vec(fn):
        def call(xv, tv):
            return np.asarray(fn(np.asarray(xv, dtype=float), tv), dtype=float)
        return call

    return MmsCase(vec(u_f), vec(v_f), vec(th_f), vec(body_f), vec(heat_f))
