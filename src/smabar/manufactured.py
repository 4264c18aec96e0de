"""Manufactured smooth solutions for convergence verification.

Chooses the exact fields (k = pi / L)

    u*(x, t)     = a sin(k x) sin(omega_u t)
    theta*(x, t) = theta_bar + b cos(k x) cos(omega_t t)

which satisfy pinned mechanical ends (u* and v* vanish at x = 0, L) and
insulated thermal ends (dtheta*/dx vanishes there), and supplies the body
force F* and heat supply G* that make them solve the coupled system with
tau0 = mu = nu = gamma = 0, differentiated by hand into closed form:

    F* = rho u*_tt - [ k1 theta*_x u*_x
                       + (k1 (theta* - theta1) - 3 k2 u*_x^2 + 5 k3 u*_x^4) u*_xx ]
    G* = C_v theta*_t - k0 beta_tilde theta*_x^2
         - k0 (1 + beta_tilde theta*) theta*_xx - k1 theta* u*_x u*_xt

The forcing is derived independently of the solver's discrete right-hand
side, so integrating with it and comparing against the exact fields is a
genuine two-sided check; tests/test_manufactured.py checks every field
against a computer-algebra derivation from the balance laws.  Both fields
are mirror-symmetric about the ends (odd/even), so the one-sided boundary
closures of the solver do not limit the observed spatial order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constitutive import MaterialParams1D

__all__ = ["MmsCase", "build_mms_case", "ZERO_RATES"]

# MaterialParams1D fields the closed-form forcing takes to be zero
ZERO_RATES = ("tau0", "mu", "nu", "gamma")


@dataclass
class MmsCase:
    """Exact fields and compensating forcing, callables of (x, scalar t)."""

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

    Requires the simplified regime tau0 = mu = nu = gamma = 0: a ValueError
    names the rates that are not zero.
    """
    rates = [f"{name} = {getattr(params, name)!r}" for name in ZERO_RATES
             if getattr(params, name) != 0]
    if rates:
        raise ValueError("the manufactured case covers tau0 = mu = nu = "
                         f"gamma = 0 only, not {', '.join(rates)}")
    p, k = params, math.pi / length
    a, b, wu, wt = u_amplitude, theta_amplitude, omega_u, omega_t

    def modes(x):
        kx = k * np.asarray(x, dtype=float)
        return np.sin(kx), np.cos(kx)

    def body(x, t):
        s, c = modes(x)
        su, ct = a * math.sin(wu * t), b * math.cos(wt * t)
        ux, uxx = (k * su) * c, (-k * k * su) * s
        th, thx = theta_bar + ct * c, (-k * ct) * s
        ux2 = ux * ux
        stiffness = p.k1 * (th - p.theta1) - ux2 * (3.0 * p.k2 - 5.0 * p.k3 * ux2)
        return (-p.rho * wu * wu * su) * s - (p.k1 * thx * ux + stiffness * uxx)

    def heat(x, t):
        s, c = modes(x)
        ct = b * math.cos(wt * t)
        th, thx, thxx = theta_bar + ct * c, (-k * ct) * s, (-k * k * ct) * c
        # u*_x u*_xt = a^2 k^2 omega_u sin(omega_u t) cos(omega_u t) cos^2(kx)
        ux_uxt = (a * a * k * k * wu * math.sin(wu * t) * math.cos(wu * t)) * (c * c)
        return ((-p.cv * b * wt * math.sin(wt * t)) * c
                - p.k0 * p.beta_tilde * thx * thx
                - p.k0 * (1.0 + p.beta_tilde * th) * thxx - p.k1 * th * ux_uxt)

    return MmsCase(lambda x, t: a * math.sin(wu * t) * modes(x)[0],
                   lambda x, t: a * wu * math.cos(wu * t) * modes(x)[0],
                   lambda x, t: theta_bar + b * math.cos(wt * t) * modes(x)[1],
                   body, heat)
