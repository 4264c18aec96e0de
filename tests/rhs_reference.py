"""A reference copy of the bar's right-hand side arithmetic.

solver1d._Rhs computes its node terms as one gathered, weighted sum, in
another order than the stencils below; the tests compare the two within
a stated rounding bound on every boundary and rate-term branch.  This copy
is kept as it was written, so it must not follow later changes to the
solver.
"""

import numpy as np

from smabar.constitutive import (MaterialParams1D, _equilibrium_stress,
                                 conductivity)
from smabar.solver1d import BoundarySpec, Forcing, Grid1D, IntegrationError


def _node_average(mid: np.ndarray) -> np.ndarray:
    """Midpoint field -> node field along the last axis: interior average,
    one-sided at the ends.

    Under trapezoid node weights w this is the adjoint of the
    node-to-midpoint average, sum(w a <m>) = sum(m (a[1:] + a[:-1]) / 2),
    which is what makes the coupling exchange conservative.
    """
    out = np.empty(mid.shape[:-1] + (mid.shape[-1] + 1,))
    out[..., 1:-1] = 0.5 * (mid[..., 1:] + mid[..., :-1])
    out[..., 0] = mid[..., 0]
    out[..., -1] = mid[..., -1]
    return out


def _fourth_difference(u: np.ndarray, dx: float) -> np.ndarray:
    """5-point u_xxxx at every node along the last axis (at least five
    nodes), shifted one-sided near the ends."""
    c = (u[..., :-4] - 4.0 * u[..., 1:-3] + 6.0 * u[..., 2:-2]
         - 4.0 * u[..., 3:-1] + u[..., 4:])
    out = np.empty(u.shape)
    out[..., 2:-2] = c
    out[..., :2] = c[..., :1]
    out[..., -2:] = c[..., -1:]
    return out / dx ** 4


class ReferenceRhs:
    """The bar's right-hand side as solver1d._Rhs computed it before its
    node stage became one gathered weighted sum: flattened states with
    interleaved [u, v, theta(, w)].

    z is one state of shape (n,) or a stack of B states of shape (B, n),
    all at the same time t.  Every stencil runs along the last axis, so each
    row of a stack goes through the floating-point operations of a single
    call, in the same order, and gets a bit-identical derivative.  The
    boundary branches, the ghost-temperature rule and the optional rate
    terms (mu, nu, gamma, tau0) are resolved once, here.  forcing.heat and
    forcing.body are evaluated at all nodes once per distinct t (a one-entry
    memo serves consecutive calls at one time, as every residual and
    Jacobian row of an implicit Euler step are), and an array result is
    sliced (a scalar one serves every node as it is).
    """

    def __init__(self, grid: Grid1D, params: MaterialParams1D,
                 bcs: BoundarySpec, forcing: Forcing, gamma_sign: float = 1.0):
        self.grid = grid
        self.p = params
        self.bcs = bcs
        self.forcing = forcing
        self.nf = 4 if params.tau0 > 0 else 3
        self.nn = nn = grid.nx + 1
        self.x = grid.nodes()
        self.dxi = 1.0 / grid.dx
        self._gamma = gamma_sign * params.gamma
        self._free_left = bcs.mech in ("stress_free", "mixed")
        self._free_right = bcs.mech == "stress_free"
        self._fixed_theta = bcs.thermal == "fixed_theta"
        # k0 (1 + beta_tilde theta) is exactly k0 when beta_tilde = 0
        self._k = params.k0 if params.beta_tilde == 0.0 else None
        # theta[..., _pad] is theta with a ghost value one node beyond each
        # end: theta[1] and theta[-2], i.e. zero flux (fixed_theta end rows
        # are frozen; the symmetric ghosts just keep conduction finite).
        # controlled_flux corrects the right ghost by the Robin term
        # -2 dx beta (theta - theta_ambient) / k, which is zero for beta = 0.
        self._pad = np.arange(-1, nn + 1)
        self._pad[0], self._pad[-1] = 1, nn - 2
        self._robin = (2.0 * grid.dx * bcs.beta
                       if bcs.thermal == "controlled_flux" and bcs.beta != 0.0
                       else None)
        self._memo = (None, None)

    # -- physics ------------------------------------------------------------

    def _forcing(self, t: float):
        """(heat, interior body, body at either end) at time t, from a
        one-entry memo keyed on t."""
        if self._memo[0] != t:
            heat = self.forcing.heat(self.x, t)
            body = self.forcing.body(self.x, t)
            ends = ((body[1:-1], body[0], body[-1]) if np.ndim(body)
                    else (body,) * 3)
            self._memo = (t, (heat, *ends))
        return self._memo[1]

    def _theta_pad(self, th: np.ndarray, t: float) -> np.ndarray:
        """theta with its ghost values prepended and appended."""
        th_pad = th[..., self._pad]
        if self._robin is not None:
            end = th[..., -1]
            k_end = self._k if self._k is not None else conductivity(self.p, end)
            th_pad[..., -1] -= self._robin * (end - self.bcs.ambient(t)) / k_end
        return th_pad

    def _cv_n(self, deps: np.ndarray, t: float):
        """(<eps_dot>, C_v - nu <eps_dot>) at the nodes ((None, C_v) when
        nu = 0) from the midpoint strain rates deps; IntegrationError(t)
        where the second, the heat equation's theta_t coefficient, is not
        positive."""
        if self.p.nu == 0.0:
            return None, self.p.cv
        deps_n = _node_average(deps)
        cv_n = self.p.cv - self.p.nu * deps_n
        if (cv_n <= 0).any():
            raise IntegrationError(
                t, "degenerate nu coupling (C_v - nu eps_dot <= 0)")
        return deps_n, cv_n

    def _stress_and_rates(self, Z: np.ndarray, t: float):
        """Midpoint and node terms of the state Z = z.reshape(..., nn, nf)."""
        p, dxi = self.p, self.dxi
        rates = (Z[..., 1:, :2] - Z[..., :-1, :2]) * dxi
        eps, deps = rates[..., 0], rates[..., 1]
        th = Z[..., 2]
        th_m = 0.5 * (th[..., 1:] + th[..., :-1])

        th_pad = self._theta_pad(th, t)
        k_m = self._k
        if k_m is None:
            k_m = conductivity(p, 0.5 * (th_pad[..., 1:] + th_pad[..., :-1]))
        flux = k_m * (th_pad[..., 1:] - th_pad[..., :-1]) * dxi
        cond = (flux[..., 1:] - flux[..., :-1]) * dxi

        coupling = _node_average(th_m * eps * deps)
        g_heat = self._forcing(t)[0]
        dd_n = _node_average(deps * deps) if p.mu != 0.0 else None

        if self.nf == 3:
            cv_n = self._cv_n(deps, t)[1]
            heat_src = cond + p.k1 * coupling + g_heat
            if p.mu != 0.0:
                heat_src = heat_src + p.mu * dd_n
            th_t = heat_src / cv_n
            if self._fixed_theta:
                th_t[..., 0] = th_t[..., -1] = 0.0
        else:
            th_t = Z[..., 3]

        s = _equilibrium_stress(p, th_m, eps)
        if p.mu != 0.0:
            s = s + p.mu * deps
        if p.nu != 0.0:
            s = s + p.nu * 0.5 * (th_t[..., 1:] + th_t[..., :-1])
        return eps, deps, dd_n, th_m, cond, coupling, g_heat, th_t, s

    def stress(self, z: np.ndarray, t: float) -> np.ndarray:
        """Midpoint stress of the packed state z."""
        Z = z.reshape(self.nn, self.nf)
        return self._stress_and_rates(Z, t)[-1]

    def __call__(self, z: np.ndarray, t: float) -> np.ndarray:
        p, dxi = self.p, self.dxi
        Z = z.reshape(z.shape[:-1] + (self.nn, self.nf))
        (eps, deps, dd_n, th_m, cond, coupling,
         g_heat, th_t, s) = self._stress_and_rates(Z, t)
        _, body_in, body_0, body_1 = self._forcing(t)

        dZ = np.empty(Z.shape)
        dZ[..., 0] = Z[..., 1]
        accel = dZ[..., 1]
        interior = (s[..., 1:] - s[..., :-1]) * dxi + body_in
        if p.gamma != 0.0:
            interior += self._gamma * _fourth_difference(Z[..., 0], self.grid.dx)[..., 1:-1]
        np.divide(interior, p.rho, out=accel[..., 1:-1])
        if self._free_left:
            accel[..., 0] = (2.0 * s[..., 0] * dxi + body_0) / p.rho
        else:                            # pinned: u and v held
            dZ[..., 0, :2] = 0.0
        if self._free_right:
            accel[..., -1] = (-2.0 * s[..., -1] * dxi + body_1) / p.rho
        else:
            dZ[..., -1, :2] = 0.0
        dZ[..., 2] = th_t
        if self.nf == 3:
            return dZ.reshape(z.shape)

        # tau0 > 0: (theta, theta_dot) pair with pointwise elimination of
        # the rates; strain acceleration comes from the momentum RHS.
        deps_n, cv_n = self._cv_n(deps, t)
        w = Z[..., 3]
        edd = (accel[..., 1:] - accel[..., :-1]) * dxi
        w_m = 0.5 * (w[..., 1:] + w[..., :-1])
        relax = _node_average(w_m * eps * deps + th_m * deps * deps
                              + th_m * eps * edd)
        numer = -p.cv * w + p.k1 * (coupling + p.tau0 * relax) + cond + g_heat
        if p.mu != 0.0:
            numer = numer + p.mu * (dd_n + p.tau0 * _node_average(2.0 * deps * edd))
        if p.nu != 0.0:
            edd_n = _node_average(edd)
            numer = numer + p.nu * w * (deps_n + p.tau0 * edd_n)
        w_t = dZ[..., 3]
        np.divide(numer, p.tau0 * cv_n, out=w_t)
        if self._fixed_theta:
            w_t[..., 0] = w_t[..., -1] = 0.0
        return dZ.reshape(z.shape)
