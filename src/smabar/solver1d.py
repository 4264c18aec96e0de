"""Method-of-lines solver for the coupled 1D bar dynamics.

Unknowns are displacement u, velocity v and temperature theta at the nx+1
nodes of a uniform grid on [0, L]; strain eps = du/dx and stress s live at
the nx cell midpoints (staggered layout), which makes every spatial stencil
centred and second-order:

    nodes:      u, v, theta (, theta_dot when tau0 > 0)
    midpoints:  eps = diff(u)/dx, eps_dot = diff(v)/dx, s(eps, theta, rates)

Semi-discrete system (density-absorbed coefficients):

    du/dt = v
    rho dv/dt = ds/dx + F (+ gamma u_xxxx)
    C_v dtheta/dt = d/dx(k dtheta/dx) + k1 <theta eps eps_dot> + mu <eps_dot^2>
                    + nu theta_dot <eps_dot> + G

where <.> denotes the midpoint-to-node average (one-sided at the ends).
That particular average makes the spatial scheme conserve the discrete
total energy

    E = sum_nodes w_i (rho v^2/2 + rho e_thermal) dx + sum_mid rho psi3(eps) dx

exactly (trapezoid weights w, F = G = 0, pinned + insulated, mu = nu =
tau0 = 0); time integration is then the only source of drift.

When tau0 > 0 the energy equation is second order in time and is reduced
to first order with the auxiliary field theta_dot; the strain acceleration
required by the relaxation coupling terms is evaluated from the momentum
right-hand side, so no stage lagging is needed.  The nu theta_dot terms are
linear in the unknown rate and are eliminated pointwise.

A right-hand side call (_Rhs) takes the midpoint terms by strided
differences of the state, and then every node derivative of the base
system (du/dt, the stress divergence, conduction with a constant k and
the averaged coupling) at once, as one gather of at most five midpoint
values and state entries per node, weighted by a table built once per
run.  The other terms (k(theta), mu, nu, gamma, tau0) are added to that
sum.

Integrators: classical explicit RK4 (default; subject to the bound of
`stable_dt`) and the fixed-step implicit `implicit_euler` and
`implicit_midpoint`, solved by chord iterations on banded LU factors of a
coloured finite-difference Jacobian (`_ImplicitStepper`).  _Rhs owns
everything a stepper needs to know of the packed state: the Jacobian's
half-bandwidth, the per-field increment scales, the tau0 row weights and
the plausibility test of a solution, so the implicit stepper reads nothing
of the bar.  Each run keeps its stepper, with its work counters, on the
Trajectory that simulate returns.  The README's "Numerical notes" give
the chord iteration's refresh and stopping rules, when and how scipy's
LAPACK is loaded, and why backward Euler is the integrator of the
phase-transformation experiments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Optional

import numpy as np

from .constitutive import (MaterialParams1D, _equilibrium_stress, conductivity,
                           internal_energy, strain_energy)

__all__ = [
    "Grid1D",
    "BoundarySpec",
    "Forcing",
    "FieldState",
    "RunSetup",
    "Trajectory",
    "IntegrationError",
    "rhs",
    "step",
    "simulate",
    "energy_budget",
    "stable_dt",
]

MECH_KINDS = ("stress_free", "pinned", "mixed")
THERMAL_KINDS = ("insulated", "controlled_flux", "fixed_theta")
INTEGRATORS = ("rk4", "implicit_euler", "implicit_midpoint")

# physical-plausibility guards used to reject spurious implicit solutions
_THETA_FLOOR = 1.0     # K
_EPS_CEIL = 0.5        # |strain| beyond any admissible well


class IntegrationError(RuntimeError):
    """Time integration failed; carries the failure time."""

    def __init__(self, time: float, reason: str):
        super().__init__(f"integration aborted at t={time:.6g} ms: {reason}")
        self.time = time
        self.reason = reason


def _check_positive(obj, names=("dt", "t_end", "output_interval")):
    """ValueError unless each named attribute of obj (by default the run
    times) is positive and finite."""
    for name in names:
        value = getattr(obj, name)
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be "
                             f"{'finite' if value > 0 else 'positive'}")


@dataclass(frozen=True)
class Grid1D:
    """Uniform staggered grid: nx cells on [0, length]."""

    length: float
    nx: int

    def __post_init__(self):
        _check_positive(self, ("length",))
        if self.nx < 4:
            raise ValueError("nx must be at least 4")

    @property
    def dx(self) -> float:
        return self.length / self.nx

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.nx + 1)

    def midpoints(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.dx


@dataclass
class BoundarySpec:
    """Mechanical and thermal end conditions.

    mech: 'stress_free' (s = 0 at both ends), 'pinned' (u = 0 at both
    ends) or 'mixed' (stress-free left, pinned right).

    thermal: 'insulated' (zero flux both ends), 'controlled_flux' (left
    end insulated, right end -k dtheta/dx = beta (theta - theta_ambient(t)))
    or 'fixed_theta' (both end temperatures held at fixed_value).
    """

    mech: str = "pinned"
    thermal: str = "insulated"
    beta: float = 0.0
    theta_ambient: float | Callable[[float], float] = 0.0
    fixed_value: float = 300.0

    def __post_init__(self):
        if self.mech not in MECH_KINDS:
            raise ValueError(f"mech must be one of {MECH_KINDS}")
        if self.thermal not in THERMAL_KINDS:
            raise ValueError(f"thermal must be one of {THERMAL_KINDS}")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.thermal == "fixed_theta" and self.fixed_value <= 0:
            raise ValueError("fixed_value must be positive")
        if (self.thermal == "controlled_flux" and self.beta > 0
                and not callable(self.theta_ambient)
                and not self.theta_ambient > 0):
            raise ValueError("theta_ambient must be positive")

    def ambient(self, t: float) -> float:
        if callable(self.theta_ambient):
            return float(self.theta_ambient(t))
        return float(self.theta_ambient)


@dataclass
class Forcing:
    """Body force F(x, t) in g/(ms^2 cm^2) and heat supply G(x, t) in
    g/(ms^3 cm), both given as vectorised callables that are elementwise in
    x: the solver calls each on all nodes and slices the interior and end
    values from that result.  Each is called once per distinct t among
    consecutive right-hand sides: the returned arrays are kept and reused
    for every evaluation at that t, so a callable must not modify an array
    it has returned (the solver never does).  A callable whose value does
    not depend on x may return it as a scalar, which the solver uses as-is
    for every node; adding a float gives the same bits as adding an array
    filled with it."""

    body: Callable[[np.ndarray, float], np.ndarray | float]
    heat: Callable[[np.ndarray, float], np.ndarray | float]

    @classmethod
    def none(cls) -> "Forcing":
        zero = lambda x, t: 0.0
        return cls(zero, zero)


@dataclass
class FieldState:
    """Grid fields at one instant; theta_dot is present only for tau0 > 0."""

    t: float
    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    theta_dot: Optional[np.ndarray] = None

    def validate(self, grid: Grid1D, params: MaterialParams1D):
        n = grid.nx + 1
        if params.tau0 > 0 and self.theta_dot is None:
            raise ValueError("theta_dot field required when tau0 > 0")
        if params.tau0 == 0 and self.theta_dot is not None:
            raise ValueError("theta_dot must be absent when tau0 = 0")
        for name in ("u", "v", "theta", "theta_dot"):
            arr = getattr(self, name)
            if arr is None:
                continue
            if np.asarray(arr).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if np.any(self.theta <= 0):
            raise ValueError("theta must be positive everywhere")

    def copy(self) -> "FieldState":
        return FieldState(self.t, self.u.copy(), self.v.copy(),
                          self.theta.copy(),
                          None if self.theta_dot is None else self.theta_dot.copy())

    def strain(self, grid: Grid1D) -> np.ndarray:
        return np.diff(self.u) / grid.dx


# ---------------------------------------------------------------------------
# spatial operators


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


class _Rhs:
    """Flattened-state right-hand side with interleaved [u, v, theta(, w)].

    z is one state of shape (n,) or a stack of B states of shape (B, n),
    all at the same time t.  A call has two stages.

    Midpoint stage: one difference of z with itself shifted by a node
    gives eps and eps_dot (as strided views), a strided sum gives theta_m
    at the nx midpoints, and from them the stress s (with mu eps_dot, and
    with nu <theta_dot> when tau0 > 0 stores theta_dot).  Temporaries are
    updated in place, in the order of operations of the formulas.

    Node stage: each of the n derivatives is a weighted sum of at most
    five entries of q = [s, theta_m eps eps_dot, z], plus a forcing
    vector.  One take over q by a (5, n) tap table, one product with a
    (5, n) weight table and one sum over the taps give, for every row at
    once: du = v, the stress divergence over rho (one-sided 2 s / dx at a
    free end), and, over C_v (over tau0 C_v on the theta_dot rows when
    tau0 > 0), the conduction with a constant k and ghost values mirrored
    about each end (the Robin ghost of controlled_flux folded in) and the
    coupling k1 <theta eps eps_dot>, averaged one-sided at the ends.  The
    rows an end condition holds (u and v at a pinned end, the heat rows at
    a fixed_theta end) have zero weights.  The forcing vector holds
    body/rho on the v rows, heat/C_v on the heat rows and the Robin
    ghost's ambient term.  It is built once per distinct t from
    forcing.body and forcing.heat evaluated at all nodes (a one-entry memo
    serves consecutive calls at one time, as every residual and Jacobian
    row of an implicit Euler step are; a scalar forcing serves every
    node).

    Terms that are not fixed weights are then added to that sum: the
    conduction with a k that varies with theta (its Robin ghost included),
    the mu, nu and gamma terms, and, when tau0 > 0, the theta_dot rows'
    -C_v theta_dot and relaxation terms.  The tables are built once, here,
    and hold O(n) values.

    For an implicit stepper (_ImplicitStepper) it also owns the packed
    layout's band, scales, row weights and plausibility test: half_bw,
    the Jacobian's half-bandwidth from the stencil's node reach; scale, a
    negligible increment of each field tiled over the nodes; row_weights(dt),
    the tau0 weights of the theta_dot rows; and plausible(z).

    Every stencil runs along the last axis, so each row of a stack goes
    through the floating-point operations of a single call, in the same
    order, and gets a bit-identical derivative.
    """

    def __init__(self, grid: Grid1D, params: MaterialParams1D,
                 bcs: BoundarySpec, forcing: Forcing, gamma_sign: float = 1.0):
        self.grid = grid
        self.p = params
        self.bcs = bcs
        self.forcing = forcing
        self.nf = nf = 4 if params.tau0 > 0 else 3
        self.nn = nn = grid.nx + 1
        self.x = grid.nodes()
        self.dxi = dxi = 1.0 / grid.dx
        self._gamma = gamma_sign * params.gamma
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
        # what an implicit stepper needs of the packed layout: the node
        # reach of the stencil is 1 in the base case; the tau0 acceleration
        # coupling and the nu rate elimination extend it to 2, the
        # one-sided Ginsburg boundary closure to 3, and to 4 when the tau0
        # coupling differences that closure's accelerations.  scale is the
        # size of a negligible increment of each field.
        reach = 1
        if nf == 4 or params.nu != 0.0:
            reach = 2
        if params.gamma != 0.0:
            reach = 4 if nf == 4 else 3
        self.half_bw = (reach + 1) * nf - 1
        self.scale = np.tile((1e-2, 1e-1, 200.0, 10.0)[:nf], nn)

        # node-stage weights, per node: 1/rho on the v rows and 1/C_v (1 /
        # (tau0 C_v) on the theta_dot rows when tau0 > 0) on the heat
        # equation's rows, zero where an end condition holds the row
        self._heat = 2 if nf == 3 else 3
        held = np.zeros(nn, dtype=bool)       # u and v held at pinned ends
        held[0] = bcs.mech == "pinned"
        held[-1] = bcs.mech != "stress_free"
        self._body_w = np.where(held, 0.0, 1.0 / params.rho)
        self._heat_w = np.full(nn, 1.0 / (params.cv if nf == 3
                                          else params.tau0 * params.cv))
        if bcs.thermal == "fixed_theta":
            self._heat_w[[0, -1]] = 0.0
        # with a constant k the Robin ghost puts -robin theta / dx^2 in the
        # last node's conduction and robin theta_ambient / dx^2 in the
        # forcing vector; a k that varies is conducted by _conduction
        kw = 0.0 if self._k is None else self._k * dxi * dxi
        rw = (0.0 if self._k is None or self._robin is None
              else self._robin * dxi * dxi)
        self._ambient_w = rw * self._heat_w[-1] if rw else None

        # q = [s, theta_m eps eps_dot, z]: node i reads the midpoints lo
        # and hi on either side of it (one-sided at the ends), at q offsets
        # 0 and nx, and its own fields at at, at + 1, ... (u, v, ...); a
        # tap of zero weight repeats one of the row's own taps
        nx = grid.nx
        i = np.arange(nn)
        lo, hi = np.maximum(i - 1, 0), np.minimum(i, nx - 1)
        at = 2 * nx + nf * i
        self._taps = np.empty((5, nn * nf), dtype=np.intp)
        self._weights = np.zeros((5, nn * nf))
        taps = self._taps.reshape(5, nn, nf)
        weights = self._weights.reshape(5, nn, nf)
        # du = v
        taps[:, :, 0] = at + 1
        weights[0, :, 0] = ~held
        # rho dv = (s[i] - s[i-1]) / dx, one-sided 2 s / dx at free ends
        taps[:, :, 1] = hi
        taps[0, :, 1] = lo
        weights[0, 1:, 1] = -dxi
        weights[1, :-1, 1] = dxi
        weights[0, -1, 1] *= 2.0
        weights[1, 0, 1] *= 2.0
        weights[:, :, 1] *= self._body_w
        # theta_t = theta_dot when tau0 > 0
        if nf == 4:
            taps[:, :, 2] = at + 3
            weights[0, :, 2] = 1.0
        # heat: k (theta[i-1] - 2 theta[i] + theta[i+1]) / dx^2 over the
        # ghosts, k1 (c[i-1] + c[i]) / 2 with c = theta_m eps eps_dot,
        # one-sided at the ends
        h = self._heat
        ghosts = 2 * nx + nf * self._pad + 2
        taps[:3, :, h] = ghosts[:-2], at + 2, ghosts[2:]
        taps[3:, :, h] = nx + lo, nx + hi
        weights[:, :, h] = np.array([[kw], [-2.0 * kw], [kw],
                                     [0.5 * params.k1], [0.5 * params.k1]])
        weights[3:, 0, h] = 0.0, params.k1
        weights[3:, -1, h] = params.k1, 0.0
        weights[1, -1, h] -= rw
        weights[:, :, h] *= self._heat_w

    # -- state packing ------------------------------------------------------

    def pack(self, state: FieldState) -> np.ndarray:
        cols = [state.u, state.v, state.theta]
        if self.nf == 4:
            cols.append(state.theta_dot)
        return np.stack(cols, axis=1).ravel()

    def unpack(self, z: np.ndarray, t: float) -> FieldState:
        Z = z.reshape(self.nn, self.nf)
        w = Z[:, 3].copy() if self.nf == 4 else None
        return FieldState(t, Z[:, 0].copy(), Z[:, 1].copy(), Z[:, 2].copy(), w)

    def check(self, z: np.ndarray, t: float):
        """IntegrationError(t) when a temperature of the packed state z, or
        its C_v - nu <eps_dot> (_cv_n), is not positive; reads views of z."""
        if np.logical_or.reduce(z[2::self.nf] <= 0):
            raise IntegrationError(t, "non-positive temperature")
        if self.p.nu != 0.0:
            v = z[1::self.nf]
            self._cv_n((v[1:] - v[:-1]) * self.dxi, t)

    def row_weights(self, dt: float) -> Optional[np.ndarray]:
        """D for an implicit step of size dt: 1 on every row but theta_dot's,
        min(1, tau0 / dt) there; None when D = I (tau0 = 0 or tau0 >= dt)."""
        if self.nf == 3 or self.p.tau0 >= dt:
            return None
        d = np.ones(self.nn * self.nf)
        d[3::4] = self.p.tau0 / dt
        return d

    def plausible(self, z: np.ndarray) -> bool:
        """Whether the packed state z is finite, with every theta above
        _THETA_FLOOR and every |eps| below _EPS_CEIL: an implicit solve
        that ends elsewhere found a spurious root."""
        if not np.logical_and.reduce(np.isfinite(z)):
            return False
        if np.minimum.reduce(z[2::self.nf]) <= _THETA_FLOOR:
            return False
        u = z[::self.nf]
        return (np.maximum.reduce(abs(u[1:] - u[:-1])) / self.grid.dx
                < _EPS_CEIL)

    def diag(self, state: FieldState) -> tuple:
        """Diagnostics row (t, total energy, max |eps|, theta_min,
        theta_max)."""
        return (state.t, energy_budget(state, self.grid, self.p),
                float(np.abs(state.strain(self.grid)).max()),
                float(state.theta.min()), float(state.theta.max()))

    # -- physics ------------------------------------------------------------

    def _forcing(self, t: float) -> np.ndarray:
        """The node stage's forcing vector at time t, kept with t as the
        one-entry memo that _stages reads first."""
        vec = np.zeros(self.nn * self.nf)
        rows = vec.reshape(self.nn, self.nf)
        rows[:, 1] = self.forcing.body(self.x, t) * self._body_w
        rows[:, self._heat] = self.forcing.heat(self.x, t) * self._heat_w
        if self._ambient_w is not None:
            rows[-1, self._heat] += self._ambient_w * self.bcs.ambient(t)
        self._memo = (t, vec)
        return vec

    def _conduction(self, th: np.ndarray, t: float) -> np.ndarray:
        """d/dx(k(theta) dtheta/dx) at the nodes, for a k that varies with
        theta, from theta with its ghost values."""
        th_pad = th[..., self._pad]
        if self._robin is not None:
            end = th[..., -1]
            th_pad[..., -1] -= (self._robin * (end - self.bcs.ambient(t))
                                / conductivity(self.p, end))
        k_m = conductivity(self.p, 0.5 * (th_pad[..., 1:] + th_pad[..., :-1]))
        flux = k_m * (th_pad[..., 1:] - th_pad[..., :-1]) * self.dxi
        return (flux[..., 1:] - flux[..., :-1]) * self.dxi

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

    def _stages(self, z: np.ndarray, t: float):
        """(Z, eps, deps, th_m, s, dz): z as (..., nn, nf), the midpoint
        terms and stress, and dz, complete but for the tau0 relaxation of
        the theta_dot rows."""
        p, nf = self.p, self.nf
        Z = z.reshape(z.shape[:-1] + (self.nn, nf))
        # every field's difference of neighbouring nodes over dx, taken on
        # z's flat layout; eps and eps_dot are those of u and v
        rates = z[..., nf:] - z[..., :-nf]
        rates *= self.dxi
        eps, deps = rates[..., 0::nf], rates[..., 1::nf]
        th = Z[..., 2]
        th_m = th[..., 1:] + th[..., :-1]
        th_m *= 0.5
        s = _equilibrium_stress(p, th_m, eps)
        if p.mu != 0.0:
            s += p.mu * deps
        if nf == 4 and p.nu != 0.0:
            w = Z[..., 3]
            w_m = w[..., 1:] + w[..., :-1]
            w_m *= p.nu * 0.5
            s += w_m

        coupling = th_m * eps
        coupling *= deps
        q = np.concatenate((s, coupling, z), axis=-1)
        terms = q.take(self._taps, axis=-1)
        terms *= self._weights
        dz = np.add.reduce(terms, axis=-2)
        memo_t, forcing = self._memo
        dz += forcing if memo_t == t else self._forcing(t)
        dZ = dz.reshape(Z.shape)
        if self._k is None:
            dZ[..., self._heat] += self._conduction(th, t) * self._heat_w
        if p.mu != 0.0:
            dZ[..., self._heat] += (p.mu * _node_average(deps * deps)
                                    * self._heat_w)
        if nf == 3 and p.nu != 0.0:
            # C_v theta_t = ... + nu theta_t <eps_dot>, eliminated pointwise;
            # the stress's nu <theta_t> adds its divergence to the v rows
            heat = dZ[..., 2]
            heat *= p.cv / self._cv_n(deps, t)[1]
            rate = heat[..., 1:] + heat[..., :-1]
            rate *= p.nu * 0.5
            s += rate
            taps, weights = self._taps[:2, 1::nf], self._weights[:2, 1::nf]
            terms = rate.take(taps, axis=-1)
            terms *= weights
            dZ[..., 1] += np.add.reduce(terms, axis=-2)
        if p.gamma != 0.0:
            dZ[..., 1:-1, 1] += (self._gamma / p.rho) * _fourth_difference(
                Z[..., 0], self.grid.dx)[..., 1:-1]
        return Z, eps, deps, th_m, s, dz

    def stress(self, state: FieldState) -> np.ndarray:
        """Midpoint stress of state."""
        return self._stages(self.pack(state), state.t)[4]

    def __call__(self, z: np.ndarray, t: float) -> np.ndarray:
        Z, eps, deps, th_m, s, dz = self._stages(z, t)
        if self.nf == 3:
            return dz

        # tau0 > 0: (theta, theta_dot) pair with pointwise elimination of
        # the rates; strain acceleration comes from the momentum rows.
        p, dxi = self.p, self.dxi
        deps_n, cv_n = self._cv_n(deps, t)
        dZ = dz.reshape(Z.shape)
        w = Z[..., 3]
        accel = dZ[..., 1]
        edd = (accel[..., 1:] - accel[..., :-1]) * dxi
        w_m = 0.5 * (w[..., 1:] + w[..., :-1])
        relax = _node_average(w_m * eps * deps + th_m * deps * deps
                              + th_m * eps * edd)
        numer = p.k1 * p.tau0 * relax - p.cv * w
        if p.mu != 0.0:
            numer = numer + p.mu * p.tau0 * _node_average(2.0 * deps * edd)
        if p.nu != 0.0:
            edd_n = _node_average(edd)
            numer = numer + p.nu * w * (deps_n + p.tau0 * edd_n)
        w_t = dZ[..., 3]
        w_t += numer * self._heat_w
        if p.nu != 0.0:
            w_t *= p.cv / cv_n
        return dz


# ---------------------------------------------------------------------------
# public physics operators


def rhs(state: FieldState, grid: Grid1D, params: MaterialParams1D,
        bcs: BoundarySpec, forcing: Forcing, t: float | None = None,
        gamma_sign: float = 1.0) -> FieldState:
    """Time derivatives of (u, v, theta[, theta_dot]) as a FieldState.

    Aborts with IntegrationError if theta is non-positive anywhere.
    """
    try:
        state.validate(grid, params)
    except ValueError:
        if np.any(state.theta <= 0):
            raise IntegrationError(state.t, "non-positive temperature in state") from None
        raise
    f = _Rhs(grid, params, bcs, forcing, gamma_sign)
    t = state.t if t is None else t
    return f.unpack(f(f.pack(state), t), t)


def energy_budget(state: FieldState, grid: Grid1D,
                  params: MaterialParams1D) -> float:
    """Discrete total energy, integral of rho (v^2/2 + e) over the bar.

    Kinetic and thermal internal energy are integrated by the trapezoid
    rule over nodes; the strain energy rho psi3(eps) by the midpoint rule
    over cells, matching the staggered layout (this split form is the
    quantity the spatial scheme conserves exactly).
    """
    dx = grid.dx
    w = np.ones(grid.nx + 1)
    w[0] = w[-1] = 0.5
    e_node = internal_energy(params, state.theta, 0.0)
    nodal = params.rho * (0.5 * state.v ** 2 + e_node)
    mech = params.rho * strain_energy(params, state.strain(grid))
    return float(np.sum(w * nodal) * dx + np.sum(mech) * dx)


def stable_dt(state: FieldState, grid: Grid1D,
              params: MaterialParams1D) -> float:
    """Explicit RK4 step bound for the current state.

    Wave part: dt <= sqrt(2) dx / c with c^2 = max(s'(eps, theta), 0)/rho
    and the tangent modulus s' = k1 (theta - theta1) - 3 k2 eps^2 +
    5 k3 eps^4 evaluated at every midpoint (RK4 covers |z| <= 2 sqrt(2) on
    the imaginary axis and the staggered first-difference pair reaches
    2 c/dx).  Diffusion part: dt <= 2.785 C_v dx^2 / (4 k).  Relaxation
    part: dt <= 2.785 tau0 when the auxiliary theta_dot field is present.
    Note the full tangent modulus matters: near the martensite wells the
    quintic term dominates and the naive bound sqrt(k1 |theta - theta1|/rho)
    badly underestimates the wave speed.  A tangent modulus that is not
    finite at every midpoint (a strain so large that a power of it
    overflows) is a ValueError: it bounds no step.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        eps = state.strain(grid)
        th_m = 0.5 * (state.theta[1:] + state.theta[:-1])
        sprime = (params.k1 * (th_m - params.theta1)
                  - 3.0 * params.k2 * eps ** 2 + 5.0 * params.k3 * eps ** 4)
    if not np.isfinite(sprime).all():
        raise ValueError("the tangent modulus k1 (theta - theta1) - "
                         "3 k2 eps^2 + 5 k3 eps^4 of the state is not "
                         "finite at every midpoint")
    c2 = max(float(np.max(sprime)), 0.0) / params.rho
    dx = grid.dx
    bounds = []
    if c2 > 0:
        bounds.append(np.sqrt(2.0) * dx / np.sqrt(c2))
    k_max = float(np.max(np.asarray(conductivity(params, state.theta))))
    bounds.append(2.785 * params.cv * dx * dx / (4.0 * k_max))
    if params.tau0 > 0:
        bounds.append(2.785 * params.tau0)
    return min(bounds)


# ---------------------------------------------------------------------------
# time integration


class _Rk4Stepper:
    """Classical explicit RK4 on the right-hand side f(z, t); nfe counts
    its evaluations, four per step (a step that aborts included)."""

    def __init__(self, f):
        self.f = f
        self.nfe = 0

    def advance(self, z: np.ndarray, t: float, dt: float) -> np.ndarray:
        """z + (dt/6) (k1 + 2 k2 + 2 k3 + k4), in that order of operations;
        f must return a new array, which the step then overwrites."""
        f, half = self.f, 0.5 * dt
        self.nfe += 4
        k1 = f(z, t)
        y = k1 * half
        y += z
        k2 = f(y, t + half)
        y = k2 * half
        y += z
        k3 = f(y, t + half)
        y = k3 * dt
        y += z
        k4 = f(y, t + dt)
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= dt / 6.0
        k2 += z
        return k2


@cache
def _lapack():
    """(dgbtrf, dgbtrs), loaded on first use: RK4 and slab runs never
    factor a matrix.

    They come from scipy.linalg._flapack, the compiled wrapper that
    scipy.linalg.lapack re-exports, loaded by file path so that the
    scipy.linalg package __init__ never runs: it imports all of
    scipy.linalg, more than ten times the load time of the wrapper alone
    (README).  `import scipy` comes first because it runs scipy's
    distributor init, which on Windows puts the bundled OpenBLAS DLL on
    the search path.  A missing wrapper is an ImportError naming the
    path, so a change in scipy's layout fails loudly."""
    import scipy
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
    from importlib.util import module_from_spec, spec_from_file_location

    name = "scipy.linalg._flapack"
    path = os.path.join(os.path.dirname(scipy.__file__), "linalg",
                        "_flapack" + EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"scipy's LAPACK wrapper {path} does not exist",
                          name=name, path=path)
    loader = ExtensionFileLoader(name, path)
    flapack = module_from_spec(spec_from_file_location(name, path,
                                                       loader=loader))
    loader.exec_module(flapack)
    return flapack.dgbtrf, flapack.dgbtrs


def _band_lu(ab: np.ndarray, hb: int):
    """LU factors (lu, piv) of the matrix with hb sub- and super-diagonals
    held in LAPACK gbtrf storage: ab[2 hb + i - j, j] = a[i, j], the first
    hb rows being room for fill-in.  ab is overwritten.  None when an entry
    is not finite or the matrix is singular."""
    if not np.isfinite(ab).all():
        return None
    lu, piv, info = _lapack()[0](ab, hb, hb, overwrite_ab=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gbtrf")
    return (lu, piv) if info == 0 else None


class _ImplicitStepper:
    """Fixed-step implicit Euler / midpoint with damped banded Newton.

    The stepper knows nothing of the state's layout: its right-hand side f
    supplies f(z, t), for a state z or a stack of them, as a new array
    (the stepper overwrites it), and the four members that describe z,
    which _Rhs owns for the bar: half_bw, the half-bandwidth of the
    Jacobian; scale, the size of a negligible increment of each entry
    (increment and residual norms are max |r| / scale, each taken in one
    pass with the solve or residual it norms); row_weights(dt), the row
    weights D of a step of size dt (None when D = I); and plausible(z),
    whether a solution is acceptable.

    The Jacobian is assembled by coloured finite differences in banded
    storage: z and its 2 hb + 1 coloured perturbations form one (2 hb + 2,
    n) stack, evaluated by a single call of f; nfe counts each row of it as
    one evaluation.  The LU factors of I - w J are kept: every chord
    iteration solves with them, across steps.  When the scaled increment
    norm contracts by less than THETA_REFRESH per iteration, the factors
    are refreshed once per solve at the current iterate, and the iteration
    goes on from it.  The chord iteration stops on |dz_k| < TOL or, from
    its second increment on, on the error estimate (see _converged); one
    whose residual stops decreasing hands the step to damped Newton.
    Residuals and Newton matrices are row-weighted by D.  A singular
    factor or a non-finite solve is a failed solve.  A solution is
    accepted only if f finds it plausible; when the Newton iteration fails
    or finds no plausible solution the step is halved locally, which
    resolves snap-through transients.
    """

    MAX_DEPTH = 12

    def __init__(self, f, kind: str):
        self.f = f
        self.kind = kind
        # band entry (hb + o, j) holds row j + o of column j where that row
        # exists; _banded_jacobian fills all of them in one scatter, from
        # the differences df of shape (2 hb + 1, n) at the flat index
        # _gather.  Column j has colour j % (2 hb + 1), and its perturbed
        # entry sits at the flat index _perturb of the (2 hb + 2, n) stack.
        hb, n = f.half_bw, f.scale.size
        cols = np.arange(n)
        rows = cols + np.arange(-hb, hb + 1)[:, None]
        self._in_band = (rows >= 0) & (rows < n)
        self._band_rows = rows[self._in_band]
        self._band_cols = np.broadcast_to(cols, rows.shape)[self._in_band]
        colour = cols % (2 * hb + 1)
        self._gather = colour[self._band_cols] * n + self._band_rows
        self._perturb = (1 + colour) * n + cols
        # increment and residual norms are taken in this buffer
        self._buf = np.empty(n)
        self.lu = None
        # work counters; fallbacks counts chord iterations that gave way to
        # damped Newton
        self.nfe = 0
        self.subdivided = 0
        self.factorisations = 0
        self.solves = 0
        self.refreshes = 0
        self.fallbacks = 0

    # -- helpers -----------------------------------------------------------

    def _norm(self, r: np.ndarray) -> float:
        """max |r| / scale, inf when that is nan."""
        buf = self._buf
        np.abs(r, out=buf)
        np.divide(buf, self.f.scale, out=buf)
        val = float(np.maximum.reduce(buf))
        return val if val < np.inf else np.inf

    def _increment(self, factors, r: np.ndarray):
        """(dz, _norm(dz)) for the increment dz = -a^-1 r, from _band_lu's
        factors of a, or None when dz is not finite (a non-finite entry of r
        leaves one in dz: the triangular solves carry it through).  Only an
        infinite norm, which every non-finite dz has, is followed by the
        entry-by-entry test: a finite dz whose scaled norm overflows is
        returned with norm inf."""
        hb = self.f.half_bw
        x, info = _lapack()[1](factors[0], hb, hb, -r, factors[1],
                               overwrite_b=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of gbtrs")
        dn = self._norm(x)
        if dn == np.inf and not np.logical_and.reduce(np.isfinite(x)):
            return None
        return x, dn

    def _banded_jacobian(self, z: np.ndarray, t: float) -> np.ndarray:
        ncol = 2 * self.f.half_bw + 1
        h = 1e-7 * np.maximum(np.abs(z), 1.0)
        # row 0 is z, row 1 + c is z with every column of colour c
        # perturbed; one call evaluates all the rows
        zs = np.tile(z, (ncol + 1, 1))
        zs.reshape(-1)[self._perturb] += h
        fs = self.f(zs, t)
        self.nfe += ncol + 1
        df = fs[1:] - fs[0]
        ab = np.zeros((ncol, z.size))
        ab[self._in_band] = df.take(self._gather) / h.take(self._band_cols)
        return ab

    def _system_matrix(self, z: np.ndarray, t: float, dt: float):
        """_band_lu factors of D (I - w J(z, t)), or None (see _band_lu)."""
        w = dt if self.kind == "implicit_euler" else 0.5 * dt
        hb = self.f.half_bw
        ab = np.zeros((3 * hb + 1, z.size))
        ab[hb:] = -w * self._banded_jacobian(z, t)
        ab[2 * hb] += 1.0
        d = self.f.row_weights(dt)
        if d is not None:
            band = ab[hb:]
            band[self._in_band] *= d[self._band_rows]
        self.factorisations += 1
        return _band_lu(ab, hb)

    # -- one nonlinear solve -------------------------------------------------

    TOL = 1e-11
    THETA_REFRESH = 0.1

    def _stage(self, z: np.ndarray, t: float, dt: float):
        """(resid, matrix) of the step from (z, t): the row-weighted
        residual of zg with its norm, and the _system_matrix factors, both
        taken at the stage point of zg, which is zg at t + dt for implicit
        Euler and 0.5 (z + zg) at t + dt/2 for the midpoint rule."""
        f, d = self.f, self.f.row_weights(dt)
        if self.kind == "implicit_euler":
            point, ts = (lambda zg: zg), t + dt
        else:
            point, ts = (lambda zg: 0.5 * (z + zg)), t + 0.5 * dt

        def resid(zg):
            """(r, _norm(r)) of zg: D (zg - z - dt f(point(zg), ts))."""
            self.nfe += 1
            fz = f(point(zg), ts)
            fz *= dt
            r = zg - z
            r -= fz
            if d is not None:
                r *= d
            return r, self._norm(r)

        return resid, lambda zg: self._system_matrix(point(zg), ts, dt)

    def _converged(self, dn: float, dn_prev: float = np.inf) -> bool:
        """Increment-based convergence test on dn = _norm(increment): dn
        below TOL, or, when the previous increment norm dn_prev is finite
        and larger, the error estimate eta dn below TOL, with contraction
        rate theta = dn / dn_prev and eta = theta / (1 - theta) (Hairer &
        Wanner, Solving ODEs II, IV.8).

        The residual itself is a poor test in the stiff tau0 regime: the
        theta_dot rows amplify state noise by 1/tau0, so their residual
        floor can sit above any fixed tolerance while the Newton increment
        (divided by the matching 1 + dt/tau0 diagonal) is negligible.
        """
        if dn < self.TOL:
            return True
        if not dn < dn_prev < np.inf:
            return False
        theta = dn / dn_prev
        return theta / (1.0 - theta) * dn < self.TOL

    def _solve(self, z: np.ndarray, t: float, dt: float) -> Optional[np.ndarray]:
        """One implicit solve; iterates always start from the step state z
        so a misbehaving Jacobian can never strand the iteration in a
        remote Newton basin (spurious roots of the implicit equations do
        exist near snap-through events)."""
        resid, matrix = self._stage(z, t, dt)
        with np.errstate(over="ignore", invalid="ignore"):
            # fast path: undamped chord iteration with the cached LU factors,
            # refreshed once at the current iterate when the contraction
            # rate dn / dn_prev exceeds THETA_REFRESH
            if self.lu is not None:
                zg = z.copy()
                r, rn = resid(zg)
                dn_prev, refreshed = np.inf, False
                for _ in range(25):
                    inc = self._increment(self.lu, r)
                    self.solves += 1
                    if inc is None:
                        break
                    dz, dn = inc
                    zg += dz
                    if self._converged(dn, dn_prev):
                        if self.f.plausible(zg):
                            return zg
                        break
                    r, rtn = resid(zg)
                    if not rtn < rn:
                        break
                    rn = rtn
                    if not refreshed and dn > self.THETA_REFRESH * dn_prev:
                        refreshed = True
                        self.refreshes += 1
                        self.lu = matrix(zg)
                        if self.lu is None:
                            break
                    dn_prev = dn
                self.lu = None
                self.fallbacks += 1

            # robust path: damped Newton with a fresh Jacobian per
            # iteration.  Strong curvature (quadratic rate terms) can make
            # full steps overshoot badly near impulsive transients; rather
            # than creep with damped steps, bail out quickly and let the
            # caller halve the step, which shrinks the nonlinear update
            # superlinearly.
            zg = z.copy()
            r, rn = resid(zg)
            damped = 0
            for _ in range(15):
                lu = matrix(zg)
                if lu is None:
                    return None
                inc = self._increment(lu, r)
                self.solves += 1
                if inc is None:
                    return None
                self.lu = lu             # cache for the next step's fast path
                dz, dn = inc
                if self._converged(dn):
                    zg = zg + dz
                    return zg if self.f.plausible(zg) else None
                lam, accepted = 1.0, False
                for _ in range(6):
                    zt = zg + lam * dz
                    rt, rtn = resid(zt)
                    if rtn < rn:
                        zg, r, rn = zt, rt, rtn
                        accepted = True
                        break
                    lam *= 0.5
                if not accepted:
                    self.lu = None
                    return None
                damped += 1 if lam < 1.0 else 0
                if damped >= 4:
                    self.lu = None
                    return None
        return None

    def advance(self, z: np.ndarray, t: float, dt: float, depth: int = 0) -> np.ndarray:
        out = self._solve(z, t, dt)
        if out is not None:
            return out
        if depth >= self.MAX_DEPTH:
            raise IntegrationError(t, "implicit step failed to converge")
        if depth == 0:
            self.subdivided += 1
        z1 = self.advance(z, t, 0.5 * dt, depth + 1)
        z2 = self.advance(z1, t + 0.5 * dt, 0.5 * dt, depth + 1)
        self.lu = None
        return z2


def _clamp_ends(state: FieldState, bcs: BoundarySpec) -> FieldState:
    """Set the end values the boundary conditions hold: zero u and v at
    pinned ends, exactly (ICs built from analytic profiles may carry
    round-off there, e.g. sin(pi) != 0 in floats), and theta = fixed_value
    at fixed_theta ends."""
    if bcs.mech in ("pinned", "mixed"):
        state.u[-1] = 0.0
        state.v[-1] = 0.0
    if bcs.mech == "pinned":
        state.u[0] = 0.0
        state.v[0] = 0.0
    if bcs.thermal == "fixed_theta":
        state.theta[0] = state.theta[-1] = bcs.fixed_value
    return state


def _stepper(f, integrator: str):
    """The stepper of the selected integrator on the right-hand side f:
    its advance(z, t, dt) takes one step, and it keeps the run's work
    counters (an implicit one also reads f's half_bw, scale, row_weights
    and plausible)."""
    return (_Rk4Stepper(f) if integrator == "rk4"
            else _ImplicitStepper(f, integrator))


def _accept(z: np.ndarray, t: float, check):
    """IntegrationError(t) when the state z a step ended in at time t has
    values that are not finite or that check(z, t) rejects."""
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise IntegrationError(t, "non-finite values (stability violation)")
    check(z, t)


def step(state: FieldState, dt: float, grid: Grid1D, params: MaterialParams1D,
         bcs: BoundarySpec, forcing: Forcing, integrator: str = "rk4",
         gamma_sign: float = 1.0) -> FieldState:
    """Advance one time step with the selected integrator.

    Deterministic; dt and integrator follow RunSetup's rules (ValueError),
    and the result is checked as every step of simulate is:
    IntegrationError (carrying the failure time) on non-finite values or
    a state the right-hand side rejects.
    """
    f, state = RunSetup(grid, params, bcs, forcing, state, dt, dt, dt,
                        integrator, gamma_sign).start()
    z1 = _stepper(f, integrator).advance(f.pack(state), state.t, dt)
    _accept(z1, state.t + dt, f.check)
    return f.unpack(z1, state.t + dt)


# Validity bounds of a run: 10^9 steps is days of stepping (10^8 RK4 bar
# steps take about 4 h), and a million snapshots already means (nx+1)
# million CSV rows.
_MAX_STEPS = 10**9
_MAX_SNAPSHOTS = 10**6


def _step_count(t_end: float, dt: float) -> int:
    """ceil(t_end/dt), and at least 1, the number of steps simulate takes;
    the 1e-9 absorbs round-off in a ratio meant to be whole.  Both times
    are positive; a ratio that overflows, or a count above _MAX_STEPS, is
    a ValueError."""
    ratio = t_end / dt - 1e-9
    if ratio == np.inf:
        raise ValueError("t_end/dt must be a finite step count")
    if ratio > _MAX_STEPS:
        raise ValueError(f"t_end/dt asks for more than {_MAX_STEPS} steps")
    return max(int(np.ceil(ratio)), 1)


def _snapshot_count(t_end: float, output_interval: float) -> int:
    """floor(t_end/output_interval) + 1, the number of snapshots simulate
    stores (t = 0 and one per multiple of output_interval); the 1e-9
    absorbs round-off in a ratio meant to be whole.  Both times are
    positive; a count above _MAX_SNAPSHOTS is a ValueError."""
    ratio = t_end / output_interval + 1e-9
    if ratio >= _MAX_SNAPSHOTS:
        raise ValueError(f"t_end/output_interval asks for more than "
                         f"{_MAX_SNAPSHOTS} snapshots")
    return int(ratio) + 1


class _TimeError(ValueError):
    """The ValueError of _check_times, apart from a setup's other checks."""


def _check_times(setup):
    """_TimeError unless setup's dt, t_end and output_interval are positive
    and finite and ask for at most _MAX_STEPS steps and _MAX_SNAPSHOTS
    snapshots.  RunSetup and slab.SlabRunSetup run it when they are built,
    and nothing else does."""
    try:
        _check_positive(setup)
        _step_count(setup.t_end, setup.dt)
        _snapshot_count(setup.t_end, setup.output_interval)
    except ValueError as exc:
        raise _TimeError(*exc.args) from None


@dataclass
class RunSetup:
    """Everything simulate() needs for one run."""

    grid: Grid1D
    params: MaterialParams1D
    bcs: BoundarySpec
    forcing: Forcing
    state0: FieldState
    dt: float
    t_end: float
    output_interval: float
    integrator: str = "rk4"
    gamma_sign: float = 1.0

    def __post_init__(self):
        _check_times(self)
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}")
        if self.integrator != "rk4":
            _lapack()   # load LAPACK at set-up, not inside simulate()

    def start(self):
        """(_Rhs, state at the start): a copy of state0 with the end values
        the boundary conditions hold, validated."""
        state = _clamp_ends(self.state0.copy(), self.bcs)
        state.validate(self.grid, self.params)
        return (_Rhs(self.grid, self.params, self.bcs, self.forcing,
                     self.gamma_sign), state)


@dataclass
class Trajectory:
    """The output of a run of either model: its setup (RunSetup or
    slab.SlabRunSetup), the right-hand side it stepped with (_Rhs or
    slab._SlabRhs, which the artifact writers read), the stepper that
    stepped it (with its work counters, as far as the run got), the stored
    snapshots, one diagnostics row each (the model's diag), and the abort
    status."""

    setup: object
    rhs: object
    stepper: object
    snapshots: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    failed: bool = False
    failure: str = ""

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


def simulate(setup) -> Trajectory:
    """Run either model from t = 0 to setup.t_end in fixed steps of
    setup.dt, the last one shortened to end on t_end, and return the
    Trajectory of setup, which keeps the right-hand side f as its rhs and
    the stepper of setup.integrator (_stepper) as its stepper.
    slab.slab_simulate is this function.

    setup is a RunSetup or a slab.SlabRunSetup.  setup.start() gives f and
    the start state, whose t must be 0 (ValueError).  f supplies
    pack(state) -> z, unpack(z, t) that builds a state with its own copy
    of z's values, check(z, t) that raises IntegrationError(t) on a state
    the model rejects, and diag(state), the diagnostics row;
    setup.integrator selects the step.  At least one step is taken, and
    every step's z is checked; a state is built only when it is stored.
    The state at t = 0 is stored, then for each multiple of
    output_interval the state at the first step time reaching it
    (repeated when output_interval < dt): floor(t_end/output_interval)+1
    snapshots.  A non-finite or rejected step is not stored:
    IntegrationError at its end time, with the trajectory (failed, failure
    set) attached as `partial`.
    """
    f, state = setup.start()
    if state.t != 0:
        raise ValueError(f"a run starts at t = 0; state0.t is {state.t!r}")
    traj = Trajectory(setup, f, _stepper(f, setup.integrator))
    advance = traj.stepper.advance
    n_snap = _snapshot_count(setup.t_end, setup.output_interval)
    snap_times = np.arange(n_snap) * setup.output_interval
    tol = 1e-9 * max(setup.dt, setup.output_interval)
    traj.snapshots.append(state.copy())
    traj.diagnostics.append(f.diag(state))
    next_snap = 1

    z = f.pack(state)
    t = 0.0
    try:
        for n in range(_step_count(setup.t_end, setup.dt)):
            dt = min(setup.dt, setup.t_end - t)
            z = advance(z, t, dt)
            t = (n + 1) * setup.dt if dt == setup.dt else setup.t_end
            _accept(z, t, f.check)
            while next_snap < n_snap and t >= snap_times[next_snap] - tol:
                state = f.unpack(z, t)
                traj.snapshots.append(state)
                traj.diagnostics.append(f.diag(state))
                next_snap += 1
    except IntegrationError as err:
        traj.failed = True
        traj.failure = str(err)
        err.partial = traj
        raise
    return traj
