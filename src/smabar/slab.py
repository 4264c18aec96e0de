"""Reduced dynamics of a thin shape-memory-alloy slab.

The cross-slab structure of a slab of half-thickness b collapses onto five
slowly evolving amplitude fields on the long coordinate x: the thickness
averages U1 (longitudinal displacement), U2 (transverse displacement),
their velocities V1, V2, and the temperature deviation ThetaPrime =
theta_mean - 300 K.  The model integrates their evolution equations and
can reconstruct the in-slab displacement and temperature profiles at any
scaled transverse coordinate Y = y/b in [-1, 1].

Longitudinal amplitude equation (density rho on the left):

    rho dV1/dt = c_wave U1xx + c_disp b^2 U1xxxx
                 + d/dx[ (922 Th - 0.0145 Th^2) U1x
                         + (-4.28e9 + 1.31e7 Th) U1x^3
                         + 7.12e11 U1x^5
                         + (2820 - 8.80 Th) b^2 V1x^2 U1x
                         + 1.24 b^4 V1x^4 U1x
                         - 5.42e4 b^2 V1x^2 U1x^3 ]

Bending is a plain beam equation, decoupled at this truncation order:

    rho dV2/dt = -c_bend b^2 U2xxxx

Temperature equation (heat capacity C_v on the left):

    C_v dTh/dt = kappa Thxx
                 + (2.77e5 + 914 Th - 9.25 Th^2) U1x V1x
                 + (3.94e9 + 1.26e7 Th) V1x U1x^3
                 + (-57.3 - 0.0117 Th) b^2 V1x^3 U1x
                 + 1.68e12 V1x U1x^5
                 - 1.58e6 b^2 V1x^3 U1x^3
                 - 0.0203 b^4 V1x^5 U1x
                 + 1.63e4 b^2 U1xx V1xx + 9.22e4 b^2 U2xx V2xx
                 + d^2/dx^2 [ -8151 b^2 U1x V1x ]

All printed terms of the truncation are evaluated, none pruned.  The
coefficients below are the Cu-based set, transcribed once into named
constants (units g/(ms^2 cm) scale, consistent with the 1D bar model); no
attempt is made to re-derive them symbolically.

The linearisation supports dispersive elastic waves,
omega^2 = (c_wave k^2 - c_disp b^2 k^4)/rho, so wavenumbers with
k b > sqrt(c_wave/c_disp) ~ 1.92 sit outside the long-wave validity of the
expansion and are exponentially unstable; keep the grid coarse enough
(dx > pi b / 1.92, `SlabParams.min_dx`) that no resolved mode crosses that
threshold.  Run configs (`cli`) with a finer grid are rejected when read.

End conditions: periodic (default, used by the dispersion tests) or
pinned-insulated (U_i = V_i = 0 and dTh/dx = 0 at the ends, applied through
odd/even ghost extensions), a leading approximation for physical runs.
`_SlabRhs` gathers the five stencil nodes of every point, ghost nodes
included, in one take and folds the stencil weights and the coefficients
into small matrices, built once per run, so that an evaluation is three
matrix products and a short tail, linear in the number of points; the
README's "Numerical notes" describe them and the check of every RK4 stage
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver1d import Grid1D, IntegrationError, _check_times
from .solver1d import simulate as slab_simulate

__all__ = [
    "SlabParams",
    "SlabState",
    "SlabRunSetup",
    "cu_based_slab",
    "slab_rhs",
    "reconstruct_fields",
    "slab_simulate",
]

ENDS = ("periodic", "pinned_insulated")


def _check_theta(Th: np.ndarray):
    """ValueError unless every ThetaPrime is finite and above -300 K (a NaN
    fails both comparisons, as it propagates through min and max)."""
    if Th.size and not (-300.0 < Th.min() and Th.max() < np.inf):
        raise ValueError("ThetaPrime must stay finite and above -300 K")


def _periodic(ends: str) -> bool:
    """Whether ends are periodic; ValueError unless ends is one of ENDS."""
    if ends not in ENDS:
        raise ValueError(f"ends must be one of {ENDS}")
    return ends == "periodic"


def _check_y(Y) -> np.ndarray:
    """Y as a float array; ValueError unless every Y is finite and in
    [-1, 1]."""
    Y = np.asarray(Y, dtype=float)
    if not (np.abs(Y) <= 1.0).all():
        raise ValueError("Y must be finite and in [-1, 1]")
    return Y


def _grid_points(length: float, nx: int, ends: str) -> np.ndarray:
    """x of the grid points, spaced length/nx: nx points on [0, length) for
    periodic ends, nx + 1 including both ends otherwise.  ValueError for
    unknown ends."""
    return np.arange(nx if _periodic(ends) else nx + 1) * (length / nx)


@dataclass(frozen=True)
class SlabParams:
    """Geometry, transport and the full reduced-model coefficient table."""

    b: float = 0.05            # half-thickness, cm
    rho: float = 11.1          # g/cm^3
    cv: float = 29.0           # C_v, g/(ms^2 cm K)
    kappa: float = 1.9e-2      # thermal conductivity, cm g/(ms^3 K)

    # longitudinal wave operator
    c_wave: float = 2.97e6     # U1xx
    c_disp: float = 8.03e5     # b^2 U1xxxx (destabilising above kb ~ 1.92)
    c_bend: float = 9.91e5     # bending b^2 U2xxxx (enters with minus sign)

    # flux bracket of the longitudinal equation, d/dx[ ... ]
    s_theta: tuple = (922.0, -0.0145)     # (Th, Th^2) U1x
    s_cubic: tuple = (-4.28e9, 1.31e7)    # (1, Th) U1x^3
    s_quintic: float = 7.12e11            # U1x^5
    s_rate2: tuple = (2820.0, -8.80)      # (1, Th) b^2 V1x^2 U1x
    s_rate4: float = 1.24                 # b^4 V1x^4 U1x
    s_rate2_cubic: float = -5.42e4        # b^2 V1x^2 U1x^3

    # temperature equation sources
    h_lin: tuple = (2.77e5, 914.0, -9.25)  # (1, Th, Th^2) U1x V1x
    h_cubic: tuple = (3.94e9, 1.26e7)      # (1, Th) V1x U1x^3
    h_rate3: tuple = (-57.3, -0.0117)      # (1, Th) b^2 V1x^3 U1x
    h_quintic: float = 1.68e12             # V1x U1x^5
    h_mixed33: float = -1.58e6             # b^2 V1x^3 U1x^3
    h_rate5: float = -0.0203               # b^4 V1x^5 U1x
    h_curv_long: float = 1.63e4            # b^2 U1xx V1xx
    h_curv_bend: float = 9.22e4            # b^2 U2xx V2xx
    h_flux2: float = -8151.0               # d^2/dx^2 [ b^2 U1x V1x ]

    # cross-slab reconstruction constants
    r_shear: tuple = (0.9, -3.05e-5)       # (1, Th) Y b U1x in u2
    r_quad: float = 0.15                   # (3Y^2 - 1) b^2 Uixx
    r_cubic: float = 141.0                 # Y b U1x^3 in u2 (minus sign)
    r_rate: float = 1.00e-4                # (3Y - Y^3) b^3 V1x^2 U1x in u2
    t_mix: float = 2.43e6                  # (3Y - Y^3) b^3 (V1x U2xx + U1x V2xx)
    t_rate: float = 25.1                   # (7 - 30Y^2 + 15Y^4) V1x^3 U1x
    theta_ref: float = 300.0               # K, pivot of ThetaPrime

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("half-thickness b must be positive")
        if self.rho <= 0 or self.cv <= 0:
            raise ValueError("rho and cv must be positive")
        if self.c_wave <= 0 or self.c_disp < 0:
            raise ValueError("c_wave must be positive and c_disp non-negative")
        if self.kappa < 0 or self.c_bend < 0:
            raise ValueError("kappa and c_bend must be non-negative")

    @property
    def wave_speed(self) -> float:
        """Long-wave longitudinal phase speed sqrt(c_wave/rho), cm/ms."""
        return float(np.sqrt(self.c_wave / self.rho))

    @property
    def min_dx(self) -> float:
        """Long-wave validity bound on the grid spacing, pi b sqrt(c_disp/c_wave)
        (cm): finer grids resolve modes with k b > sqrt(c_wave/c_disp)."""
        return float(np.pi * self.b * np.sqrt(self.c_disp / self.c_wave))


#: Cu-based coefficient set.
CU_BASED_SLAB = SlabParams()


def cu_based_slab() -> SlabParams:
    return CU_BASED_SLAB


@dataclass
class SlabState:
    """Amplitude fields on the uniform x grid."""

    t: float
    U1: np.ndarray
    U2: np.ndarray
    V1: np.ndarray
    V2: np.ndarray
    Th: np.ndarray      # ThetaPrime = theta_mean - 300 K

    def validate(self):
        n = self.U1.size
        for name in ("U2", "V1", "V2", "Th"):
            if getattr(self, name).size != n:
                raise ValueError("slab state arrays must have equal length")
        for name in ("U1", "U2", "V1", "V2"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        _check_theta(self.Th)
        return self

    def copy(self) -> "SlabState":
        return SlabState(self.t, self.U1.copy(), self.U2.copy(),
                         self.V1.copy(), self.V2.copy(), self.Th.copy())

    def fields(self) -> np.ndarray:
        return np.stack([self.U1, self.U2, self.V1, self.V2, self.Th])


# ---------------------------------------------------------------------------
# the right-hand side, with the end treatment and coefficients resolved once


# weights of the centred first, second and undivided fourth differences
# over the nodes at offsets -2..2; row k is divided by (2 dx, dx^2, 1)
_STENCILS = np.array([[0.0, -1.0, 0.0, 1.0, 0.0],
                      [0.0, 1.0, -2.0, 1.0, 0.0],
                      [1.0, -4.0, 6.0, -4.0, 1.0]])


class _Differences:
    """d1, d2 and dx^4 d4 of rows of n values on the slab grid, with the
    end treatment resolved once: each point's five nodes gathered in one
    take, the ghost nodes among them wrapped around (periodic) or mirrored
    about the end node, then one product with the stencil weights.  O(n)
    in memory and work.  ValueError for fewer points than a SlabRunSetup
    has (4 periodic, 5 pinned_insulated)."""

    def __init__(self, dx: float, ends: str, n: int):
        periodic = _periodic(ends)
        least = 4 if periodic else 5        # Grid1D's nx >= 4
        if n < least:
            raise ValueError(f"{ends} ends need at least {least} grid "
                             f"points, got {n}")
        # taps[s, i]: the node at offset s - 2 from point i
        i = np.arange(n)
        if periodic:
            pad = np.concatenate([i[-2:], i, i[:2]])
        else:
            pad = np.concatenate([i[2:0:-1], i, i[-2:-4:-1]])
        at = np.arange(5)[:, None] + i
        self.taps = pad[at]
        self.sign = (None if periodic else
                     np.where((at < 2) | (at >= n + 2), -1.0, 1.0))
        self.weights = _STENCILS / np.array([[2.0 * dx], [dx ** 2], [1.0]])

    def __call__(self, a: np.ndarray, odd: bool = True) -> np.ndarray:
        """(rows, 3, n) array: d1, d2 and dx^4 d4 of each row of a.  With
        odd, the mirrored ghost nodes of the first four rows (U and V of a
        state) are negated; the rest, ThetaPrime and the fluxes, are
        even."""
        g = np.take(a, self.taps, axis=1)
        if odd and self.sign is not None:
            g[:4] *= self.sign
        return self.weights @ g


def _coefficients(p: SlabParams) -> np.ndarray:
    """(3, 18) matrix whose rows, times the basis Th^k A^i W^j (A = U1x^2,
    W = V1x^2; k-major over Th^0..2, then 1, A, A^2, W, A W, W^2), give the
    factors that multiply U1x in the bracket over rho, U1x V1x in the heat
    flux b^2 h_flux2 U1x V1x over C_v, and U1x V1x in the heating over
    C_v."""
    b2, b4, o = p.b ** 2, p.b ** 4, 0.0
    return np.array([
        [o, p.s_cubic[0], p.s_quintic,
         b2 * p.s_rate2[0], b2 * p.s_rate2_cubic, b4 * p.s_rate4,
         p.s_theta[0], p.s_cubic[1], o, b2 * p.s_rate2[1], o, o,
         p.s_theta[1], o, o, o, o, o],
        [b2 * p.h_flux2] + [o] * 17,
        [p.h_lin[0], p.h_cubic[0], p.h_quintic,
         b2 * p.h_rate3[0], b2 * p.h_mixed33, b4 * p.h_rate5,
         p.h_lin[1], p.h_cubic[1], o, b2 * p.h_rate3[1], o, o,
         p.h_lin[2], o, o, o, o, o]]) / np.array([[p.rho], [p.cv], [p.cv]])


class _SlabRhs:
    """dz/dt for z = (U1, U2, V1, V2, ThetaPrime) of shape (5, n), as one
    new (5, n) array.  Raises IntegrationError(t) for a stage ThetaPrime
    that SlabState.validate rejects and for a non-finite dV1, dV2 or dTh.
    Also the state packing, check and diagnostics of solver1d.simulate, and
    the cross-slab reconstruction.

    One evaluation is three matrix products: the stencil weights over one
    gather of z give every difference of z, the coefficient matrix every
    polynomial factor of the truncation, and the stencil weights again
    the flux-form differences of the bracket and of the b^2 U1x V1x heat
    flux.  The tail adds the linear terms (one small product over the
    differences) and the curvature heating.  ValueError for fewer points
    than a SlabRunSetup has."""

    def __init__(self, params: SlabParams, dx: float, ends: str, n: int):
        p, b2, dx4 = params, params.b ** 2, dx ** 4
        self.differences = _Differences(dx, ends, n)
        self.p, self.n, self.one = params, n, np.ones(n)
        self.coef = _coefficients(p)
        # the linear terms of (dV1, dV2, dTh) over the rows of differences
        lin = np.zeros((3, 5, 3))           # [equation][field][difference]
        lin[0, 0, 1:] = p.c_wave / p.rho, p.c_disp * b2 / (p.rho * dx4)
        lin[1, 1, 2] = -p.c_bend * b2 / (p.rho * dx4)
        lin[2, 4, 1] = p.kappa / p.cv
        self.lin = lin.reshape(3, 15)
        # a (1, 2) row: a matrix-vector product would make BLAS allocate
        # one more buffer on its first call (about 0.3 MiB of peak RSS)
        self.curv = np.array([[p.h_curv_long, p.h_curv_bend]]) * (b2 / p.cv)

    def pack(self, state: SlabState) -> np.ndarray:
        return state.fields()

    def unpack(self, z: np.ndarray, t: float) -> SlabState:
        return SlabState(t, *z.copy())

    def check(self, z: np.ndarray, t: float):
        """IntegrationError(t) for a ThetaPrime of z that SlabState.validate
        rejects."""
        try:
            _check_theta(z[4])
        except ValueError as exc:
            raise IntegrationError(t, str(exc)) from None

    def diag(self, state: SlabState) -> tuple:
        """Diagnostics row (t, max |U1x|, max |U2x|, ThetaPrime min and
        max)."""
        d1 = self.differences(state.fields())[:, 0]
        return (state.t, float(np.abs(d1[0]).max()),
                float(np.abs(d1[1]).max()), float(state.Th.min()),
                float(state.Th.max()))

    def __call__(self, z: np.ndarray, t: float) -> np.ndarray:
        self.check(z, t)
        n, Th = self.n, z[4]
        d = self.differences(z)
        U1x, V1x = d[0, 0], d[2, 0]
        A, W, uv = U1x * U1x, V1x * V1x, U1x * V1x
        T = np.array([self.one, Th, Th * Th])
        M = np.array([self.one, A, A * A, W, A * W, W * W])
        # the bracket over rho, the heat flux and the heating over C_v
        g = ((self.coef @ (T[:, None] * M).reshape(18, n))
             * np.array([U1x, uv, uv]))
        # d/dx of the bracket and d^2/dx^2 of the flux, both even
        f = self.differences(g[:2], odd=False)
        out = np.empty_like(z)
        out[:2] = z[2:4]
        out[2:] = self.lin @ d.reshape(15, n)
        out[2] += f[0, 0]
        out[4:] += g[2:] + self.curv @ (d[:2, 1] * d[2:4, 1]) + f[1:, 1]
        if not np.isfinite(out[2:]).all():
            raise IntegrationError(t, "non-finite right-hand side")
        return out

    def reconstruct(self, state: SlabState, Y) -> tuple:
        """reconstruct_fields of state at Y."""
        return _reconstruct(state, self.p, Y, self.differences)


def slab_rhs(state: SlabState, params: SlabParams, dx: float,
             ends: str = "periodic") -> tuple:
    """Time derivatives (dU1, dU2, dV1, dV2, dTh) of the amplitude fields.

    Every printed term of the truncation is evaluated with second-order
    centred differences; the strain-law bracket is differenced in flux
    form.  Raises ValueError on an invalid state or fewer grid points than
    a SlabRunSetup has, IntegrationError on a non-finite right-hand side.
    """
    rhs = _SlabRhs(params, dx, ends, state.U1.size)
    return tuple(rhs(state.validate().fields(), state.t))


def reconstruct_fields(state: SlabState, params: SlabParams, Y,
                       dx: float, ends: str = "periodic") -> tuple:
    """Cross-slab fields (u1, u2, theta) at scaled transverse Y in [-1, 1].

    Evaluates the slow-manifold expansions

        u1 = U1 - Y b U2x + 0.15 (3Y^2 - 1) b^2 U1xx
        u2 = U2 - (0.9 - 3.05e-5 Th) Y b U1x + 0.15 (3Y^2 - 1) b^2 U2xx
             - 141 Y b U1x^3 + 1.00e-4 (3Y - Y^3) b^3 V1x^2 U1x
        theta = 300 + Th - 2.43e6 (3Y - Y^3) b^3 (V1x U2xx + U1x V2xx)
                - 25.1 (7 - 30 Y^2 + 15 Y^4) V1x^3 U1x

    Y may be a scalar or an array; field arrays broadcast against it with
    Y in the leading axis, and each row equals the fields at that scalar Y.
    ValueError unless every Y is finite and in [-1, 1], and for fewer grid
    points than a SlabRunSetup has.
    """
    return _reconstruct(state, params, Y,
                        _Differences(dx, ends, state.U1.size))


def _reconstruct(state: SlabState, p: SlabParams, Y,
                 differences: _Differences) -> tuple:
    """reconstruct_fields with the grid's differences."""
    Y = _check_y(Y)
    b, b2, b3 = p.b, p.b ** 2, p.b ** 3
    d = differences(state.fields())
    (U1x, U2x, V1x), (U1xx, U2xx, V2xx) = d[:3, 0], d[[0, 1, 3], 1]
    Th = state.Th
    Yc = Y[..., None] if Y.ndim else Y

    quad = p.r_quad * (3.0 * Yc ** 2 - 1.0)
    odd3 = 3.0 * Yc - Yc ** 3
    u1 = state.U1 - Yc * b * U2x + quad * b2 * U1xx
    u2 = (state.U2
          - (p.r_shear[0] + p.r_shear[1] * Th) * Yc * b * U1x
          + quad * b2 * U2xx
          - p.r_cubic * Yc * b * U1x ** 3
          + p.r_rate * odd3 * b3 * V1x ** 2 * U1x)
    theta = (p.theta_ref + Th
             - p.t_mix * odd3 * b3 * (V1x * U2xx + U1x * V2xx)
             - p.t_rate * (7.0 - 30.0 * Yc ** 2 + 15.0 * Yc ** 4)
             * V1x ** 3 * U1x)
    return u1, u2, theta


# ---------------------------------------------------------------------------
# time integration (explicit RK4; the reduced model is non-stiff on the
# coarse grids its long-wave validity demands)


@dataclass(frozen=True)
class SlabRunSetup:
    """Run description; dx = length/nx.  Periodic runs carry nx points on
    [0, length), pinned-insulated runs nx+1 points including both ends.
    Frozen, so that its fields stay the ones __post_init__ checked.

    slab_simulate (solver1d.simulate) integrates it with RK4, under the
    bar's cadence and failure contract: floor(t_end/output_interval)+1
    snapshots including t = 0, each passing SlabState.validate; any
    failure, an RK4 stage state that _SlabRhs.check rejects included,
    raises solver1d.IntegrationError with the partial trajectory as
    `partial`."""

    params: SlabParams
    length: float
    nx: int
    state0: SlabState
    dt: float
    t_end: float
    output_interval: float
    ends: str = "periodic"
    integrator = "rk4"      # a class constant, not a field

    def __post_init__(self):
        _check_times(self)
        Grid1D(self.length, self.nx)        # checks length and nx
        self.state0.validate()
        want = _grid_points(self.length, self.nx, self.ends).size
        if self.state0.U1.size != want:
            raise ValueError(f"state arrays must have {want} points for "
                             f"{self.ends} ends")

    @property
    def dx(self) -> float:
        return self.length / self.nx

    def start(self):
        """(_SlabRhs, state at the start): a copy of state0, with U and V
        set to zero at pinned ends, as the odd ghost nodes assume."""
        state = self.state0.copy()
        if not _periodic(self.ends):
            for a in (state.U1, state.U2, state.V1, state.V2):
                a[[0, -1]] = 0.0
        return _SlabRhs(self.params, self.dx, self.ends, state.U1.size), state
