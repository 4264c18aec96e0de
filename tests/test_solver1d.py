"""Staggered-grid solver checks: stencil exactness, conservation, BC
fidelity, integrator consistency and failure handling."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import LinAlgError, solve_banded

from smabar import solver1d
from smabar.cli import load_config, preset
from smabar.constitutive import cu_based, equilibrium_stress
from smabar.solver1d import (
    MECH_KINDS,
    THERMAL_KINDS,
    BoundarySpec,
    FieldState,
    Forcing,
    Grid1D,
    IntegrationError,
    RunSetup,
    _EPS_CEIL,
    _THETA_FLOOR,
    _band_lu,
    _ImplicitStepper,
    _node_average,
    _Rhs,
    energy_budget,
    rhs,
    simulate,
    stable_dt,
    step,
)

from rhs_reference import ReferenceRhs

P = cu_based()


def make_state(grid, u=None, v=None, theta=300.0, t=0.0):
    n = grid.nx + 1
    x = grid.nodes()
    uu = np.zeros(n) if u is None else u(x)
    vv = np.zeros(n) if v is None else v(x)
    th = np.full(n, theta) if np.isscalar(theta) else theta(x)
    return FieldState(t, uu, vv, th)


def bar_stress(state, grid, params):
    """Midpoint stress of state, with insulated pinned ends and no forcing."""
    return _Rhs(grid, params, BoundarySpec(), Forcing.none()).stress(state)


class TestGrid:
    def test_layout(self):
        g = Grid1D(1.0, 8)
        assert g.dx == 0.125
        assert g.nodes().size == 9
        assert g.midpoints().size == 8
        np.testing.assert_allclose(
            g.midpoints(), 0.5 * (g.nodes()[1:] + g.nodes()[:-1]))

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 3)
        with pytest.raises(ValueError):
            Grid1D(-1.0, 8)


class TestComputeStress:
    def test_zero_displacement(self):
        g = Grid1D(1.0, 16)
        st = make_state(g, theta=277.0)
        np.testing.assert_array_equal(bar_stress(st, g, P), 0.0)

    def test_uniform_strain_at_transition(self):
        g = Grid1D(1.0, 16)
        ex = 0.09
        st = make_state(g, u=lambda x: ex * x, theta=P.theta1)
        expect = -P.k2 * ex ** 3 + P.k3 * ex ** 5
        np.testing.assert_allclose(bar_stress(st, g, P), expect,
                                   rtol=1e-12)

    def test_linear_u_matches_constitutive_pointwise(self):
        g = Grid1D(1.0, 12)
        ex = 0.04
        st = make_state(g, u=lambda x: ex * x, theta=300.0)
        np.testing.assert_allclose(
            bar_stress(st, g, P),
            equilibrium_stress(P, 300.0, ex), rtol=1e-12)

    def test_viscous_contribution(self):
        g = Grid1D(1.0, 12)
        p = P.with_(mu=2.5)
        st = make_state(g, v=lambda x: 0.1 * x, theta=300.0)
        np.testing.assert_allclose(bar_stress(st, g, p),
                                   2.5 * 0.1, rtol=1e-12)

    @pytest.mark.parametrize("tau0", [0.0, 1e-3])
    def test_equals_equilibrium_stress_bitwise(self, tau0):
        """With mu = nu = 0 the solver's stress is the constitutive law at
        the midpoint strain and midpoint temperature, to the bit (dx is a
        power of two, so dividing by it and multiplying by 1/dx agree)."""
        rng = np.random.default_rng(7)
        g = Grid1D(1.0, 16)
        n = g.nx + 1
        p = P.with_(tau0=tau0)
        for _ in range(20):
            st = FieldState(0.0, rng.uniform(-0.01, 0.01, n),
                            rng.uniform(-1.0, 1.0, n),
                            rng.uniform(150.0, 400.0, n),
                            rng.uniform(-5.0, 5.0, n) if tau0 else None)
            th_m = 0.5 * (st.theta[1:] + st.theta[:-1])
            np.testing.assert_array_equal(
                bar_stress(st, g, p),
                equilibrium_stress(p, th_m, st.strain(g)))

    def test_rate_terms_with_relaxation(self):
        # s = s_eq(eps, theta) + mu eps_dot + nu <theta_dot>, with theta_dot
        # taken from the auxiliary field the tau0 > 0 state carries
        g = Grid1D(1.0, 12)
        p = P.with_(mu=2.5, nu=3.0, tau0=1e-3)
        x = g.nodes()
        st = FieldState(0.0, 0.04 * x, 0.1 * x, np.full(x.size, 300.0),
                        -2.0 + 5.0 * x)
        w_mid = -2.0 + 5.0 * g.midpoints()
        expect = equilibrium_stress(p, 300.0, 0.04) + 2.5 * 0.1 + 3.0 * w_mid
        np.testing.assert_allclose(bar_stress(st, g, p), expect,
                                   rtol=1e-13, atol=1e-12)


class TestRhs:
    def test_equilibrium_is_stationary(self):
        g = Grid1D(1.0, 16)
        st = make_state(g, theta=260.0)
        d = rhs(st, g, P, BoundarySpec("pinned", "insulated"), Forcing.none())
        np.testing.assert_array_equal(d.u, 0.0)
        np.testing.assert_array_equal(d.v, 0.0)
        np.testing.assert_array_equal(d.theta, 0.0)

    def test_rigid_motion_stress_free(self):
        g = Grid1D(1.0, 16)
        c = 0.3
        st = make_state(g, v=lambda x: np.full_like(x, c), theta=260.0)
        d = rhs(st, g, P, BoundarySpec("stress_free", "insulated"),
                Forcing.none())
        np.testing.assert_array_equal(d.u, c)
        np.testing.assert_array_equal(d.v, 0.0)
        np.testing.assert_array_equal(d.theta, 0.0)

    def test_aborts_on_nonpositive_temperature(self):
        g = Grid1D(1.0, 8)
        st = make_state(g, theta=200.0)
        st.theta[3] = -1.0
        with pytest.raises(IntegrationError):
            rhs(st, g, P, BoundarySpec(), Forcing.none())

    def test_shape_error_is_value_error(self):
        g = Grid1D(1.0, 8)
        st = make_state(g, theta=200.0)
        st.u = st.u[:-1]
        with pytest.raises(ValueError, match="u must have shape"):
            rhs(st, g, P, BoundarySpec(), Forcing.none())
        # a non-positive temperature is reported first, as an abort
        st.theta[3] = 0.0
        with pytest.raises(IntegrationError, match="non-positive temperature"):
            rhs(st, g, P, BoundarySpec(), Forcing.none())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["u", "v", "theta", "theta_dot"])
    def test_nonfinite_field_is_value_error(self, name, value):
        """A non-finite field is refused as input, by validate and so by
        rhs and simulate, instead of surfacing later as a
        stability abort of the integrator."""
        g = Grid1D(1.0, 8)
        p = P.with_(tau0=1e-3)
        st = make_state(g, theta=200.0)
        st.theta_dot = np.zeros(g.nx + 1)
        getattr(st, name)[3] = value
        match = f"{name} must be finite"
        with pytest.raises(ValueError, match=match):
            st.validate(g, p)
        # rhs reports a non-positive temperature as an abort
        negative = name == "theta" and value < 0
        with pytest.raises(IntegrationError if negative else ValueError,
                           match="non-positive temperature" if negative
                           else match):
            rhs(st, g, p, BoundarySpec(), Forcing.none())
        with pytest.raises(ValueError, match=match):
            simulate(RunSetup(g, p, BoundarySpec(), Forcing.none(), st,
                              1e-4, 1e-3, 1e-3, "implicit_euler"))

    def test_nu_degenerate_coupling_aborts(self):
        g = Grid1D(1.0, 8)
        p = P.with_(nu=1e9)
        st = make_state(g, v=lambda x: 0.1 * np.sin(np.pi * x), theta=300.0)
        with pytest.raises(IntegrationError):
            rhs(st, g, p, BoundarySpec(), Forcing.none())

    def test_rate_terms_run_finite(self):
        g = Grid1D(1.0, 8)
        p = P.with_(mu=1.0, nu=0.5, tau0=1e-4)
        x = g.nodes()
        st = FieldState(0.0, 0.001 * np.sin(np.pi * x),
                        0.01 * np.sin(2 * np.pi * x), np.full(9, 260.0),
                        np.zeros(9))
        d = rhs(st, g, p, BoundarySpec(), Forcing.none())
        for arr in (d.u, d.v, d.theta, d.theta_dot):
            assert np.all(np.isfinite(arr))
        np.testing.assert_array_equal(d.theta, st.theta_dot)

    def test_manufactured_consistency_second_order(self):
        """rhs reproduces the exact time derivatives to O(dx^2)."""
        from smabar.manufactured import build_mms_case
        case = build_mms_case(P)
        t = 0.13
        errs = {}
        for nx in (32, 64):
            g = Grid1D(1.0, nx)
            x = g.nodes()
            st = FieldState(t, case.u(x, t), case.v(x, t), case.theta(x, t))
            d = rhs(st, g, P, BoundarySpec("pinned", "insulated"),
                    Forcing(case.body, case.heat), t)
            # exact rates by tight central differences in time
            h = 1e-6
            vdot = (case.v(x, t + h) - case.v(x, t - h)) / (2 * h)
            thdot = (case.theta(x, t + h) - case.theta(x, t - h)) / (2 * h)
            err_v = np.abs(d.v[1:-1] - vdot[1:-1]).max()
            err_t = np.abs(d.theta - thdot).max()
            errs[nx] = max(err_v / np.abs(vdot).max(),
                           err_t / max(np.abs(thdot).max(), 1.0))
        order = np.log2(errs[32] / errs[64])
        assert 1.7 < order < 2.3

    @pytest.mark.parametrize("tau0", [0.0, 1e-3])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), nx=st.integers(4, 12),
           gamma=st.floats(-1e3, 1e3).filter(lambda g: g != 0.0),
           mech=st.sampled_from(MECH_KINDS), t=st.floats(0.0, 10.0))
    def test_gamma_sign_is_the_sign_of_gamma(self, tau0, seed, nx, gamma,
                                             mech, t):
        """gamma_sign = -1 with gamma gives the bits of gamma_sign = 1 with
        -gamma, so a negative gamma is all a config needs to flip the
        u_xxxx term."""
        p = P.with_(tau0=tau0, gamma=gamma)
        g = Grid1D(1.0, nx)
        bcs = BoundarySpec(mech, "controlled_flux", beta=0.5,
                           theta_ambient=290.0)
        zs = _random_stack(seed, p, nx, 3)
        flipped = _Rhs(g, p, bcs, WAVY, gamma_sign=-1.0)(zs, t)
        negated = _Rhs(g, p.with_(gamma=-gamma), bcs, WAVY, 1.0)(zs, t)
        np.testing.assert_array_equal(flipped.view(np.int64),
                                      negated.view(np.int64))


class TestStep:
    def test_equilibrium_fixed_point_all_integrators(self):
        g = Grid1D(1.0, 8)
        for integ in ("rk4", "implicit_euler", "implicit_midpoint"):
            st = make_state(g, theta=260.0)
            new = step(st, 1e-3, g, P, BoundarySpec(), Forcing.none(), integ)
            np.testing.assert_array_equal(new.u, st.u)
            np.testing.assert_array_equal(new.v, st.v)
            np.testing.assert_array_equal(new.theta, st.theta)

    def test_taylor_consistency_displacement(self):
        g = Grid1D(1.0, 16)
        st = make_state(g, v=lambda x: 0.2 * np.sin(np.pi * x), theta=260.0)
        dt = 1e-6
        new = step(st, dt, g, P, BoundarySpec("pinned", "insulated"),
                   Forcing.none())
        np.testing.assert_allclose(new.u[1:-1], st.u[1:-1] + dt * st.v[1:-1],
                                   atol=1e-14, rtol=1e-6)

    def test_rk4_self_convergence_order(self):
        g = Grid1D(1.0, 12)
        bcs = BoundarySpec("pinned", "insulated")

        def run(dt, T):
            st = make_state(g, u=lambda x: 1e-3 * np.sin(np.pi * x),
                            theta=300.0)
            n = int(round(T / dt))
            for _ in range(n):
                st = step(st, dt, g, P, bcs, Forcing.none())
            return np.concatenate([st.u, st.v, st.theta])

        T = 0.0128
        ref = run(T / 128, T)
        e1 = np.abs(run(T / 16, T) - ref).max()
        e2 = np.abs(run(T / 32, T) - ref).max()
        order = np.log2(e1 / e2)
        assert 3.5 < order < 4.6

    def test_nonfinite_detection(self):
        g = Grid1D(1.0, 16)
        st = make_state(g, u=lambda x: 0.01 * np.sin(4 * np.pi * x),
                        theta=300.0)
        with pytest.raises(IntegrationError) as err:
            cur = st
            for _ in range(200):
                cur = step(cur, 0.05, g, P, BoundarySpec("pinned", "insulated"),
                           Forcing.none(), "rk4")
        assert err.value.time > 0.0

    def test_bad_arguments(self):
        g = Grid1D(1.0, 8)
        st = make_state(g)
        with pytest.raises(ValueError):
            step(st, -1.0, g, P, BoundarySpec(), Forcing.none())
        with pytest.raises(ValueError, match="integrator must be one of"):
            step(st, 1e-3, g, P, BoundarySpec(), Forcing.none(), "verlet")

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1.0])
    def test_dt_follows_the_run_setup_rules(self, dt):
        """A dt that is not positive and finite is refused before the step,
        as RunSetup refuses it, whatever the forcing would make of it."""
        g = Grid1D(1.0, 8)
        f = Forcing(lambda x, t: 700.0 * math.sin(1.5 * t) ** 3,
                    lambda x, t: 30.0 * math.sin(0.5 * t) ** 3)
        with pytest.raises(ValueError, match="dt must be"):
            step(make_state(g), dt, g, P, BoundarySpec(), f)


JACOBIAN_CASES = [(mech, thermal, {}) for mech in MECH_KINDS
                  for thermal in THERMAL_KINDS] + [
    ("pinned", "insulated", {"tau0": 1e-3}),
    ("pinned", "insulated", {"nu": 3.0}),
    ("pinned", "insulated", {"mu": 2.5}),
    ("stress_free", "insulated", {"gamma": 1e-6}),
    ("pinned", "insulated", {"gamma": 1e-6}),
    ("mixed", "controlled_flux", {"tau0": 1e-3, "nu": 3.0, "gamma": 1e-6}),
    ("pinned", "controlled_flux", {"beta_tilde": 1e-3}),
]
JACOBIAN_IDS = [f"{m}-{th}-{'-'.join(c) or 'base'}" for m, th, c in JACOBIAN_CASES]


@st.composite
def dominant_bands(draw):
    """A strictly diagonally dominant matrix with hb sub- and
    super-diagonals in solve_banded storage, and a right-hand side."""
    hb = draw(st.sampled_from([5, 8, 11]))
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ab = rng.uniform(-1.0, 1.0, (2 * hb + 1, n))
    ab[hb] = rng.choice([-1.0, 1.0], n) * (2 * hb + rng.uniform(0.5, 5.0, n))
    return hb, ab, rng.uniform(-1e3, 1e3, n)


def _plausible_reference(f, z):
    """_Rhs.plausible as first written, with np.all/np.diff."""
    if not np.all(np.isfinite(z)):
        return False
    Z = z.reshape(-1, f.nf)
    if Z[:, 2].min() <= _THETA_FLOOR:
        return False
    eps = np.abs(np.diff(Z[:, 0])).max() / f.grid.dx
    return eps < _EPS_CEIL


def _bar_rhs(nx, tau0=0.0):
    return _Rhs(Grid1D(1.0, nx), P.with_(tau0=tau0), BoundarySpec(),
                Forcing.none())


@st.composite
def plausibility_probes(draw):
    """A bar right-hand side and a packed state that lands on every branch
    of the plausibility test and on its edges: NaN and +-inf anywhere, theta
    at the floor and strain at the ceiling (u moves in steps of dx / 16,
    exact in binary on the power-of-two grids)."""
    nx = draw(st.sampled_from([4, 8, 5]))
    f = _bar_rhs(nx, draw(st.sampled_from([0.0, 1e-3])))
    n, nf = nx + 1, f.nf
    dx = f.grid.dx
    steps = draw(st.lists(st.integers(-9, 9), min_size=nx, max_size=nx))
    Z = np.empty((n, nf))
    Z[:, 0] = np.concatenate([[0.0], np.cumsum(steps) * (dx / 16)])
    rest = draw(st.lists(st.floats(-1e3, 1e3), min_size=n * (nf - 1),
                         max_size=n * (nf - 1)))
    Z[:, 1:] = np.reshape(rest, (n, nf - 1))
    Z[:, 2] = draw(st.lists(st.floats(2.0, 600.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        Z[draw(st.integers(0, nx)), 2] = draw(st.sampled_from(
            [_THETA_FLOOR, np.nextafter(_THETA_FLOOR, 2.0), 0.5]))
    for _ in range(draw(st.integers(0, 2))):
        Z[draw(st.integers(0, nx)), draw(st.integers(0, nf - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    return f, Z.ravel()


class _LinearRhs:
    """y' = A y with A = c tridiag(1, -2, 1): a right-hand side with nothing
    of the bar, only the members an implicit stepper reads, and row weights
    of 1/2 on every other row."""

    def __init__(self, n, c):
        self.a = c * (np.eye(n, k=-1) - 2.0 * np.eye(n) + np.eye(n, k=1))
        self.half_bw = 1
        self.scale = np.full(n, 1e-2)
        self._weights = np.where(np.arange(n) % 2, 1.0, 0.5)

    def __call__(self, y, t):
        return y @ self.a.T

    def row_weights(self, dt):
        return self._weights

    def plausible(self, y):
        return bool(np.isfinite(y).all())


def _lu_storage(ab, hb):
    """solve_banded storage -> gbtrf storage (hb leading fill-in rows)."""
    return np.vstack([np.zeros((hb, ab.shape[1])), ab])


class _Band:
    """What _ImplicitStepper._increment reads of its right-hand side: the
    half-bandwidth and the scale of the norm."""

    def __init__(self, hb, scale):
        self.half_bw = hb
        self.scale = scale


def _solver(hb, n, scale=1e-2):
    """A stepper whose _increment solves with hb-banded factors of order n
    and norms with scale."""
    return _ImplicitStepper(_Band(hb, np.full(n, scale)), "implicit_euler")


class TestImplicitSolver:
    @pytest.mark.parametrize("mech, thermal, changed", JACOBIAN_CASES,
                             ids=JACOBIAN_IDS)
    def test_coloured_jacobian_matches_dense_fd(self, mech, thermal, changed):
        g = Grid1D(1.0, 8)
        p = P.with_(**changed)
        rng = np.random.default_rng(7)
        n = g.nx + 1
        state = FieldState(0.0, 1e-2 * rng.standard_normal(n),
                           1e-1 * rng.standard_normal(n),
                           300.0 + 5.0 * rng.standard_normal(n),
                           rng.standard_normal(n) if p.tau0 > 0 else None)
        bcs = BoundarySpec(mech, thermal, beta=0.5, theta_ambient=290.0)
        f = _Rhs(g, p, bcs, Forcing.none())
        stepper = _ImplicitStepper(f, "implicit_euler")
        hb = f.half_bw
        z = f.pack(state)
        ab = stepper._banded_jacobian(z, 0.0)

        # column-by-column FD with the same increments, no colouring
        size = z.size
        h = 1e-7 * np.maximum(np.abs(z), 1.0)
        f0 = f(z, 0.0)
        dense = np.empty((size, size))
        for j in range(size):
            zp = z.copy()
            zp[j] += h[j]
            dense[:, j] = (f(zp, 0.0) - f0) / h[j]
        offset = np.subtract.outer(np.arange(size), np.arange(size))
        assert not np.any(dense[np.abs(offset) > hb])

        unpacked = np.zeros((size, size))
        for o in range(-hb, hb + 1):
            j = np.arange(max(0, -o), min(size, size - o))
            unpacked[j + o, j] = ab[hb + o, j]
        np.testing.assert_array_equal(unpacked, dense)

    @pytest.mark.parametrize("kind", ["implicit_euler", "implicit_midpoint"])
    def test_steps_a_right_hand_side_that_is_not_the_bar(self, kind):
        """The stepper reads only f(z, t), half_bw, scale, row_weights and
        plausible: on a linear system y' = A y each step is (I - w A)^-1
        (I + (dt - w) A) y, w = dt for implicit Euler and dt/2 for the
        midpoint rule, to within TOL of the scaled norm, from fresh factors
        on the first step and from the kept ones after it."""
        n, dt = 12, 0.05
        f = _LinearRhs(n, 40.0)
        stepper = _ImplicitStepper(f, kind)
        w = dt if kind == "implicit_euler" else 0.5 * dt
        y = np.sin(np.linspace(0.0, np.pi, n))
        for k in range(4):
            want = np.linalg.solve(np.eye(n) - w * f.a, y + (dt - w) * f.a @ y)
            y = stepper.advance(y, k * dt, dt)
            assert stepper._norm(y - want) < stepper.TOL
        assert stepper.subdivided == 0
        assert stepper.factorisations < 4 < stepper.solves

    @settings(max_examples=200, deadline=None)
    @given(dominant_bands())
    def test_factor_solve_matches_solve_banded(self, drawn):
        hb, ab, b = drawn
        x, _ = _solver(hb, b.size)._increment(
            _band_lu(_lu_storage(ab, hb), hb), -b)
        np.testing.assert_array_equal(x, solve_banded((hb, hb), ab, b))

    @settings(max_examples=200, deadline=None)
    @given(dominant_bands(), st.booleans())
    def test_increment_is_band_solve_then_norm(self, drawn, overflow):
        """_increment gives the bits of gbtrs on -r and of the scaled max
        norm (nan -> inf) after it, in one pass.  A finite increment whose
        norm overflows (entries near 1e305 at scale 1e-4) is returned with
        norm inf, not refused as non-finite."""
        hb, ab, r = drawn
        factors = _band_lu(_lu_storage(ab, hb), hb)
        gbtrs = solver1d._lapack()[1]
        scale = 1e-4 if overflow else 1e-2
        if overflow:
            x, _ = gbtrs(factors[0], hb, hb, -r, factors[1])
            r = r * (1e305 / np.abs(x).max())
        want, info = gbtrs(factors[0], hb, hb, -r, factors[1])
        assert info == 0 and np.isfinite(want).all()
        with np.errstate(over="ignore"):
            norm = float((np.abs(want) / scale).max())
        solver = _solver(hb, r.size, scale)
        with np.errstate(over="ignore"):
            x, dn = solver._increment(factors, r)
            assert dn == solver._norm(want)
        np.testing.assert_array_equal(x, want)
        assert dn == (norm if norm < np.inf else np.inf)
        if overflow:
            assert dn == np.inf

    def test_singular_band_and_nan_rhs_fail(self):
        hb, n = 5, 20
        ab = np.ones((2 * hb + 1, n))
        ab[hb] = 4.0 * hb
        singular = ab.copy()
        singular[:, 7] = 0.0                  # a zero column
        with pytest.raises(LinAlgError):
            solve_banded((hb, hb), singular, np.ones(n))
        assert _band_lu(_lu_storage(singular, hb), hb) is None
        nan_band = ab.copy()
        nan_band[hb, 3] = np.nan
        assert _band_lu(_lu_storage(nan_band, hb), hb) is None
        factors = _band_lu(_lu_storage(ab, hb), hb)
        b = np.ones(n)
        b[4] = np.nan
        assert _solver(hb, n)._increment(factors, b) is None
        assert _solver(hb, n)._increment(factors, np.ones(n)) is not None

    @pytest.mark.parametrize("changed", [
        {}, {"nu": 3.0}, {"tau0": 1e-3}, {"gamma": 1e-6},
        {"tau0": 1e-3, "gamma": 1e-6}],
        ids=["base", "nu", "tau0", "ginsburg", "ginsburg-tau0"])
    def test_loaded_wrapper_matches_scipy_linalg_lapack(self, changed,
                                                        monkeypatch):
        """_lapack loads scipy's compiled wrapper without scipy.linalg: its
        gbtrf/gbtrs give the same bits as scipy.linalg.lapack's at each
        stepper's half-bandwidth, and a singular band fails on both."""
        from scipy.linalg import lapack
        f = _Rhs(Grid1D(1.0, 8), P.with_(**changed), BoundarySpec(),
                 Forcing.none())
        hb = f.half_bw
        ours, scipys = solver1d._lapack(), (lapack.dgbtrf, lapack.dgbtrs)
        rng = np.random.default_rng(hb)
        for n in (1, hb, 2 * hb + 3, 60):
            ab = _lu_storage(rng.uniform(-1.0, 1.0, (2 * hb + 1, n)), hb)
            b = rng.uniform(-1e3, 1e3, n)
            got, want = (trf(ab.copy(), hb, hb) for trf, _ in (ours, scipys))
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            assert got[2] == 0
            x, x_info = ours[1](got[0], hb, hb, b, got[1])
            y, y_info = scipys[1](want[0], hb, hb, b, want[1])
            np.testing.assert_array_equal(x, y)
            assert x_info == y_info == 0

        singular = _lu_storage(rng.uniform(-1.0, 1.0, (2 * hb + 1, 30)), hb)
        singular[:, 7] = 0.0                  # a zero column
        assert ours[0](singular.copy(), hb, hb)[2] == 8
        assert scipys[0](singular.copy(), hb, hb)[2] == 8
        for routines in (ours, scipys):
            monkeypatch.setattr(solver1d, "_lapack", lambda: routines)
            assert _band_lu(singular.copy(), hb) is None

    def test_missing_wrapper_is_import_error_naming_its_path(self,
                                                             monkeypatch):
        """A scipy without _flapack where _lapack looks for it fails loudly:
        there is no fallback to another loader."""
        import importlib.machinery
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                            [".no-such-suffix"])
        with pytest.raises(ImportError, match=r"_flapack\.no-such-suffix"):
            solver1d._lapack.__wrapped__()

    @settings(max_examples=400, deadline=None)
    @given(plausibility_probes())
    def test_plausible_matches_reference(self, drawn):
        f, z = drawn
        assert f.plausible(z) == _plausible_reference(f, z)

    @pytest.mark.parametrize("edit, expected", [
        ((2, 2, np.nan), False), ((3, 1, np.inf), False),
        ((4, 0, -np.inf), False), ((6, 2, _THETA_FLOOR), False),
        ((6, 2, np.nextafter(_THETA_FLOOR, 2.0)), True),
        ((5, 0, _EPS_CEIL / 8), False),
        ((5, 0, np.nextafter(_EPS_CEIL / 8, 0.0)), True),
    ])
    def test_plausible_edges(self, edit, expected):
        f = _bar_rhs(8)                    # dx = 1/8: the strain is exact
        Z = np.zeros((9, 3))
        Z[:, 2] = 300.0
        node, column, value = edit
        Z[node, column] = value
        z = Z.ravel()
        assert f.plausible(z) == _plausible_reference(f, z)
        assert f.plausible(z) == expected

    def test_one_factorisation_per_jacobian_build(self, monkeypatch):
        counts = {"jacobian": 0, "factor": 0, "solve": 0, "rhs": 0,
                  "heat": 0, "body": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        rhs_per_build, times = [], []
        rhs_call = _Rhs.__call__

        def timed(self, z, t):
            times.append(t)
            return rhs_call(self, z, t)

        def jacobian(self, z, t):
            before = counts["rhs"]
            out = banded_jacobian(self, z, t)
            rhs_per_build.append(counts["rhs"] - before)
            return out

        banded_jacobian = counted("jacobian", _ImplicitStepper._banded_jacobian)
        monkeypatch.setattr(_ImplicitStepper, "_banded_jacobian", jacobian)
        monkeypatch.setattr(_Rhs, "__call__", counted("rhs", timed))
        monkeypatch.setattr(solver1d, "_band_lu",
                            counted("factor", solver1d._band_lu))
        monkeypatch.setattr(_ImplicitStepper, "_increment",
                            counted("solve", _ImplicitStepper._increment))
        config = replace(preset("experiment1"), t_end=0.5)
        assert config.integrator == "implicit_euler"
        setup = config.resolve()
        setup.forcing.heat = counted("heat", setup.forcing.heat)
        setup.forcing.body = counted("body", setup.forcing.body)
        simulate(setup)
        assert counts["jacobian"] > 0
        assert counts["factor"] == counts["jacobian"]
        assert counts["solve"] > counts["jacobian"]
        # f0 and every colour of a build go through one stacked RHS call,
        # and each forcing callable is evaluated once per run of
        # consecutive RHS calls at one time (a one-entry memo)
        assert rhs_per_build == [1] * counts["jacobian"]
        runs = 1 + sum(a != b for a, b in zip(times, times[1:]))
        assert counts["heat"] == counts["body"] == runs
        assert len(set(times)) <= runs < counts["rhs"]

    @settings(max_examples=200, deadline=None)
    @given(dominant_bands(), st.data())
    def test_band_solve_rejects_any_nonfinite_rhs(self, drawn, data):
        hb, ab, b = drawn
        factors = _band_lu(_lu_storage(ab, hb), hb)
        bad = data.draw(st.lists(st.integers(0, b.size - 1), min_size=1,
                                 max_size=3))
        for i in bad:
            b[i] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        assert _solver(hb, b.size)._increment(factors, b) is None

    def test_error_estimate_stop(self):
        stepper = _ImplicitStepper(_bar_rhs(8), "implicit_euler")
        tol = stepper.TOL
        # the first increment has no contraction rate: only |dz| < TOL
        assert stepper._converged(0.5 * tol)
        assert not stepper._converged(tol)
        assert not stepper._converged(tol, np.inf)
        # theta = 1/10, eta = 1/9: eta |dz| < TOL up to |dz| < 9 TOL
        assert stepper._converged(8.9 * tol, 89.0 * tol)
        assert not stepper._converged(9.1 * tol, 91.0 * tol)
        # no estimate when the increments do not contract
        assert not stepper._converged(2.0 * tol, 2.0 * tol)
        assert not stepper._converged(2.0 * tol, tol)

    @pytest.mark.parametrize("name, factor", [
        ("experiment1", 0.5), ("experiment2", 10.0), ("experiment2", 1.0)])
    def test_chord_never_stops_on_its_first_increment(self, name, factor,
                                                      monkeypatch):
        """From stale or current factors, a chord solve whose first
        increment is not below TOL takes a second one before it returns:
        the first increment has no contraction rate to estimate an error
        from."""
        stepper, z, t, dt = self._stepped(name)
        stepper.lu = stepper._system_matrix(z, t, factor * dt)
        increment, norms = _ImplicitStepper._increment, []

        def recorded(self, factors, r):
            out = increment(self, factors, r)
            norms.append(np.inf if out is None else out[1])
            return out

        monkeypatch.setattr(_ImplicitStepper, "_increment", recorded)
        fallbacks = stepper.fallbacks
        out = stepper._solve(z, t, dt)
        assert out is not None and stepper.fallbacks == fallbacks
        assert norms[0] >= stepper.TOL
        assert len(norms) >= 2

    def test_contraction_refresh_counters(self, monkeypatch):
        refreshes_per_solve = []
        solve = _ImplicitStepper._solve

        def counted(self, z, t, dt):
            before = self.refreshes
            out = solve(self, z, t, dt)
            refreshes_per_solve.append(self.refreshes - before)
            return out

        monkeypatch.setattr(_ImplicitStepper, "_solve", counted)
        setup = replace(preset("experiment2"), t_end=1.0).resolve()
        assert setup.integrator == "implicit_euler"
        stepper = simulate(setup).stepper
        steps = round(setup.t_end / setup.dt)
        # 8.49 banded solves per step without the contraction refresh
        assert stepper.solves <= 6.5 * steps
        assert stepper.refreshes > 0
        assert max(refreshes_per_solve) == 1

    def test_experiment1_work_counters(self):
        """The stepper's work on the full experiment1 preset (17,143
        implicit Euler steps), read off the run's Trajectory: it pins every
        chord, refresh, Newton fallback and subdivision decision of the
        run, so bookkeeping changes to the stepper must leave each of them
        as it is."""
        setup = preset("experiment1").resolve()
        assert setup.integrator == "implicit_euler"
        stepper = simulate(setup).stepper
        names = ("nfe", "factorisations", "solves", "refreshes", "fallbacks",
                 "subdivided")
        assert [getattr(stepper, n) for n in names] == [83620, 1457, 65928,
                                                         1034, 54, 7]

    def test_experiment2_work_counters(self):
        """The stepper's work on experiment2 to t = 1 ms (1,250 steps), read
        off the run's Trajectory, as counted before the right-hand side's
        node stage became one gathered sum: rounding-level changes to the
        right-hand side leave every chord, refresh and fallback decision of
        this run as it was."""
        setup = replace(preset("experiment2"), t_end=1.0).resolve()
        assert round(setup.t_end / setup.dt) == 1250
        stepper = simulate(setup).stepper
        assert isinstance(stepper, _ImplicitStepper)
        names = ("nfe", "factorisations", "solves", "refreshes", "fallbacks",
                 "subdivided")
        assert [getattr(stepper, n) for n in names] == [8358, 179, 6202, 147,
                                                         5, 0]

    @staticmethod
    def _stepped(name, steps=5):
        """A stepper of preset name and its state after a few steps."""
        setup = replace(preset(name), t_end=0.05).resolve()
        f = _Rhs(setup.grid, setup.params, setup.bcs, setup.forcing,
                 setup.gamma_sign)
        stepper = _ImplicitStepper(f, setup.integrator)
        z = f.pack(solver1d._clamp_ends(setup.state0.copy(), setup.bcs))
        for n in range(steps):
            z = stepper.advance(z, n * setup.dt, setup.dt)
        return stepper, z, steps * setup.dt, setup.dt

    @pytest.mark.parametrize("name, stale", [
        ("experiment1", "half_dt"), ("experiment2", "ten_dt"),
        ("experiment2", "other_state")])
    def test_stale_factors_are_refreshed(self, name, stale):
        stepper, z, t, dt = self._stepped(name)
        stepper.lu = None
        fresh = stepper._solve(z, t, dt)       # damped Newton from z
        assert fresh is not None
        if stale == "other_state":
            shifted = z.reshape(-1, stepper.f.nf).copy()
            shifted[:, 2] += 40.0
            stepper.lu = stepper._system_matrix(shifted.ravel(), t, dt)
        else:
            stepper.lu = stepper._system_matrix(
                z, t, (0.5 if stale == "half_dt" else 10.0) * dt)
        refreshes, fallbacks = stepper.refreshes, stepper.fallbacks
        out = stepper._solve(z, t, dt)
        assert stepper.refreshes == refreshes + 1
        assert stepper.fallbacks == fallbacks
        assert out is not None and stepper.f.plausible(out)
        assert stepper._norm(out - fresh) < 1e-9

    def test_singular_refresh_falls_back_to_newton(self, monkeypatch):
        stepper, z, t, dt = self._stepped("experiment2")
        stepper.lu = None
        fresh = stepper._solve(z, t, dt)
        stepper.lu = stepper._system_matrix(z, t, 10.0 * dt)
        band_lu, calls = solver1d._band_lu, []

        def singular_first(ab, hb):
            calls.append(hb)
            return None if len(calls) == 1 else band_lu(ab, hb)

        monkeypatch.setattr(solver1d, "_band_lu", singular_first)
        refreshes, fallbacks = stepper.refreshes, stepper.fallbacks
        out = stepper._solve(z, t, dt)
        assert stepper.refreshes == refreshes + 1
        assert stepper.fallbacks == fallbacks + 1
        assert len(calls) > 1                     # Newton built its own
        assert out is not None and stepper._norm(out - fresh) < 1e-9


def _random_stack(seed, p, nx, rows):
    """rows random flattened bar states (interleaved [u, v, theta(, w)])."""
    rng = np.random.default_rng(seed)
    n = nx + 1
    fields = [1e-2 * rng.standard_normal((rows, n)),
              1e-1 * rng.standard_normal((rows, n)),
              300.0 + 5.0 * rng.standard_normal((rows, n))]
    if p.tau0 > 0:
        fields.append(rng.standard_normal((rows, n)))
    return np.stack(fields, axis=-1).reshape(rows, -1)


WAVY = Forcing(lambda x, t: 50.0 * np.sin(3.0 * x + t),
               lambda x, t: 20.0 * np.cos(2.0 * x - t) ** 2)


class TestBatchedRhs:
    """_Rhs on a (B, n) stack is B single calls, bit for bit."""

    @pytest.mark.parametrize("mech, thermal, changed", JACOBIAN_CASES,
                             ids=JACOBIAN_IDS)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), nx=st.integers(4, 12),
           rows=st.integers(1, 5), t=st.floats(0.0, 10.0))
    def test_stack_matches_single_calls(self, mech, thermal, changed,
                                        seed, nx, rows, t):
        p = P.with_(**changed)
        bcs = BoundarySpec(mech, thermal, beta=0.5,
                           theta_ambient=lambda s: 290.0 + s)
        f = _Rhs(Grid1D(1.0, nx), p, bcs, WAVY)
        zs = _random_stack(seed, p, nx, rows)
        singles = np.stack([f(z, t) for z in zs])
        batched = f(zs, t)
        assert batched.shape == zs.shape
        np.testing.assert_array_equal(batched.view(np.int64),
                                      singles.view(np.int64))

    @pytest.mark.parametrize("mech", ["pinned", "stress_free", "mixed"])
    @pytest.mark.parametrize("changed", [{}, {"tau0": 1e-3, "nu": 3.0}],
                             ids=["base", "tau0-nu"])
    @pytest.mark.parametrize("rows", [None, 3])
    def test_scalar_forcing_matches_filled_arrays(self, mech, changed, rows):
        """x-independent forcing returned as a float gives the bits of the
        same value filled into a node array, ends included."""
        p = P.with_(**changed)
        body = lambda t: 500.0 + 7000.0 * np.sin(0.3 * t) ** 3
        heat = lambda t: -2.5e4 * np.sin(0.7 * t) ** 3
        scalar = Forcing(lambda x, t: body(t), lambda x, t: heat(t))
        filled = Forcing(lambda x, t: np.full_like(x, body(t)),
                         lambda x, t: np.full_like(x, heat(t)))
        nx, t = 9, 1.7
        bcs = BoundarySpec(mech, "controlled_flux", beta=0.5,
                           theta_ambient=290.0)
        g = Grid1D(1.0, nx)
        zs = _random_stack(11, p, nx, rows or 1)
        z = zs if rows else zs[0]
        got = _Rhs(g, p, bcs, scalar)(z, t)
        want = _Rhs(g, p, bcs, filled)(z, t)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        state = _Rhs(g, p, bcs, scalar).unpack(zs[0], t)
        np.testing.assert_array_equal(
            _Rhs(g, p, bcs, scalar).stress(state).view(np.int64),
            _Rhs(g, p, bcs, filled).stress(state).view(np.int64))

    def test_preset_forcing_is_scalar(self):
        x = Grid1D(1.0, 8).nodes()
        for name in ("experiment1", "experiment2", "conservation"):
            forcing = preset(name).resolve().forcing
            for fn in (forcing.body, forcing.heat):
                assert isinstance(fn(x, 0.37), float)
        assert isinstance(Forcing.none().body(x, 0.0), float)

    @pytest.mark.parametrize("tau0", [0.0, 1e-3])
    def test_nu_degenerate_row_aborts_the_stack(self, tau0):
        nx = 8
        p = P.with_(nu=3.0, tau0=tau0)
        f = _Rhs(Grid1D(1.0, nx), p, BoundarySpec(), Forcing.none())
        zs = _random_stack(3, p, nx, 3)
        for z in zs:
            assert np.all(np.isfinite(f(z, 0.0)))
        # eps_dot = 20 > C_v / nu everywhere in the middle row
        zs.reshape(3, nx + 1, -1)[1, :, 1] = 20.0 * Grid1D(1.0, nx).nodes()
        with pytest.raises(IntegrationError):
            f(zs[1], 0.0)
        with pytest.raises(IntegrationError):
            f(zs, 0.0)

    @pytest.mark.parametrize("tau0", [0.0, 1e-3])
    def test_check_rejects_a_nu_degenerate_state(self, tau0):
        """check applies the right-hand side's C_v - nu <eps_dot> > 0 test
        to a stored state, with the same reason, at the time it is given."""
        nx = 8
        p = P.with_(nu=3.0, tau0=tau0)
        f = _Rhs(Grid1D(1.0, nx), p, BoundarySpec(), Forcing.none())
        z = _random_stack(3, p, nx, 1)[0]
        f.check(z, 0.0)
        z.reshape(nx + 1, -1)[:, 1] = 20.0 * Grid1D(1.0, nx).nodes()
        with pytest.raises(IntegrationError) as err:
            f(z, 0.0)
        with pytest.raises(IntegrationError) as rejected:
            f.check(z, 0.25)
        assert rejected.value.reason == err.value.reason
        assert rejected.value.time == 0.25

    def test_stored_theta_dot_stress_needs_no_nu_test(self):
        """With tau0 > 0 the stress reads the stored theta_dot, so it is
        defined on a state whose C_v - nu <eps_dot> is not positive; with
        tau0 = 0 it needs the heat equation's theta_t and aborts."""
        nx = 8
        g = Grid1D(1.0, nx)
        p = P.with_(nu=3.0, tau0=1e-3)
        f = _Rhs(g, p, BoundarySpec(), Forcing.none())
        z = _random_stack(3, p, nx, 1)[0]
        z.reshape(nx + 1, -1)[:, 1] = 20.0 * g.nodes()
        state = f.unpack(z, 0.0)
        assert np.isfinite(bar_stress(state, g, p)).all()
        state.theta_dot = None
        with pytest.raises(IntegrationError, match="degenerate nu coupling"):
            bar_stress(state, g, p.with_(tau0=0.0))


# The node stage sums each row's terms in another order than the reference
# stencils and folds 1/rho, 1/C_v and 1/dx^2 into its weights, so a row
# rounds differently by a few ulps of the largest value of its field; 64
# ulps of that leaves room, and a wrong weight or a lost term misses by a
# sizeable fraction of it.
ROUNDING = 64 * np.finfo(float).eps


def _near_reference(got, want, nf):
    """|got - want| within ROUNDING of the largest |want| of each field of
    each state of a packed state or stack."""
    got = got.reshape(got.shape[:-1] + (-1, nf))
    want = want.reshape(got.shape)
    scale = np.abs(want).max(axis=-2, keepdims=True)
    return bool((np.abs(got - want) <= ROUNDING * scale).all())


class TestReferenceRhs:
    """_Rhs against the stencils it replaced (tests/rhs_reference.py)."""

    @pytest.mark.parametrize("mech, thermal, changed", JACOBIAN_CASES,
                             ids=JACOBIAN_IDS)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), nx=st.integers(4, 12),
           rows=st.integers(1, 5), t=st.floats(0.0, 10.0))
    def test_matches_reference(self, mech, thermal, changed, seed, nx, rows,
                               t):
        p = P.with_(**changed)
        bcs = BoundarySpec(mech, thermal, beta=0.5,
                           theta_ambient=lambda s: 290.0 + s)
        g = Grid1D(1.0, nx)
        f, ref = _Rhs(g, p, bcs, WAVY), ReferenceRhs(g, p, bcs, WAVY)
        zs = _random_stack(seed, p, nx, rows)
        assert _near_reference(f(zs[0], t), ref(zs[0], t), f.nf)
        assert _near_reference(f(zs, t), ref(zs, t), f.nf)
        s, want = f.stress(f.unpack(zs[0], t)), ref.stress(zs[0], t)
        assert (np.abs(s - want) <= ROUNDING * np.abs(want).max()).all()

    @pytest.mark.parametrize("mech, thermal, changed", [
        ("pinned", "controlled_flux", {}),
        ("mixed", "controlled_flux", {"tau0": 1e-3, "nu": 3.0, "mu": 2.5,
                                      "gamma": 1e-6, "beta_tilde": 1e-3}),
    ], ids=["base", "every-tail"])
    def test_large_grid_stays_linear(self, mech, thermal, changed):
        """At nx = 20,000 every array _Rhs keeps holds at most 5 values per
        entry of z (the tap and weight tables), and a single call and a
        stack call still meet the reference."""
        nx = 20_000
        p = P.with_(**changed)
        bcs = BoundarySpec(mech, thermal, beta=0.5, theta_ambient=290.0)
        g = Grid1D(1.0, nx)
        f = _Rhs(g, p, bcs, WAVY)
        kept = [a for a in vars(f).values() if isinstance(a, np.ndarray)]
        assert max(a.size for a in kept) <= 5 * (nx + 1) * f.nf
        # u and v scaled down so that strains and strain rates at this dx
        # are those of the coarse grids, with C_v - nu <eps_dot> positive
        scale = np.tile([1e-5, 1e-4, 1.0, 1e-3][:f.nf], nx + 1)
        zs = _random_stack(5, p, nx, 2) * scale
        ref = ReferenceRhs(g, p, bcs, WAVY)
        assert _near_reference(f(zs[0], 0.5), ref(zs[0], 0.5), f.nf)
        assert _near_reference(f(zs, 0.5), ref(zs, 0.5), f.nf)


def _vec(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


@st.composite
def pinned_states(draw):
    """Random Cu bar states on [0, 1] with u = v = 0 at both ends."""
    nx = draw(st.integers(6, 32))
    g = Grid1D(1.0, nx)
    u = np.concatenate(([0.0], np.cumsum(draw(_vec(-0.12, 0.12, nx))) * g.dx))
    u -= u[-1] * g.nodes()
    v = np.concatenate(([0.0], draw(_vec(-1.0, 1.0, nx - 1)), [0.0]))
    return g, FieldState(0.0, u, v, draw(_vec(200.0, 350.0, nx + 1)))


class TestEnergyBudget:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40).flatmap(
        lambda n: st.tuples(_vec(-1e3, 1e3, n + 1), _vec(-1e3, 1e3, n))))
    @example(pair=(np.full(2, 3.46202739e-157), np.full(1, 3.46202739e-157)))
    def test_node_average_is_trapezoid_adjoint(self, pair):
        a, m = pair
        w = np.ones(a.size)
        w[0] = w[-1] = 0.5
        lhs = np.sum(w * a * _node_average(m))
        mid = np.sum(m * 0.5 * (a[1:] + a[:-1]))
        scale = np.sum(np.abs(m) * (np.abs(a[1:]) + np.abs(a[:-1])))
        # products that underflow to subnormals are rounded to a multiple
        # of the smallest subnormal, an absolute error no relative bound
        # covers (here 1e-13 * scale rounds to 0): allow a few per term
        tiny = np.finfo(float).smallest_subnormal
        assert abs(lhs - mid) <= 1e-13 * scale + 4 * tiny * (a.size + m.size)

    @settings(max_examples=60, deadline=None)
    @given(pinned_states())
    def test_spatial_operator_conserves_energy(self, drawn):
        """With F = G = 0, pinned + insulated ends and mu = nu = tau0 =
        gamma = 0 the derivative of energy_budget along rhs(state) is zero.

        It is taken by central differences with step h.  Their truncation
        error is nil for the kinetic (quadratic) and thermal (linear) parts;
        for the sextic strain energy it scales as h^2 and reached 4e-4 of
        the power at h = 1e-5 on these states, so under 1e-7 at h = 1e-7.
        Their round-off is a few ulps of E per evaluation over 2h.  A term
        of the energy exchange lost or mis-weighted breaks the balance by a
        sizeable fraction of the power, far above either allowance.
        """
        g, state = drawn
        assert P.mu == P.nu == P.tau0 == P.gamma == 0.0
        d = rhs(state, g, P, BoundarySpec("pinned", "insulated"),
                Forcing.none())
        h = 1e-7

        def slope(du, dv, dtheta):
            def energy(s):
                return energy_budget(FieldState(
                    0.0, state.u + s * du, state.v + s * dv,
                    state.theta + s * dtheta), g, P)
            return (energy(h) - energy(-h)) / (2.0 * h)

        zero = np.zeros_like(state.u)
        power = (abs(slope(d.u, zero, zero)) + abs(slope(zero, d.v, zero))
                 + abs(slope(zero, zero, d.theta)))
        e0 = energy_budget(state, g, P)
        tol = 100.0 * np.spacing(e0) / h + 1e-6 * power
        assert abs(slope(d.u, d.v, d.theta)) <= tol

    def test_uniform_rest_state(self):
        g = Grid1D(1.0, 20)
        st = make_state(g, theta=250.0)
        expect = g.length * P.rho * (P.alpha0 + P.alpha1 * 250.0)
        assert energy_budget(st, g, P) == pytest.approx(expect, rel=1e-14)

    def test_kinetic_scaling(self):
        g = Grid1D(1.0, 20)
        v = lambda x: 0.3 * np.sin(np.pi * x)
        e0 = energy_budget(make_state(g, theta=250.0), g, P)
        e1 = energy_budget(make_state(g, v=v, theta=250.0), g, P)
        e2 = energy_budget(make_state(g, v=lambda x: 2 * v(x), theta=250.0),
                           g, P)
        # differences of O(0.1) on totals of O(1e4): cancellation limits
        # the achievable agreement to ~1e-10 relative
        assert e2 - e1 == pytest.approx(3.0 * (e1 - e0), rel=1e-9)

    def test_conservation_short_run(self):
        g = Grid1D(1.0, 24)
        x = g.nodes()
        st = FieldState(0.0, np.interp(x, [0, 0.5, 1], [0, 0.005, 0]),
                        np.zeros(x.size), np.full(x.size, 250.0))
        setup = RunSetup(g, P, BoundarySpec("pinned", "insulated"),
                         Forcing.none(), st, 2e-4, 0.2, 0.02)
        traj = simulate(setup)
        E = np.array([d[1] for d in traj.diagnostics])
        assert np.abs(E - E[0]).max() / abs(E[0]) < 2e-5

    def test_viscous_heating_is_conservative(self):
        # the mu eps_dot^2 heating term re-deposits exactly the viscous
        # power, so the total budget is conserved even with mu > 0
        g = Grid1D(1.0, 16)
        p = P.with_(mu=5.0)
        x = g.nodes()
        st = FieldState(0.0, 1e-3 * np.sin(np.pi * x), np.zeros(x.size),
                        np.full(x.size, 300.0))
        setup = RunSetup(g, p, BoundarySpec("pinned", "insulated"),
                         Forcing.none(), st, 1e-4, 0.05, 0.01)
        traj = simulate(setup)
        E = np.array([d[1] for d in traj.diagnostics])
        assert np.abs(E - E[0]).max() / abs(E[0]) < 1e-10


class TestRelaxedHeat:
    def test_cosine_mode_follows_telegraph_law(self):
        """tau0 > 0 heat law against an exact discrete mode.

        With u = v = 0 and insulated ends, cos(pi x / L) is an eigenvector
        of the discrete conduction operator with eigenvalue -lambda_h,
        lambda_h = (4/dx^2) sin^2(pi dx / 2L), so its amplitude T obeys
        tau0 T'' + T' + (k0/C_v) lambda_h T = 0, T(0) = 1, T'(0) = 0: an
        underdamped oscillation that carries the ends below the mean
        temperature, which a Fourier law (monotone decay) cannot do.
        """
        g = Grid1D(1.0, 24)
        p = P.with_(k0=29.0, tau0=0.1)
        x = g.nodes()
        mode = np.cos(np.pi * x)
        st = FieldState(0.0, np.zeros(x.size), np.zeros(x.size),
                        300.0 + 5.0 * mode, np.zeros(x.size))
        traj = simulate(RunSetup(g, p, BoundarySpec("pinned", "insulated"),
                                 Forcing.none(), st, 5e-4, 1.0, 0.01))
        lam = 4.0 / g.dx ** 2 * np.sin(np.pi * g.dx / 2.0) ** 2
        decay = 1.0 / (2.0 * p.tau0)
        omega = np.sqrt(4.0 * p.tau0 * p.k0 / p.cv * lam - 1.0) / (2.0 * p.tau0)
        t = traj.times()
        amp = np.exp(-decay * t) * (np.cos(omega * t)
                                    + decay / omega * np.sin(omega * t))
        theta = np.array([s.theta for s in traj.snapshots])
        err = np.abs(theta - 300.0 - 5.0 * np.outer(amp, mode)).max() / 5.0
        assert err <= 1e-9
        for s in traj.snapshots:
            np.testing.assert_array_equal(s.u, 0.0)
        assert theta[:, 0].min() < 300.0 - 0.15 * 5.0


class TestBoundaryConditions:
    def test_pinned_ends_exact(self):
        g = Grid1D(1.0, 16)
        x = g.nodes()
        st = FieldState(0.0, 2e-3 * np.sin(np.pi * x), np.zeros(x.size),
                        np.full(x.size, 300.0))
        setup = RunSetup(g, P, BoundarySpec("pinned", "insulated"),
                         Forcing.none(), st, 1e-4, 0.05, 0.01)
        traj = simulate(setup)
        for s in traj.snapshots:
            assert s.u[0] == 0.0 and s.u[-1] == 0.0
            assert s.v[0] == 0.0 and s.v[-1] == 0.0

    def test_controlled_flux_relaxes_to_ambient(self):
        g = Grid1D(1.0, 16)
        bcs = BoundarySpec("pinned", "controlled_flux", beta=0.5,
                           theta_ambient=300.0)
        st = make_state(g, theta=250.0)
        setup = RunSetup(g, P, bcs, Forcing.none(), st, 1e-3, 3.0, 1.0,
                         "implicit_euler")
        traj = simulate(setup)
        th_end = traj.snapshots[-1].theta
        assert th_end[-1] > 250.5            # heated through the right end
        assert th_end[-1] > th_end[0]        # left end lags (insulated)

    def test_controlled_flux_beta_zero_is_insulation(self):
        g = Grid1D(1.0, 12)
        st = make_state(g, theta=lambda x: 250.0 + 10 * np.cos(np.pi * x))
        d_ins = rhs(st, g, P, BoundarySpec("pinned", "insulated"),
                    Forcing.none())
        d_cf = rhs(st, g, P, BoundarySpec("pinned", "controlled_flux",
                                          beta=0.0, theta_ambient=999.0),
                   Forcing.none())
        np.testing.assert_array_equal(d_ins.theta, d_cf.theta)

    def test_fixed_theta_holds_ends(self):
        g = Grid1D(1.0, 12)
        bcs = BoundarySpec("pinned", "fixed_theta", fixed_value=250.0)
        st = make_state(g, theta=lambda x: 250.0 + 20 * np.sin(np.pi * x))
        st.theta[0] = st.theta[-1] = 250.0
        setup = RunSetup(g, P, bcs, Forcing.none(), st, 1e-3, 0.5, 0.1)
        traj = simulate(setup)
        for s in traj.snapshots:
            assert s.theta[0] == 250.0 and s.theta[-1] == 250.0
        # interior diffuses toward the held value
        assert traj.snapshots[-1].theta[6] < st.theta[6] + 1e-12

    @pytest.mark.parametrize("value", [0.0, -250.0])
    def test_fixed_theta_needs_a_positive_fixed_value(self, value):
        with pytest.raises(ValueError, match="fixed_value must be positive"):
            BoundarySpec("pinned", "fixed_theta", fixed_value=value)
        BoundarySpec("pinned", "insulated", fixed_value=value)

    @pytest.mark.parametrize("value", [0.0, -50.0])
    def test_controlled_flux_needs_a_positive_ambient(self, value):
        """A controlled-flux end with beta > 0 relaxes toward theta_ambient,
        which must then be positive; without the Robin term (beta = 0, or
        another thermal kind) it is unused, and a callable is the
        caller's."""
        with pytest.raises(ValueError, match="theta_ambient must be positive"):
            BoundarySpec("pinned", "controlled_flux", beta=5.0,
                         theta_ambient=value)
        BoundarySpec("pinned", "controlled_flux", beta=0.0,
                     theta_ambient=value)
        BoundarySpec("pinned", "insulated", beta=5.0, theta_ambient=value)
        BoundarySpec("pinned", "controlled_flux", beta=5.0,
                     theta_ambient=lambda t: value)

    def test_start_sets_the_held_end_values(self):
        """A RunSetup built in Python may leave its ends free: the run
        starts from a copy of state0 with u = v = 0 at pinned ends and theta
        = fixed_value at fixed_theta ends, holds them there, and leaves the
        caller's state0 as it was."""
        g = Grid1D(1.0, 16)
        x = g.nodes()
        st = FieldState(0.0, 1e-6 + 1e-3 * np.sin(np.pi * x),
                        1e-4 * np.cos(np.pi * x),
                        260.0 + 20.0 * np.sin(np.pi * x))
        st.u[[0, -1]] = 1e-6
        before = st.copy()
        bcs = BoundarySpec("pinned", "fixed_theta", fixed_value=250.0)
        traj = simulate(RunSetup(g, P, bcs, Forcing.none(), st, 1e-4, 0.01,
                                 0.002))
        assert len(traj.snapshots) == 6
        for s in traj.snapshots:
            assert s.u[0] == s.u[-1] == s.v[0] == s.v[-1] == 0.0
            assert s.theta[0] == s.theta[-1] == 250.0
        assert (traj.snapshots[-1].u != traj.snapshots[0].u).any()
        assert traj.setup.state0 is st and st.t == 0.0
        for name in ("u", "v", "theta"):
            np.testing.assert_array_equal(getattr(st, name),
                                          getattr(before, name))

    def test_mixed_mech(self):
        g = Grid1D(1.0, 16)
        st = make_state(g, u=lambda x: 1e-3 * np.sin(np.pi * x), theta=300.0)
        setup = RunSetup(g, P, BoundarySpec("mixed", "insulated"),
                         Forcing.none(), st, 1e-4, 0.02, 0.01)
        traj = simulate(setup)
        for s in traj.snapshots:
            assert s.u[-1] == 0.0            # pinned right
        assert traj.snapshots[-1].u[0] != 0.0  # free left moves


class TestSimulate:
    @pytest.mark.parametrize("config, nfe", [
        ("conservation", 40_000), ("slab_reconstruct.ini", 9_600)])
    def test_rk4_counts_four_evaluations_per_step(self, config, nfe):
        """An RK4 run of either model keeps its stepper on the Trajectory,
        which counts four right-hand side evaluations per step."""
        if config.endswith(".ini"):
            config = load_config(os.path.join(
                os.path.dirname(__file__), "..", "bench", config))
        else:
            config = preset(config)
        setup = config.resolve()
        assert setup.integrator == "rk4"
        stepper = simulate(setup).stepper
        assert stepper.nfe == 4 * round(setup.t_end / setup.dt) == nfe

    def test_step_count_ceiling_is_inclusive(self):
        """_step_count returns ceil(t_end/dt) up to 10^9 steps and refuses
        more, so an enormous finite count ends before any stepping; a dt
        far above t_end is still one step."""
        assert solver1d._step_count(1e9, 1.0) == 10**9
        assert solver1d._step_count(1.0, 1e10) == 1
        for t_end, dt in ((1e9 + 1.0, 1.0), (0.24, 1e-300)):
            with pytest.raises(ValueError, match="more than 1000000000 steps"):
                solver1d._step_count(t_end, dt)

    def test_snapshot_count(self):
        g = Grid1D(1.0, 8)
        st = make_state(g, theta=250.0)
        setup = RunSetup(g, P, BoundarySpec(), Forcing.none(),
                         st, 1e-3, 0.0213, 0.005)
        traj = simulate(setup)
        assert len(traj.snapshots) == int(np.floor(0.0213 / 0.005)) + 1

    def test_determinism(self):
        g = Grid1D(1.0, 16)
        x = g.nodes()

        def build():
            st = FieldState(0.0, 1e-3 * np.sin(np.pi * x), np.zeros(x.size),
                            250.0 + 10 * np.cos(np.pi * x))
            return RunSetup(g, P, BoundarySpec("pinned", "insulated"),
                            Forcing(lambda x, t: np.full_like(x, 100.0),
                                    lambda x, t: np.full_like(x, 50.0)),
                            st, 2e-4, 0.1,
                            0.02, "implicit_euler")

        t1 = simulate(build())
        t2 = simulate(build())
        for a, b in zip(t1.snapshots, t2.snapshots):
            np.testing.assert_array_equal(a.u, b.u)
            np.testing.assert_array_equal(a.v, b.v)
            np.testing.assert_array_equal(a.theta, b.theta)

    def test_nonpositive_theta_between_snapshots_aborts_at_that_step(self):
        g = Grid1D(1.0, 8)
        sink = Forcing(lambda x, t: 0.0, lambda x, t: -1e6)
        dt = 1e-4
        setup = RunSetup(g, P, BoundarySpec(), sink, make_state(g, theta=20.0),
                         dt, 1.0, 0.5)
        # the same RK4 steps by hand, to the first with a theta <= 0
        f = _Rhs(g, P, setup.bcs, sink)
        rk4 = solver1d._stepper(f, "rk4")
        z, n = f.pack(setup.state0), 0
        while z[2::3].min() > 0:
            z = rk4.advance(z, n * dt, dt)
            n += 1
        assert np.isfinite(z).all() and n > 1
        with pytest.raises(IntegrationError, match="non-positive") as err:
            simulate(setup)
        assert err.value.time == n * dt < setup.output_interval
        partial = err.value.partial
        assert partial.failed and partial.failure == str(err.value)
        assert [s.t for s in partial.snapshots] == [0.0]
        assert len(partial.diagnostics) == 1

    def test_non_finite_step_aborts_as_stability_violation(self):
        """A step that ends in a non-finite state is refused at its end
        time and not stored: a body force that is infinite after t = 0
        ends conservation after its first step."""
        setup = preset("conservation").resolve()
        body = lambda x, t: np.inf if t > 0 else 0.0
        setup = replace(setup, forcing=Forcing(body, setup.forcing.heat))
        message = r"non-finite values \(stability violation\)"
        with np.errstate(invalid="ignore"), \
                pytest.raises(IntegrationError, match=message) as err:
            simulate(setup)
        assert err.value.time == setup.dt
        assert [s.t for s in err.value.partial.snapshots] == [0.0]

    def test_unconverged_implicit_step_aborts(self, monkeypatch):
        """A solve that never succeeds is halved MAX_DEPTH times, each time
        on the first half, and then the run aborts at the step's start."""
        steppers = []

        def failing(self, z, t, dt):
            steppers.append(self)
            return None

        monkeypatch.setattr(_ImplicitStepper, "_solve", failing)
        setup = preset("experiment2").resolve()
        with pytest.raises(IntegrationError,
                           match="implicit step failed to converge") as err:
            simulate(setup)
        assert err.value.time == 0.0
        partial = err.value.partial
        assert steppers == [partial.stepper] * (_ImplicitStepper.MAX_DEPTH + 1)
        assert partial.stepper.subdivided == 1
        assert [s.t for s in partial.snapshots] == [0.0]

    def test_failure_carries_partial_trajectory(self):
        g = Grid1D(1.0, 16)
        st = make_state(g, u=lambda x: 0.01 * np.sin(4 * np.pi * x),
                        theta=300.0)
        setup = RunSetup(g, P, BoundarySpec("pinned", "insulated"),
                         Forcing.none(), st, 0.05, 5.0, 0.05)
        with pytest.raises(IntegrationError) as err:
            simulate(setup)
        assert err.value.time > 0.0
        partial = err.value.partial
        assert partial.failed and len(partial.snapshots) >= 1


class TestStableDt:
    def test_wave_bound_formula(self):
        g = Grid1D(1.0, 24)
        st = make_state(g, theta=300.0)
        c = np.sqrt(P.k1 * (300.0 - P.theta1) / P.rho)
        expect = np.sqrt(2.0) * g.dx / c
        assert stable_dt(st, g, P) == pytest.approx(expect, rel=1e-12)

    def test_quintic_branch_tightens_bound(self):
        g = Grid1D(1.0, 24)
        soft = stable_dt(make_state(g, theta=300.0), g, P)
        hard = stable_dt(make_state(g, u=lambda x: 0.118 * x, theta=300.0),
                         g, P)
        assert hard < 0.5 * soft

    def test_relaxation_bound(self):
        g = Grid1D(1.0, 24)
        p = P.with_(tau0=1e-6)
        x = g.nodes()
        st = FieldState(0.0, np.zeros(x.size), np.zeros(x.size),
                        np.full(x.size, 300.0), np.zeros(x.size))
        assert stable_dt(st, g, p) == pytest.approx(2.785e-6, rel=1e-12)
