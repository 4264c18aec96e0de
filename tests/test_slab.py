"""Reduced slab model: fixed points, dispersion, decoupling and the
cross-slab reconstruction identities."""

from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from smabar.slab import (
    ENDS,
    SlabParams,
    SlabRunSetup,
    SlabState,
    _Differences,
    _SlabRhs,
    cu_based_slab,
    reconstruct_fields,
    slab_rhs,
    slab_simulate,
)
from smabar.solver1d import Grid1D, IntegrationError

P = cu_based_slab()
L = 2.0 * np.pi
NX = 64
DX = L / NX
X = np.arange(NX) * DX


def uniform_state(u1=0.25, u2=-0.125, th=0.5, n=NX):
    z = np.zeros(n)
    return SlabState(0.0, np.full(n, u1), np.full(n, u2), z.copy(),
                     z.copy(), np.full(n, th))


def standing_wave(field, amplitude, k=1.0, n=NX):
    arrays = {name: np.zeros(n) for name in ("U1", "U2", "V1", "V2", "Th")}
    arrays[field] = amplitude * np.sin(k * np.arange(n) * (L / n))
    return SlabState(0.0, arrays["U1"], arrays["U2"], arrays["V1"],
                     arrays["V2"], arrays["Th"])


def measured_frequency(traj, field, k=1.0):
    """Standing-wave frequency from the first zero crossing of the modal
    coefficient a(t) = A cos(omega t)."""
    x = np.arange(getattr(traj.snapshots[0], field).size) * traj.setup.dx
    proj = np.array([2.0 / x.size * np.sum(getattr(s, field) * np.sin(k * x))
                     for s in traj.snapshots])
    t = traj.times()
    sign = proj[1:] * proj[:-1]
    i = int(np.argmax(sign < 0))
    assert sign[i] < 0, "no zero crossing captured"
    tz = t[i] + (t[i + 1] - t[i]) * proj[i] / (proj[i] - proj[i + 1])
    return np.pi / (2.0 * tz)


class TestFixedPoint:
    def test_uniform_state_exact(self):
        d = slab_rhs(uniform_state(), P, DX)
        for arr in d:
            np.testing.assert_array_equal(arr, 0.0)

    def test_uniform_state_pinned_thermal_ghosts(self):
        # pinned ends force U = 0 there; a uniform Th still has zero flux
        n = NX + 1
        z = np.zeros(n)
        st = SlabState(0.0, z.copy(), z.copy(), z.copy(), z.copy(),
                       np.full(n, 2.0))
        d = slab_rhs(st, P, DX, "pinned_insulated")
        for arr in d:
            np.testing.assert_array_equal(arr, 0.0)

    def test_step_stationarity(self):
        st = uniform_state(0.3, -0.2, 5.0)
        setup = SlabRunSetup(P, Grid1D(L, NX), st, 5e-5, 5e-4, 5e-4)
        traj = slab_simulate(setup)
        end = traj.snapshots[-1]
        for name in ("U1", "U2", "V1", "V2", "Th"):
            delta = np.abs(getattr(end, name) - getattr(st, name)).max()
            assert delta < 1e-12


class TestDispersion:
    def test_longitudinal_phase_speed(self):
        st = standing_wave("U1", 1e-6)
        setup = SlabRunSetup(P, Grid1D(L, NX), st, 5e-5, 0.02, 0.02 / 400)
        omega = measured_frequency(slab_simulate(setup), "U1")
        target = np.sqrt((P.c_wave - P.c_disp * P.b ** 2) / P.rho)
        assert omega / 1.0 == pytest.approx(target, rel=5e-3)
        # and against the long-wave speed itself (kb = 0.05 correction tiny)
        assert omega == pytest.approx(P.wave_speed, rel=1e-2)

    def test_bending_frequency(self):
        st = standing_wave("U2", 1e-6)
        om_ref = np.sqrt(P.c_bend * P.b ** 2 / P.rho)
        T = 2 * np.pi / om_ref
        setup = SlabRunSetup(P, Grid1D(L, NX), st, 2e-4, T, T / 400)
        omega = measured_frequency(slab_simulate(setup), "U2")
        assert omega == pytest.approx(om_ref, rel=1e-2)


class TestDecoupling:
    def test_bending_stays_zero_under_longitudinal_motion(self):
        st = standing_wave("U1", 1e-4)
        setup = SlabRunSetup(P, Grid1D(L, NX), st, 5e-5, 0.01, 0.002)
        traj = slab_simulate(setup)
        for s in traj.snapshots:
            np.testing.assert_array_equal(s.U2, 0.0)
            np.testing.assert_array_equal(s.V2, 0.0)

    def test_bending_autonomous(self):
        st = standing_wave("U2", 1e-4)
        d = slab_rhs(st, P, DX)
        np.testing.assert_array_equal(d[2], 0.0)   # dV1
        assert np.abs(d[3]).max() > 0.0            # dV2 active


class TestReconstruction:
    def test_linear_u1_is_identity(self):
        n = NX + 1
        x = np.arange(n) * DX
        st = SlabState(0.0, 0.01 * x, np.zeros(n), np.zeros(n), np.zeros(n),
                       np.zeros(n))
        u1, u2, theta = reconstruct_fields(st, P, 0.7, DX, "pinned_insulated")
        np.testing.assert_array_equal(theta, 300.0)
        np.testing.assert_allclose(u1[2:-2], st.U1[2:-2], atol=1e-15)

    def test_centreline_curvature_correction(self):
        st = standing_wave("U1", 1e-3)
        u1, _, _ = reconstruct_fields(st, P, 0.0, DX)
        u1xx_exact = -1e-3 * np.sin(X)
        expect = st.U1 + 0.15 * (-1.0) * P.b ** 2 * u1xx_exact
        np.testing.assert_allclose(u1, expect, atol=2e-9)

    def test_u2_formula_at_top_surface(self):
        a1, a2 = 2e-3, 1e-3
        n = NX
        st = SlabState(0.0, a1 * np.sin(X), a2 * np.sin(2 * X), np.zeros(n),
                       np.zeros(n), np.zeros(n))
        _, u2, _ = reconstruct_fields(st, P, 1.0, DX)
        u1x = a1 * np.cos(X)
        u2xx = -4 * a2 * np.sin(2 * X)
        expect = (st.U2 - 0.9 * P.b * u1x + 0.3 * P.b ** 2 * u2xx
                  - 141.0 * P.b * u1x ** 3)
        np.testing.assert_allclose(u2, expect, atol=2e-3 * a2)

    def test_thickness_average_recovers_amplitude(self):
        rng = np.random.default_rng(31)
        n = NX
        st = SlabState(0.0, 1e-3 * np.sin(X) + 5e-4 * np.cos(2 * X),
                       1e-3 * np.cos(X), 2e-2 * np.sin(2 * X),
                       1e-2 * np.sin(X), 3.0 * np.cos(X))
        nodes, weights = np.polynomial.legendre.leggauss(8)
        u1s = np.stack([reconstruct_fields(st, P, y, DX)[0] for y in nodes])
        avg = 0.5 * np.einsum("i,ij->j", weights, u1s)
        np.testing.assert_allclose(avg, st.U1, atol=1e-10)

    def test_rejects_out_of_range_Y(self):
        st = uniform_state()
        with pytest.raises(ValueError):
            reconstruct_fields(st, P, 1.5, DX)

    @pytest.mark.parametrize("Y", [np.nan, [0.5, np.nan], np.inf],
                             ids=["scalar_nan", "array_nan", "inf"])
    def test_rejects_non_finite_Y(self, Y):
        with pytest.raises(ValueError, match="finite and in"):
            reconstruct_fields(uniform_state(), P, Y, DX)


class TestValidation:
    def test_param_checks(self):
        with pytest.raises(ValueError):
            SlabParams(b=-0.1)
        with pytest.raises(ValueError):
            SlabParams(rho=0.0)

    @pytest.mark.parametrize("name, value", [("kappa", -0.019),
                                             ("c_bend", -991000.0)])
    def test_negative_kappa_and_c_bend_rejected(self, name, value):
        """A negative kappa makes the heat equation backward and a negative
        c_bend makes bending ill-posed; zero is allowed for both, like
        c_disp."""
        SlabParams(**{name: 0.0})
        with pytest.raises(ValueError, match="kappa and c_bend must be "
                                             "non-negative"):
            SlabParams(**{name: value})

    def test_state_length_check(self):
        st = uniform_state()
        st.U2 = st.U2[:-1]
        with pytest.raises(ValueError):
            st.validate()

    @pytest.mark.parametrize("name", ["U1", "U2", "V1", "V2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_state_amplitudes_must_be_finite(self, name, bad):
        """A non-finite U or V is refused by name, so a run never stores
        one as snapshot 0."""
        st = uniform_state()
        getattr(st, name)[5] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            st.validate()
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SlabRunSetup(P, Grid1D(L, NX), st, 1e-4, 1e-3, 1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -300.0])
    def test_state_theta_must_be_finite_and_above_floor(self, bad):
        st = uniform_state()
        assert st.validate() is st
        st.Th[5] = bad
        with pytest.raises(ValueError, match="finite and above -300 K"):
            st.validate()
        with pytest.raises(ValueError, match="finite and above -300 K"):
            SlabRunSetup(P, Grid1D(L, NX), st, 1e-4, 1e-3, 1e-3)

    @pytest.mark.parametrize("ends, least", [("periodic", 4),
                                             ("pinned_insulated", 5)])
    def test_fewer_points_than_a_run_rejected(self, ends, least):
        """The public functions refuse fewer points than a SlabRunSetup has
        (nx >= 4) with a ValueError naming the minimum; below it, periodic
        ghost nodes wrap past the array and mirrored ones overlap."""
        message = f"{ends} ends need at least {least} grid points"
        for n in range(1, least):
            with pytest.raises(ValueError, match=message):
                slab_rhs(uniform_state(n=n), P, DX, ends)
            with pytest.raises(ValueError, match=message):
                reconstruct_fields(uniform_state(n=n), P, 0.5, DX, ends)
        slab_rhs(uniform_state(n=least), P, DX, ends)
        reconstruct_fields(uniform_state(n=least), P, 0.5, DX, ends)

    def test_setup_is_frozen(self):
        """A setup's fields cannot change once it is built, so they stay
        the ones its __post_init__ checked."""
        setup = SlabRunSetup(P, Grid1D(L, NX), uniform_state(), 1e-4, 1e-3,
                             1e-3)
        with pytest.raises(FrozenInstanceError):
            setup.grid = Grid1D(L, 2 * NX)

    def test_setup_array_length_matches_ends(self):
        with pytest.raises(ValueError):
            SlabRunSetup(P, Grid1D(L, NX), uniform_state(n=NX), 1e-4, 1e-3,
                         1e-3, "pinned_insulated")

    def test_snapshot_cadence(self):
        st = uniform_state()
        setup = SlabRunSetup(P, Grid1D(L, NX), st, 1e-4, 0.0103, 0.002)
        traj = slab_simulate(setup)
        assert len(traj.snapshots) == int(np.floor(0.0103 / 0.002)) + 1

    def test_pinned_ends_hold_u_and_v_at_zero(self):
        """A pinned-insulated run zeroes U and V at both ends of its start
        (the odd ghost nodes assume it) and holds them there.  Without that,
        the end U1 of a uniform 0.001 cm start drifts and the run aborts."""
        st = uniform_state(u1=1e-3, u2=0.0, th=0.0, n=41)
        setup = SlabRunSetup(P, Grid1D(4.0, 40), st, 1e-4, 0.05, 0.002,
                             "pinned_insulated")
        traj = slab_simulate(setup)
        assert len(traj.snapshots) == 26
        assert (st.U1 == 1e-3).all()         # the setup's start is kept
        for snap in traj.snapshots:
            for name in ("U1", "U2", "V1", "V2"):
                assert np.abs(getattr(snap, name)[[0, -1]]).max() <= 1e-15
        assert np.abs(traj.snapshots[-1].U1[1:-1]).max() > 1e-4


# ---------------------------------------------------------------------------
# the matrix right-hand side against the per-field reference it replaced:
# one concatenate pad and one difference call per field, term by term


def _ref_pad(a, ends, odd, width=2):
    if ends == "periodic":
        return np.concatenate([a[-width:], a, a[:width]])
    sign = -1.0 if odd else 1.0
    left = sign * a[width:0:-1]
    right = sign * a[-2:-2 - width:-1]
    return np.concatenate([left, a, right])


# s = -1 gives the differences; s = +1 the same sums over the absolute
# values of their terms (for absolute-valued input)
def _ref_dx1(ap, dx, s=-1.0):
    return (ap[3:-1] + s * ap[1:-3]) / (2.0 * dx)


def _ref_dx2(ap, dx, s=-1.0):
    return (ap[3:-1] + s * 2.0 * ap[2:-2] + ap[1:-3]) / dx ** 2


def _ref_dx4(ap, dx, s=-1.0):
    return (ap[4:] + s * 4.0 * ap[3:-1] + 6.0 * ap[2:-2] + s * 4.0 * ap[1:-3]
            + ap[:-4]) / dx ** 4


def _abs_params(p):
    return replace(p, **{f.name: (tuple(map(abs, v)) if isinstance(v, tuple)
                                  else abs(v))
                         for f in fields(p) for v in [getattr(p, f.name)]})


def _slab_rhs_reference(state, p, dx, ends, magnitude=False):
    """(dU1, dU2, dV1, dV2, dTh), every operation in its original order.
    With magnitude, each is instead the sum of the absolute values of its
    terms (fields, coefficients and stencil weights taken absolute), the
    scale of the rounding error of any order of evaluation."""
    s = -1.0
    pad = lambda a, odd: _ref_pad(a, ends, odd)
    if magnitude:
        s, p = 1.0, _abs_params(p)
        state = SlabState(state.t, *np.abs(state.fields()))
        pad = lambda a, odd: np.abs(_ref_pad(a, ends, odd))
    b, b2, b4 = p.b, p.b * p.b, p.b ** 4
    u1 = pad(state.U1, odd=True)
    u2 = pad(state.U2, odd=True)
    v1 = pad(state.V1, odd=True)
    v2 = pad(state.V2, odd=True)
    th = pad(state.Th, odd=False)
    U1x, V1x = _ref_dx1(u1, dx, s), _ref_dx1(v1, dx, s)
    U1xx, U2xx = _ref_dx2(u1, dx, s), _ref_dx2(u2, dx, s)
    V1xx, V2xx = _ref_dx2(v1, dx, s), _ref_dx2(v2, dx, s)
    U1xxxx, U2xxxx = _ref_dx4(u1, dx, s), _ref_dx4(u2, dx, s)
    Thxx = _ref_dx2(th, dx, s)
    Th = state.Th

    bracket = ((p.s_theta[0] * Th + p.s_theta[1] * Th * Th) * U1x
               + (p.s_cubic[0] + p.s_cubic[1] * Th) * U1x ** 3
               + p.s_quintic * U1x ** 5
               + (p.s_rate2[0] + p.s_rate2[1] * Th) * b2 * V1x ** 2 * U1x
               + p.s_rate4 * b4 * V1x ** 4 * U1x
               + p.s_rate2_cubic * b2 * V1x ** 2 * U1x ** 3)
    bracket_x = _ref_dx1(pad(bracket, odd=False), dx, s)

    dV1 = (p.c_wave * U1xx + p.c_disp * b2 * U1xxxx + bracket_x) / p.rho
    dV2 = -(p.c_bend * b2 * U2xxxx) / p.rho

    heating = ((p.h_lin[0] + p.h_lin[1] * Th + p.h_lin[2] * Th * Th) * U1x * V1x
               + (p.h_cubic[0] + p.h_cubic[1] * Th) * V1x * U1x ** 3
               + (p.h_rate3[0] + p.h_rate3[1] * Th) * b2 * V1x ** 3 * U1x
               + p.h_quintic * V1x * U1x ** 5
               + p.h_mixed33 * b2 * V1x ** 3 * U1x ** 3
               + p.h_rate5 * b4 * V1x ** 5 * U1x
               + p.h_curv_long * b2 * U1xx * V1xx
               + p.h_curv_bend * b2 * U2xx * V2xx)
    hyper = _ref_dx2(pad(p.h_flux2 * b2 * U1x * V1x, odd=False), dx, s)
    dTh = (p.kappa * Thxx + heating + hyper) / p.cv
    out = state.V1.copy(), state.V2.copy(), dV1, dV2, dTh
    return tuple(map(np.abs, out)) if magnitude else out


# The matrix right-hand side sums the same terms in another order, with
# 1/rho, 1/C_v, b^2 and b^4 folded into its coefficients, so it meets the
# reference to within rounding: at most ROUNDING unit round-offs of the
# summed terms' magnitude (not of the result, which the fourth difference
# and the flux form cancel).  Over 3,000 draws of each property test below
# the largest error was 6.1 round-offs; a relative 1e-9 change to one
# coefficient or stencil weight exceeds the bound (the perturbation tests).
ROUNDING = 64.0 * np.finfo(float).eps


def _within_rounding(got, state, p, dx, ends):
    expect = _slab_rhs_reference(state, p, dx, ends)
    scale = _slab_rhs_reference(state, p, dx, ends, magnitude=True)
    return all((np.abs(g - e) <= ROUNDING * m).all()
               for g, e, m in zip(got, expect, scale))


def random_state(seed, n, scales):
    """Smooth-plus-noisy fields with the given per-field amplitudes."""
    rng = np.random.default_rng(seed)
    x = np.arange(n) / n
    return SlabState(0.25, *[s * (np.sin(2 * np.pi * x + rng.uniform(0, 6))
                                  + 0.3 * rng.standard_normal(n))
                             for s in scales])


# amplitudes around the slab_reconstruct run's (U1 1e-5, U2 1e-4, V up to
# about 1e-2, ThetaPrime a few K), a decade or more either side
SCALES = st.tuples(st.floats(-7.0, -3.0), st.floats(-6.0, -2.0),
                   st.floats(-5.0, 0.0), st.floats(-4.0, 0.0),
                   st.floats(-3.0, 1.5)).map(lambda e: [10.0 ** v for v in e])


# every coefficient of the table scaled by its own factor, zero included
# (except c_wave, which must stay positive), so that each term in turn can
# dominate the sums it enters and any change to its bits shows
FACTOR = st.one_of(st.just(0.0), st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e))
SCALED = [f.name for f in fields(SlabParams)
          if f.name not in ("b", "rho", "cv", "theta_ref")
          and not f.name.startswith(("r_", "t_"))]


@st.composite
def coefficient_tables(draw):
    table = {}
    for name in SCALED:
        factor = FACTOR.filter(bool) if name == "c_wave" else FACTOR
        base = getattr(P, name)
        values = [v * draw(factor) for v in np.atleast_1d(base)]
        table[name] = tuple(values) if isinstance(base, tuple) else values[0]
    return replace(P, **table)


def _bits(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


# every entry of every scaled coefficient, one at a time
ONE_COEFFICIENT = [(name, k) for name in SCALED
                   for k in range(np.size(getattr(P, name)))]


def _alone(name, k, factor=1.0):
    """P with every scaled coefficient zero but entry k of name, times
    factor (c_wave, which must stay positive, at 1e-300 otherwise)."""
    table = {f: 0.0 * np.atleast_1d(getattr(P, f)) for f in SCALED}
    table["c_wave"] = np.array([1e-300])
    table[name] = 0.0 * np.atleast_1d(getattr(P, name))
    table[name][k] = np.atleast_1d(getattr(P, name))[k] * factor
    return replace(P, **{f: tuple(v) if isinstance(getattr(P, f), tuple)
                         else float(v[0]) for f, v in table.items()})


class TestFusedRhs:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 48),
           ends=st.sampled_from(ENDS), scales=SCALES,
           dx=st.floats(0.082, 0.5))
    def test_equal_to_reference_within_rounding(self, seed, n, ends, scales,
                                                dx):
        state = random_state(seed, n, scales)
        got = _SlabRhs(P, dx, ends, n)(state.fields(), state.t)
        assert _within_rounding(got, state, P, dx, ends)
        assert _bits(slab_rhs(state, P, dx, ends)) == _bits(got)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 48),
           ends=st.sampled_from(ENDS), scales=SCALES,
           params=coefficient_tables())
    def test_equal_for_any_coefficient_table_within_rounding(
            self, seed, n, ends, scales, params):
        state = random_state(seed, n, scales)
        got = _SlabRhs(params, 0.1, ends, n)(state.fields(), state.t)
        assert _within_rounding(got, state, params, 0.1, ends)

    @pytest.mark.parametrize("ends", ENDS)
    @pytest.mark.parametrize("name, k", ONE_COEFFICIENT)
    def test_bound_catches_one_perturbed_coefficient(self, name, k, ends):
        """With one coefficient entry alone in the table, the right-hand
        side is within the bound of the reference; with that entry times
        1 + 1e-9 it is not."""
        state = random_state(7, 24, [1e-5, 1e-4, 1e-2, 1e-2, 3.0])
        for factor, within in ((1.0, True), (1.0 + 1e-9, False)):
            got = _SlabRhs(_alone(name, k, factor), 0.1, ends, 24)(
                state.fields(), 0.0)
            assert _within_rounding(got, state, _alone(name, k), 0.1,
                                    ends) is within

    @pytest.mark.parametrize("ends", ENDS)
    @pytest.mark.parametrize("row, name", [
        (0, "h_lin"), (1, "c_wave"), (2, "c_disp"), (1, "kappa"),
        (0, "s_theta"), (1, "h_flux2")],
        ids=["d1", "d2", "d4", "theta_d2", "bracket_d1", "flux_d2"])
    def test_bound_catches_one_perturbed_stencil_weight(self, row, name,
                                                        ends):
        """Each weight of one difference stencil, times 1 + 1e-9, takes
        the right-hand side of a term that difference enters outside the
        bound."""
        n, state = 24, random_state(7, 24, [1e-5, 1e-4, 1e-2, 1e-2, 3.0])
        params = _alone(name, 0)
        rhs = _SlabRhs(params, 0.1, ends, n)
        assert _within_rounding(rhs(state.fields(), 0.0), state, params, 0.1,
                                ends)
        taps = np.flatnonzero(rhs.differences.weights[row])
        assert taps.size in (2, 3, 5)
        for s in taps:
            rhs = _SlabRhs(params, 0.1, ends, n)
            rhs.differences.weights[row, s] *= 1.0 + 1e-9
            assert not _within_rounding(rhs(state.fields(), 0.0), state,
                                        params, 0.1, ends)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(4, 48), ends=st.sampled_from(ENDS),
           dx=st.floats(0.082, 0.5))
    def test_differences_are_the_padded_differences(self, n, ends, dx):
        """The differences of the unit vector e_j are the difference
        stencils applied to e_j padded: d1, d2 and the undivided fourth
        difference with odd ghosts for U and V, even ones for ThetaPrime
        and without odd."""
        assume(n >= (4 if ends == "periodic" else 5))
        differences = _Differences(dx, ends, n)
        for e in np.eye(n):
            got = differences(np.tile(e, (5, 1)))
            for row, odd in ((0, True), (3, True), (4, False)):
                ep = _ref_pad(e, ends, odd)
                np.testing.assert_array_equal(got[row], [
                    _ref_dx1(ep, dx), _ref_dx2(ep, dx), _ref_dx4(ep, 1.0)])
            np.testing.assert_array_equal(
                differences(e[None], odd=False)[0], got[4])

    @pytest.mark.parametrize("ends", ENDS)
    def test_large_grid_stays_linear(self, ends):
        """At 20,001 points every array the right-hand side keeps holds at
        most 5 n values (the five nodes each point reads), and it still
        meets the reference within rounding."""
        n = 20_001
        rhs = _SlabRhs(P, 0.1, ends, n)
        kept = [a for o in (rhs, rhs.differences) for a in vars(o).values()
                if isinstance(a, np.ndarray)]
        assert max(a.size for a in kept) <= 5 * n
        state = random_state(3, n, [1e-5, 1e-4, 1e-2, 1e-2, 3.0])
        assert _within_rounding(rhs(state.fields(), 0.0), state, P, 0.1, ends)

    @pytest.mark.parametrize("ends", ENDS)
    def test_reconstruct_array_y_matches_scalar_y(self, ends):
        ys = np.array([-1.0, -0.7745966692414834, -0.3, 0.0, 0.5,
                       0.7745966692414834, 1.0])
        for seed in range(20):
            state = random_state(seed, 41, [1e-5, 1e-4, 1e-2, 1e-2, 3.0])
            rows = reconstruct_fields(state, P, ys, 0.1, ends)
            for j, y in enumerate(ys):
                single = reconstruct_fields(state, P, float(y), 0.1, ends)
                assert _bits(r[j] for r in rows) == _bits(single)

    @pytest.mark.parametrize("bad", [-300.0, -1e3, np.nan, np.inf])
    @pytest.mark.parametrize("ends", ENDS)
    def test_stage_theta_check(self, ends, bad):
        state = random_state(5, 12, [1e-5, 1e-4, 1e-2, 1e-2, 3.0])
        state.Th[4] = bad
        with pytest.raises(IntegrationError) as err:
            _SlabRhs(P, DX, ends, 12)(state.fields(), 0.125)
        assert err.value.time == 0.125
        assert err.value.reason == "ThetaPrime must stay finite and above -300 K"
        # the public wrapper keeps SlabState.validate's ValueError
        with pytest.raises(ValueError, match="finite and above -300 K"):
            slab_rhs(state, P, DX, ends)

    @pytest.mark.parametrize("field", ["U1", "U2", "V1", "V2"])
    @pytest.mark.parametrize("ends", ENDS)
    def test_non_finite_rhs_aborts(self, ends, field):
        state = random_state(6, 12, [1e-5, 1e-4, 1e-2, 1e-2, 3.0])
        getattr(state, field)[6] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(IntegrationError) as err:
                _SlabRhs(P, DX, ends, 12)(state.fields(), 0.5)
        assert err.value.time == 0.5
        assert err.value.reason == "non-finite right-hand side"

    def test_unknown_ends_rejected(self):
        with pytest.raises(ValueError, match="ends must be one of"):
            slab_rhs(uniform_state(), P, DX, "clamped")
