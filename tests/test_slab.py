"""Reduced slab model: fixed points, dispersion, decoupling and the
cross-slab reconstruction identities."""

import numpy as np
import pytest

from smabar.slab import (
    SlabParams,
    SlabRunSetup,
    SlabState,
    cu_based_slab,
    reconstruct_fields,
    slab_rhs,
    slab_simulate,
)

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
    x = np.arange(getattr(traj.snapshots[0], field).size) * traj.dx
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
        setup = SlabRunSetup(P, L, NX, st, 5e-5, 5e-4, 5e-4)
        traj = slab_simulate(setup)
        end = traj.snapshots[-1]
        for name in ("U1", "U2", "V1", "V2", "Th"):
            delta = np.abs(getattr(end, name) - getattr(st, name)).max()
            assert delta < 1e-12


class TestDispersion:
    def test_longitudinal_phase_speed(self):
        st = standing_wave("U1", 1e-6)
        setup = SlabRunSetup(P, L, NX, st, 5e-5, 0.02, 0.02 / 400)
        omega = measured_frequency(slab_simulate(setup), "U1")
        target = np.sqrt((P.c_wave - P.c_disp * P.b ** 2) / P.rho)
        assert omega / 1.0 == pytest.approx(target, rel=5e-3)
        # and against the long-wave speed itself (kb = 0.05 correction tiny)
        assert omega == pytest.approx(P.wave_speed, rel=1e-2)

    def test_bending_frequency(self):
        st = standing_wave("U2", 1e-6)
        om_ref = np.sqrt(P.c_bend * P.b ** 2 / P.rho)
        T = 2 * np.pi / om_ref
        setup = SlabRunSetup(P, L, NX, st, 2e-4, T, T / 400)
        omega = measured_frequency(slab_simulate(setup), "U2")
        assert omega == pytest.approx(om_ref, rel=1e-2)


class TestDecoupling:
    def test_bending_stays_zero_under_longitudinal_motion(self):
        st = standing_wave("U1", 1e-4)
        setup = SlabRunSetup(P, L, NX, st, 5e-5, 0.01, 0.002)
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


class TestValidation:
    def test_param_checks(self):
        with pytest.raises(ValueError):
            SlabParams(b=-0.1)
        with pytest.raises(ValueError):
            SlabParams(rho=0.0)

    def test_state_length_check(self):
        st = uniform_state()
        st.U2 = st.U2[:-1]
        with pytest.raises(ValueError):
            st.validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -300.0])
    def test_state_theta_must_be_finite_and_above_floor(self, bad):
        st = uniform_state()
        assert st.validate() is st
        st.Th[5] = bad
        with pytest.raises(ValueError, match="finite and above -300 K"):
            st.validate()

    def test_setup_array_length_matches_ends(self):
        with pytest.raises(ValueError):
            SlabRunSetup(P, L, NX, uniform_state(n=NX), 1e-4, 1e-3, 1e-3,
                         "pinned_insulated")

    def test_snapshot_cadence(self):
        st = uniform_state()
        setup = SlabRunSetup(P, L, NX, st, 1e-4, 0.0103, 0.002)
        traj = slab_simulate(setup)
        assert len(traj.snapshots) == int(np.floor(0.0103 / 0.002)) + 1
