"""Thermodynamic consistency of the 1D Landau constitutive functions.

Oracles: hand/arbitrary-precision polynomial evaluations (frozen), central
finite differences of the free energy, and the closed-form Legendre
identity e = Psi + theta * eta.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smabar.constitutive import (
    MaterialParams1D,
    _equilibrium_stress,
    conductivity,
    cu_based,
    entropy,
    equilibrium_stress,
    free_energy,
    internal_energy,
    strain_energy,
)

P = cu_based()


class TestFreeEnergy:
    def test_zero_strain_at_transition(self):
        # all strain terms vanish; psi0 = a0 - a1 theta ln theta remains
        expected = -P.alpha1 * 208.0 * math.log(208.0)
        assert free_energy(P, 208.0, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_frozen_polynomial_value(self):
        # arbitrary-precision evaluation of the full polynomial (mpmath)
        assert free_energy(P, 300.0, 0.1) == pytest.approx(
            -4457.397074730536, rel=1e-13)

    def test_even_in_strain(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            th = rng.uniform(150.0, 400.0)
            ep = rng.uniform(-0.15, 0.15)
            assert free_energy(P, th, ep) == free_energy(P, th, -ep)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            free_energy(P, 0.0, 0.0)
        with pytest.raises(ValueError):
            free_energy(P, -3.0, 0.05)


class TestEquilibriumStress:
    def test_zero_at_zero_strain(self):
        for th in (150.0, 208.0, 300.0, 400.0):
            assert equilibrium_stress(P, th, 0.0) == 0.0

    def test_transition_temperature_kills_linear_term(self):
        # -k2 eps^3 + k3 eps^5 at eps = 0.1
        assert equilibrium_stress(P, 208.0, 0.1) == pytest.approx(-1500.0,
                                                                  rel=1e-12)

    def test_frozen_value(self):
        # 480*92*0.08 - 6e6*0.08^3 + 4.5e8*0.08^5
        assert equilibrium_stress(P, 300.0, 0.08) == pytest.approx(1935.36,
                                                                   rel=1e-12)

    def test_odd_in_strain(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            th = rng.uniform(150.0, 400.0)
            ep = rng.uniform(-0.15, 0.15)
            assert equilibrium_stress(P, th, ep) == pytest.approx(
                -equilibrium_stress(P, th, -ep), rel=1e-12, abs=1e-12)

    def test_matches_free_energy_derivative(self):
        # s / rho = dPsi/deps by central difference, spec-level tolerance
        theta = np.linspace(150.0, 400.0, 50)[:, None]
        eps = np.linspace(-0.15, 0.15, 50)[None, :]
        h = 1e-6
        fd = (free_energy(P, theta, eps + h)
              - free_energy(P, theta, eps - h)) / (2 * h)
        s_rho = equilibrium_stress(P, theta, eps) / P.rho
        err = np.abs(s_rho - fd)
        assert np.all(err <= 1e-6 * np.maximum(1.0, np.abs(s_rho)))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 9),
           m=st.integers(1, 4),
           shape=st.sampled_from(["same", "column", "scalar"]),
           k2=st.sampled_from([0.0, 6.0e6, 3.3e7]),
           k3=st.sampled_from([0.0, 4.5e8, 1.2e9]))
    def test_in_place_form_is_bitwise_the_expression(self, seed, k, m,
                                                     shape, k2, k3):
        """_equilibrium_stress, written on in-place temporaries, gives the
        bits of eps (k1 (theta - theta1) + e2 (-k2 + e2 k3)) and its
        broadcast shape: theta and eps of one shape, theta of shape (m, 1)
        against eps of shape (k,), and a scalar theta."""
        rng = np.random.default_rng(seed)
        p = P.with_(k2=k2, k3=k3)
        eps = rng.uniform(-0.2, 0.2, k)
        theta = {"same": rng.uniform(150.0, 400.0, k),
                 "column": rng.uniform(150.0, 400.0, (m, 1)),
                 "scalar": np.float64(rng.uniform(150.0, 400.0))}[shape]
        e2 = eps * eps
        want = eps * (p.k1 * (theta - p.theta1) + e2 * (-p.k2 + e2 * p.k3))
        got = _equilibrium_stress(p, theta, eps)
        assert got.shape == np.broadcast_shapes(np.shape(theta), eps.shape)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(equilibrium_stress(p, theta, eps), want)


class TestEntropy:
    def test_alpha1_at_unit_temperature(self):
        assert entropy(P, 1.0, 0.0) == pytest.approx(29.0 / 11.1, rel=1e-14)

    def test_strain_correction(self):
        e0 = 0.07
        expected = P.alpha1 - 0.5 * P.alpha2 * e0 ** 2
        assert entropy(P, 1.0, e0) == pytest.approx(expected, rel=1e-14)

    def test_matches_minus_dpsi_dtheta(self):
        theta = np.linspace(150.0, 400.0, 50)[:, None]
        eps = np.linspace(-0.15, 0.15, 50)[None, :]
        h = 1e-6 * theta
        fd = -(free_energy(P, theta + h, eps)
               - free_energy(P, theta - h, eps)) / (2 * h)
        eta = entropy(P, theta, eps)
        err = np.abs(eta - fd)
        assert np.all(err <= 1e-6 * np.maximum(1.0, np.abs(eta)))


class TestInternalEnergy:
    def test_zero_strain_form(self):
        for th in (200.0, 250.0, 333.0):
            assert internal_energy(P, th, 0.0) == pytest.approx(
                P.alpha0 + P.alpha1 * th, rel=1e-14)

    def test_frozen_value(self):
        assert internal_energy(P, 250.0, 0.11809) == pytest.approx(
            582.4813666549001, rel=1e-13)

    def test_legendre_identity(self):
        rng = np.random.default_rng(9)
        th = rng.uniform(150.0, 400.0, 200)
        ep = rng.uniform(-0.15, 0.15, 200)
        e = internal_energy(P, th, ep)
        psi_plus = free_energy(P, th, ep) + th * entropy(P, th, ep)
        assert np.all(np.abs(e - psi_plus) <= 1e-12 * np.abs(e))


class TestConductivity:
    def test_constant_when_slope_zero(self):
        assert float(conductivity(P, 123.0)) == P.k0
        assert float(conductivity(P, 399.0)) == P.k0

    def test_linear_law(self):
        p = MaterialParams1D(k0=1.0, beta_tilde=0.01)
        assert float(conductivity(p, 100.0)) == pytest.approx(2.0)

    def test_cu_default_value(self):
        assert float(conductivity(cu_based(), 250.0)) == 1.9e-2


class TestWellStructure:
    def test_three_minima_at_230K(self):
        """Dense-scan oracle: austenite well plus two martensite wells."""
        eps = np.linspace(-0.15, 0.15, 30001)
        psi = free_energy(P, 230.0, eps)
        interior = (psi[1:-1] < psi[:-2]) & (psi[1:-1] < psi[2:])
        locs = eps[1:-1][interior]
        assert interior.sum() == 3
        assert locs[1] == pytest.approx(0.0, abs=1e-4)
        # well positions from the stress-root closed form
        assert locs[2] == pytest.approx(0.10605101167182727, abs=1e-4)
        assert locs[0] == pytest.approx(-0.10605101167182727, abs=1e-4)


class TestParamValidation:
    def test_derived_alpha_accessors(self):
        assert P.alpha1 == 29.0 / 11.1
        assert P.alpha2 == 480.0 / 11.1
        assert P.alpha4 == 6.0e6 / 11.1
        assert P.alpha6 == 4.5e8 / 11.1

    @pytest.mark.parametrize("bad", [
        dict(rho=-1.0), dict(cv=0.0), dict(k0=0.0), dict(theta1=-208.0),
        dict(k2=-1.0), dict(k3=-1.0), dict(tau0=-1e-6), dict(mu=-0.5),
    ])
    def test_rejects_bad_params(self, bad):
        with pytest.raises(ValueError):
            MaterialParams1D(**bad)

    def test_positive_tau0_below_the_floor_rejected(self):
        """The theta_dot equation divides by tau0, so a positive tau0 below
        1e-100 ms is refused wherever the parameters are built; 0 and the
        floor itself are accepted."""
        with pytest.raises(ValueError, match=r"^tau0 = 1e-101: a positive "
                           r"tau0 must be at least 1e-100 ms \(0 gives "
                           r"Fourier conduction\)$"):
            MaterialParams1D(tau0=1e-101)
        assert MaterialParams1D(tau0=1e-100).tau0 == 1e-100
        assert MaterialParams1D(tau0=0.0).tau0 == 0.0

    def test_strain_energy_is_psi3(self):
        e = 0.11809
        expected = (-0.5 * P.alpha2 * P.theta1 * e ** 2
                    - 0.25 * P.alpha4 * e ** 4 + P.alpha6 * e ** 6 / 6.0)
        assert strain_energy(P, e) == pytest.approx(expected, rel=1e-14)
