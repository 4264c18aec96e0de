"""Cubic strain invariants: dual-transcription oracle and group symmetry.

The oracle re-expresses every invariant through the deviatoric diagonal
parts d_i = eps_ii - tr/3 (a genuinely different algebraic arrangement,
e.g. the sixth-order anisotropy invariant collapses to (d1 d2 d3)^2 / 4),
so agreement is a two-sided transcription check.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smabar.invariants3d import (
    FalkKonopkaCoeffs,
    Strain3,
    cu_based_3d,
    cubic_group_elements,
    free_energy_3d,
    invariants,
)


def oracle_invariants(e):
    """Independent transcription via deviatoric components."""
    a, b, c = e[0, 0], e[1, 1], e[2, 2]
    s23, s13, s12 = e[1, 2], e[0, 2], e[0, 1]
    m = (a + b + c) / 3.0
    d1, d2, d3 = a - m, b - m, c - m
    dev2 = d1 * d1 + d2 * d2 + d3 * d3
    i2_2 = dev2 / 2.0
    i2_3 = s23 ** 2 + s13 ** 2 + s12 ** 2
    return np.array([
        m * m * 9.0 / 9.0,
        i2_2,
        i2_3,
        i2_2 ** 2,
        s23 ** 4 + s13 ** 4 + s12 ** 4,
        i2_3 ** 2,
        i2_2 * i2_3,
        s23 ** 2 * d1 ** 2 + s13 ** 2 * d2 ** 2 + s12 ** 2 * d3 ** 2,
        i2_2 ** 3,
        (d1 * d2 * d3) ** 2 / 4.0,
    ])


def random_strain(rng, scale=0.1):
    e = rng.uniform(-scale, scale, (3, 3))
    return 0.5 * (e + e.T)


class TestStrain3:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            Strain3(np.array([[0.0, 1.0, 0.0],
                              [0.0, 0.0, 0.0],
                              [0.0, 0.0, 0.0]]))

    def test_from_components(self):
        s = Strain3.from_components(e11=0.1, e23=0.05)
        assert s.eps[0, 0] == 0.1
        assert s.eps[1, 2] == s.eps[2, 1] == 0.05

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            Strain3(np.zeros((2, 2)))


class TestInvariantValues:
    def test_hydrostatic(self):
        inv = invariants(Strain3(0.01 * np.eye(3)))
        assert inv.i2_1 == pytest.approx(1e-4, rel=1e-14)
        for name, val in inv._asdict().items():
            if name != "i2_1":
                assert val == 0.0

    def test_pure_shear(self):
        a = 0.02
        inv = invariants(Strain3.from_components(e12=a))
        assert inv.i2_3 == pytest.approx(a * a, rel=1e-14)
        assert inv.i4_2 == pytest.approx(a ** 4, rel=1e-14)
        assert inv.i4_3 == pytest.approx(a ** 4, rel=1e-14)
        for name in ("i2_1", "i2_2", "i4_1", "i4_4", "i4_5", "i6_1", "i6_2"):
            assert getattr(inv, name) == 0.0

    def test_against_dual_transcription(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            e = random_strain(rng)
            got = np.array(invariants(e))
            want = oracle_invariants(e)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-22)

    def test_nonnegative_members(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            inv = invariants(random_strain(rng))
            for name in ("i2_1", "i2_2", "i2_3", "i4_1", "i4_2", "i4_3",
                         "i4_5", "i6_1"):
                assert getattr(inv, name) >= 0.0

    def test_scaling_orders(self):
        rng = np.random.default_rng(13)
        orders = np.array([2, 2, 2, 4, 4, 4, 4, 4, 6, 6])
        e = random_strain(rng)
        base = np.array(invariants(e))
        for lam in (0.5, 2.0):
            scaled = np.array(invariants(lam * e))
            np.testing.assert_allclose(scaled, base * lam ** orders,
                                       rtol=1e-12)

    def test_batched_evaluation(self):
        rng = np.random.default_rng(14)
        batch = np.stack([random_strain(rng) for _ in range(5)])
        inv = invariants(batch)
        assert inv.i2_2.shape == (5,)
        single = invariants(batch[2])
        assert inv.i2_2[2] == single.i2_2


class TestCubicGroup:
    def test_counts_and_orthogonality(self):
        g = cubic_group_elements()
        assert g.shape == (48, 3, 3)
        eye = np.eye(3)
        for q in g:
            assert np.array_equal(q.T @ q, eye)
        dets = np.round(np.linalg.det(g)).astype(int)
        assert sorted(set(dets)) == [-1, 1]
        assert (dets == 1).sum() == 24
        # all distinct, identity included
        flat = {tuple(q.ravel()) for q in g}
        assert len(flat) == 48
        assert tuple(eye.ravel()) in flat

    def test_invariance_under_conjugation(self):
        g = cubic_group_elements()
        rng = np.random.default_rng(15)
        for _ in range(30):
            e = random_strain(rng)
            base = np.array(invariants(e))
            for q in g:
                conj = np.array(invariants(q @ e @ q.T))
                rel = np.abs(conj - base) / np.maximum(np.abs(base), 1e-30)
                assert rel.max() < 1e-12


# polynomial order of each of the ten invariants, in StrainInvariants order
ORDERS = np.array([2, 2, 2, 4, 4, 4, 4, 4, 6, 6])


@st.composite
def symmetric_strains(draw):
    """A symmetric strain of any magnitude up to 0.2, components drawn
    independently."""
    parts = draw(st.lists(st.floats(-0.2, 0.2, allow_subnormal=False),
                          min_size=6, max_size=6))
    e = np.diag(parts[:3])
    e[1, 2] = e[2, 1] = parts[3]
    e[0, 2] = e[2, 0] = parts[4]
    e[0, 1] = e[1, 0] = parts[5]
    return e


class TestCubicGroupProperty:
    """All 48 conjugations q e q^T leave the invariants and the free energy
    unchanged.  Entries of q e q^T are entries of e up to sign, so only the
    order of the arithmetic differs: the tolerance is round-off relative to
    the size |e|^order each invariant's terms have."""

    @settings(max_examples=300, deadline=None)
    @given(symmetric_strains())
    def test_invariants(self, e):
        g = cubic_group_elements()
        conj = np.einsum("qij,jk,qlk->qil", g, e, g)
        base = np.array(invariants(e))
        vals = np.stack(invariants(conj), axis=-1)
        size = np.abs(e).max() ** ORDERS
        assert (np.abs(vals - base) <= 1e-12 * np.maximum(np.abs(base), size)
                + 1e-300).all()

    @settings(max_examples=300, deadline=None)
    @given(symmetric_strains(), st.floats(300.5, 700.0),
           st.booleans())
    def test_free_energy(self, e, theta, thermal):
        c = cu_based_3d()
        g = cubic_group_elements()
        conj = np.einsum("qij,jk,qlk->qil", g, e, g)
        base = free_energy_3d(c, e, theta, include_thermal=thermal)
        vals = free_energy_3d(c, conj, theta, include_thermal=thermal)
        coeffs = np.abs(np.concatenate([c.psi2_at(theta), c.psi4_at(theta),
                                        c.psi6_at(theta)]))
        size = (coeffs * np.maximum(np.abs(np.array(invariants(e))),
                                    np.abs(e).max() ** ORDERS)).sum()
        if thermal:
            size += abs(c.psi0_at(theta))
        assert (np.abs(vals - base) <= 1e-12 * size + 1e-300).all()


class TestCoefficients:
    def test_table_bases_at_pivot(self):
        c = cu_based_3d()
        assert c.psi2_at(300.0) == [5.92e6, 1.41e5, 1.48e6]
        assert c.psi4_at(300.0) == [-1.182e8, 3.13e9, 1.64e9, -5.53e8,
                                    -4.27e8]
        assert c.psi6_at(300.0) == [3.35e10, 3.71e11]

    def test_affine_slopes(self):
        c = cu_based_3d()
        assert c.psi2_at(310.0)[1] == 1.41e5 + 46.0 * 10.0
        assert c.psi2_at(310.0)[2] == 1.48e6 - 940.0 * 10.0
        assert c.psi4_at(310.0)[0] == -1.182e8 + 3.55e5 * 10.0
        # sixth-order constants carry no slope
        assert c.psi6_at(250.0) == [3.35e10, 3.71e11]

    def test_table_shape_enforced(self):
        with pytest.raises(ValueError):
            FalkKonopkaCoeffs(psi2=((1.0, 0.0),))

    def test_psi0_domain(self):
        c = cu_based_3d()
        with pytest.raises(ValueError):
            c.psi0_at(300.0)
        with pytest.raises(ValueError):
            c.psi0_at(250.0)
        assert c.psi0_at(600.0) == pytest.approx(0.0, abs=1e-12)


class TestFreeEnergy3D:
    def test_zero_strain_without_thermal_part(self):
        c = cu_based_3d()
        val = free_energy_3d(c, Strain3(np.zeros((3, 3))), 320.0,
                             include_thermal=False)
        assert val == 0.0

    def test_hydrostatic_picks_out_first_constant(self):
        c = cu_based_3d()
        delta = 1e-3
        val = free_energy_3d(c, Strain3(delta * np.eye(3)), 300.0,
                             include_thermal=False)
        assert val == pytest.approx(5.92e6 * delta ** 2, rel=1e-12)

    def test_thermal_part_domain_error(self):
        c = cu_based_3d()
        with pytest.raises(ValueError):
            free_energy_3d(c, Strain3(np.zeros((3, 3))), 300.0)

    def test_group_invariance(self):
        c = cu_based_3d()
        g = cubic_group_elements()
        rng = np.random.default_rng(16)
        for _ in range(10):
            e = random_strain(rng)
            base = free_energy_3d(c, e, 325.0)
            for q in g[::5]:
                val = free_energy_3d(c, q @ e @ q.T, 325.0)
                assert val == pytest.approx(base, rel=1e-12)
