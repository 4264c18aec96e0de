"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Shared heavyweight runs (the thermal-cycling experiment) are module-scoped
fixtures so the suite stays within its runtime budgets.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from smabar.cli import InitialSpec, SimConfig, ForcingSpec, preset
from smabar.constitutive import (cu_based, entropy, equilibrium_stress,
                                 free_energy, internal_energy)
from smabar.invariants3d import (cu_based_3d, cubic_group_elements,
                                 free_energy_3d, invariants)
from smabar.manufactured import build_mms_case
from smabar.slab import SlabRunSetup, SlabState, cu_based_slab, slab_simulate
from smabar.solver1d import BoundarySpec, Grid1D, simulate


def _report(num, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def experiment1_run():
    cfg = preset("experiment1")
    t0 = time.monotonic()
    traj = simulate(cfg.resolve())
    return cfg, traj, time.monotonic() - t0


def test_c01_thermodynamic_consistency():
    t0 = time.monotonic()
    p = cu_based()
    theta = np.linspace(150.0, 400.0, 50)[:, None]
    eps = np.linspace(-0.15, 0.15, 50)[None, :]

    h = 1e-6
    dpsi_deps = (free_energy(p, theta, eps + h)
                 - free_energy(p, theta, eps - h)) / (2 * h)
    s_rho = equilibrium_stress(p, theta, eps) / p.rho
    stress_err = np.max(np.abs(s_rho - dpsi_deps)
                        / np.maximum(1.0, np.abs(s_rho)))

    ht = 1e-6 * theta
    dpsi_dth = (free_energy(p, theta + ht, eps)
                - free_energy(p, theta - ht, eps)) / (2 * ht)
    eta = entropy(p, theta, eps)
    entropy_err = np.max(np.abs(eta + dpsi_dth)
                         / np.maximum(1.0, np.abs(eta)))

    e = internal_energy(p, theta, eps)
    legendre_err = np.max(np.abs(e - (free_energy(p, theta, eps)
                                      + theta * eta)) / np.abs(e))
    elapsed = time.monotonic() - t0
    ok = stress_err <= 1e-6 and entropy_err <= 1e-6 \
        and legendre_err <= 1e-12 and elapsed < 1.0
    _report(1, "thermodynamic consistency", ok,
            f"stress FD {stress_err:.2e} entropy FD {entropy_err:.2e} "
            f"legendre {legendre_err:.2e} in {elapsed:.2f}s")


def test_c02_cubic_group_invariance():
    t0 = time.monotonic()
    group = cubic_group_elements()
    n_orth = sum(np.array_equal(q.T @ q, np.eye(3)) for q in group)
    coeffs = cu_based_3d()
    rng = np.random.default_rng(2024)
    worst_inv = 0.0
    worst_psi = 0.0
    for _ in range(100):
        e = rng.uniform(-0.1, 0.1, (3, 3))
        e = 0.5 * (e + e.T)
        base = np.array(invariants(e))
        psi0 = free_energy_3d(coeffs, e, 325.0)
        conj = np.einsum("qij,jk,qlk->qil", group, e, group)
        vals = np.stack(invariants(conj), axis=-1)
        rel = np.abs(vals - base) / np.maximum(np.abs(base), 1e-30)
        worst_inv = max(worst_inv, rel.max())
        psi = free_energy_3d(coeffs, conj, 325.0)
        worst_psi = max(worst_psi, np.abs(psi - psi0).max() / abs(psi0))
    elapsed = time.monotonic() - t0
    ok = (len(group) == 48 and n_orth == 48 and worst_inv < 1e-12
          and worst_psi < 1e-12 and elapsed < 1.0)
    _report(2, "cubic-group invariance", ok,
            f"48 elements ({n_orth} orthogonal), worst invariant "
            f"{worst_inv:.2e}, worst energy {worst_psi:.2e} in {elapsed:.2f}s")


def test_c03_coefficient_transcription():
    c = cu_based_3d()
    checks = [
        (c.psi2_at(300.0)[0], 5.92e6),
        (c.psi2_at(300.0)[1], 1.41e5),
        (c.psi2_at(300.0)[2], 1.48e6),
        (c.psi4_at(300.0)[0], -1.182e8),
        (c.psi4_at(300.0)[1], 3.13e9),
        (c.psi4_at(300.0)[2], 1.64e9),
        (c.psi4_at(300.0)[3], -5.53e8),
        (c.psi4_at(300.0)[4], -4.27e8),
        (c.psi6_at(300.0)[0], 3.35e10),
        (c.psi6_at(300.0)[1], 3.71e11),
        (c.psi2_at(310.0)[1], 1.41e5 + 46.0 * 10.0),
    ]
    exact = all(got == want for got, want in checks)
    _report(3, "coefficient transcription", exact,
            f"{len(checks)} table entries reproduced exactly")


def test_c04_mms_spatial_convergence():
    t0 = time.monotonic()
    errors = {}
    for nx in (32, 64, 128):
        cfg = replace(preset("mms"), nx=nx, dt=2.5e-4 * 32 / nx)
        setup = cfg.resolve()
        traj = simulate(setup)
        case = build_mms_case(cfg.material, cfg.length, cfg.mms.u_amplitude,
                              cfg.mms.omega_u, cfg.mms.theta_bar,
                              cfg.mms.theta_amplitude, cfg.mms.omega_t)
        st = traj.snapshots[-1]
        x = setup.grid.nodes()
        errors[nx] = max(
            np.abs(st.u - case.u(x, st.t)).max() / cfg.mms.u_amplitude,
            np.abs(st.v - case.v(x, st.t)).max()
            / (cfg.mms.u_amplitude * cfg.mms.omega_u),
            np.abs(st.theta - case.theta(x, st.t)).max()
            / cfg.mms.theta_amplitude)
    o1 = np.log2(errors[32] / errors[64])
    o2 = np.log2(errors[64] / errors[128])
    elapsed = time.monotonic() - t0
    ok = 1.8 <= o1 <= 2.2 and 1.8 <= o2 <= 2.2 and elapsed < 30.0
    _report(4, "MMS spatial order", ok,
            f"observed orders {o1:.2f}, {o2:.2f} in {elapsed:.1f}s")


def test_c05_energy_conservation():
    t0 = time.monotonic()
    cfg = preset("conservation")
    assert int(round(cfg.t_end / cfg.dt)) == 10_000
    traj = simulate(cfg.resolve())
    E = np.array([d[1] for d in traj.diagnostics])
    drift = np.abs(E - E[0]).max() / abs(E[0])
    elapsed = time.monotonic() - t0
    ok = drift <= 1e-4 and elapsed < 10.0
    _report(5, "energy conservation", ok,
            f"relative drift {drift:.2e} over 10^4 RK4 steps in {elapsed:.1f}s")


def test_c06_fourier_limit():
    t0 = time.monotonic()

    def cfg(tau0):
        return SimConfig(
            model="full_1d", material=cu_based().with_(tau0=tau0),
            length=1.0, nx=24, dt=1e-3, t_end=1.0, output_interval=0.5,
            integrator="implicit_euler",
            bcs=BoundarySpec("pinned", "insulated"), forcing=ForcingSpec(),
            initial=InitialSpec(theta_kind="cosine", theta_value=250.0,
                                theta_amplitude=20.0, theta_mode=1))

    theta = {}
    for tau0 in (0.0, 1e-6):
        theta[tau0] = simulate(cfg(tau0).resolve()).snapshots[-1].theta
    diff = np.abs(theta[0.0] - theta[1e-6]).max() / np.abs(theta[0.0]).max()
    elapsed = time.monotonic() - t0
    ok = diff <= 1e-3 and elapsed < 10.0
    _report(6, "Fourier limit", ok,
            f"theta relative difference {diff:.2e} at T=1 ms in {elapsed:.1f}s")


def test_c07_experiment1_phase_story(experiment1_run):
    cfg, traj, elapsed = experiment1_run
    grid = traj.setup.grid
    eps = np.array([s.strain(grid) for s in traj.snapshots])
    t = traj.times()
    max_abs = np.abs(eps).max(axis=1)

    heated = (t > 1.0) & (t < 9.0)
    austenite_window = max_abs[heated].min()
    final = eps[-1]
    ok = (austenite_window < 0.02
          and final.max() > 0.08 and final.min() < -0.08
          and elapsed < 60.0)
    _report(7, "experiment 1 (thermal cycling)", ok,
            f"austenite max|eps| {austenite_window:.4f}, final strain "
            f"[{final.min():.3f}, {final.max():.3f}] in {elapsed:.1f}s")


def test_c08_experiment2_loading_cycles():
    t0 = time.monotonic()
    cfg = preset("experiment2")
    traj = simulate(cfg.resolve())
    elapsed = time.monotonic() - t0
    grid = traj.setup.grid
    t = traj.times()
    eps = np.array([s.strain(grid) for s in traj.snapshots])
    max_abs = np.abs(eps).max(axis=1)
    theta_dev = np.array([np.abs(s.theta - 255.0).max()
                          for s in traj.snapshots])

    # martensite episodes: contiguous intervals with max|eps| > 0.08
    above = max_abs > 0.08
    episodes = int(np.sum(above[1:] & ~above[:-1]) + above[0])
    # strain returns below the austenite band whenever the load crosses zero
    zero_load = [np.argmin(np.abs(t - tz)) for tz in (2.0, 4.0, 6.0, 8.0)]
    back_to_a = max(max_abs[i] for i in zero_load)
    # largest heating/cooling coincides with martensite formation
    hot = int(np.argmax(theta_dev))
    ok = (episodes == 4 and back_to_a < 0.02 and max_abs[hot] > 0.05
          and elapsed < 60.0)
    _report(8, "experiment 2 (mechanical cycling)", ok,
            f"{episodes} martensite episodes, |eps| at zero load "
            f"{back_to_a:.4f}, max theta deviation {theta_dev[hot]:.1f} K "
            f"while |eps|={max_abs[hot]:.3f}, in {elapsed:.1f}s")


def test_c09_slab_dispersion():
    t0 = time.monotonic()
    p = cu_based_slab()
    L = 2 * np.pi
    nx = 64
    x = np.arange(nx) * (L / nx)

    def freq(field, amplitude, dt, t_end):
        arrays = {n: np.zeros(nx) for n in ("U1", "U2", "V1", "V2", "Th")}
        arrays[field] = amplitude * np.sin(x)
        st = SlabState(0.0, arrays["U1"], arrays["U2"], arrays["V1"],
                       arrays["V2"], arrays["Th"])
        traj = slab_simulate(SlabRunSetup(p, Grid1D(L, nx), st, dt, t_end,
                                          t_end / 400))
        proj = np.array([2.0 / nx * np.sum(getattr(s, field) * np.sin(x))
                         for s in traj.snapshots])
        tt = traj.times()
        sign = proj[1:] * proj[:-1]
        i = int(np.argmax(sign < 0))
        tz = tt[i] + (tt[i + 1] - tt[i]) * proj[i] / (proj[i] - proj[i + 1])
        return np.pi / (2.0 * tz)

    c_meas = freq("U1", 1e-6, 5e-5, 0.02)           # k = 1, so omega = c
    c_target = p.wave_speed
    om_bend = freq("U2", 1e-6, 2e-4, 0.45)
    om_target = np.sqrt(p.c_bend * p.b ** 2 / p.rho)

    st = SlabState(0.0, np.full(nx, 0.3), np.full(nx, -0.2), np.zeros(nx),
                   np.zeros(nx), np.full(nx, 5.0))
    traj = slab_simulate(SlabRunSetup(p, Grid1D(L, nx), st, 1e-4, 1e-4, 1e-4))
    end = traj.snapshots[-1]
    still = max(np.abs(getattr(end, f) - getattr(st, f)).max()
                for f in ("U1", "U2", "V1", "V2", "Th"))

    elapsed = time.monotonic() - t0
    err_c = abs(c_meas - c_target) / c_target
    err_b = abs(om_bend - om_target) / om_target
    ok = err_c < 0.01 and err_b < 0.01 and still < 1e-12 and elapsed < 10.0
    _report(9, "slab dispersion", ok,
            f"phase speed err {err_c:.2%}, bending err {err_b:.2%}, "
            f"uniform drift/step {still:.1e} in {elapsed:.1f}s")


def test_c10_ginsburg_insensitivity(experiment1_run):
    cfg0, traj0, base_elapsed = experiment1_run
    t0 = time.monotonic()
    cfg = preset("experiment1")
    cfg = replace(cfg, material=cfg.material.with_(gamma=1e-10))
    traj1 = simulate(cfg.resolve())
    elapsed = time.monotonic() - t0 + base_elapsed
    eps0 = traj0.snapshots[-1].strain(traj0.setup.grid)
    eps1 = traj1.snapshots[-1].strain(traj1.setup.grid)
    diff = np.abs(eps0 - eps1).max()
    ok = diff < 1e-3 and elapsed < 120.0
    _report(10, "Ginsburg insensitivity", ok,
            f"final strain max-norm change {diff:.2e} in {elapsed:.1f}s total")
