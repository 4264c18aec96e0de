"""Per-layer timings of smabar's public functions, taken from the benchmark.

Each timing calls one public function of a module (solver1d, constitutive,
slab, cli) in this process on inputs taken from a finished run: its
config_resolved.txt and the last state in its snapshots.csv.  Nothing here
changes smabar; smabar must be importable (run.py puts src/ on sys.path).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import checks
from smabar import cli, constitutive, slab, solver1d


def per_call(fn, seconds: float = 0.3) -> float:
    """Median seconds per call of fn() over batches of at least 5 ms."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= 5e-3:
            break
        n *= 2
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(samples) < 5:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def load_config_ms(paths) -> float:
    """cli.load_config over the given INI files, in ms per pass."""
    return 1e3 * per_call(lambda: [cli.load_config(p) for p in paths])


def _last_state(out_dir: str):
    t, c = checks.snapshots(out_dir)
    return float(t[-1]), {k: v[-1].copy() for k, v in c.items()}


def bar_layers(out_dir: str) -> dict:
    """solver1d and constitutive calls on a finished bar run's grid."""
    setup = cli.load_config(f"{out_dir}/config_resolved.txt").resolve()
    grid, p, bcs, forcing = setup.grid, setup.params, setup.bcs, setup.forcing
    t, c = _last_state(out_dir)
    state = solver1d.FieldState(t, c["u"], c["v"], c["theta"])
    fresh = setup.state0
    eps = np.diff(c["u"]) / grid.dx
    th_m = 0.5 * (c["theta"][1:] + c["theta"][:-1])
    return {
        "solver1d.rhs_us": 1e6 * per_call(
            lambda: solver1d.rhs(state, grid, p, bcs, forcing, t, setup.gamma_sign)),
        "solver1d.step_rk4_us": 1e6 * per_call(
            lambda: solver1d.step(state, setup.dt, grid, p, bcs, forcing, "rk4",
                                  setup.gamma_sign)),
        "solver1d.step_implicit_ms": 1e3 * per_call(
            lambda: solver1d.step(fresh, setup.dt, grid, p, bcs, forcing,
                                  "implicit_euler", setup.gamma_sign)),
        "constitutive.conductivity_us": 1e6 * per_call(
            lambda: constitutive.conductivity(p, c["theta"])),
        "constitutive.equilibrium_stress_us": 1e6 * per_call(
            lambda: constitutive.equilibrium_stress(p, th_m, eps)),
    }


def slab_layers(out_dir: str) -> dict:
    """slab calls on a finished slab run, plus the constitutive calls on
    arrays of its grid size (bar material, theta = theta_ref + ThetaPrime)."""
    config = cli.load_config(f"{out_dir}/config_resolved.txt")
    setup = config.resolve()
    p, dx, ends = setup.params, setup.dx, setup.ends
    t, c = _last_state(out_dir)
    state = slab.SlabState(t, c["U1"], c["U2"], c["V1"], c["V2"], c["ThetaPrime"])
    ys = config.reconstruct_y
    theta = p.theta_ref + c["ThetaPrime"]
    th_m = 0.5 * (theta[1:] + theta[:-1])
    eps = np.diff(c["U1"]) / dx
    bar = constitutive.cu_based()
    return {
        "slab.slab_rhs_us": 1e6 * per_call(lambda: slab.slab_rhs(state, p, dx, ends)),
        "slab.reconstruct_fields_us": 1e6 / len(ys) * per_call(
            lambda: [slab.reconstruct_fields(state, p, y, dx, ends) for y in ys]),
        "constitutive.conductivity_us": 1e6 * per_call(
            lambda: constitutive.conductivity(bar, theta)),
        "constitutive.equilibrium_stress_us": 1e6 * per_call(
            lambda: constitutive.equilibrium_stress(bar, th_m, eps)),
    }
