"""Checks on the artifacts of one `sma run`, computed independently of smabar.

Every check reads an output directory (`snapshots.csv`, `diagnostics.csv`,
`reconstruction.csv`, `config_resolved.txt`), recomputes the quantity it is
about with numpy from the documented model, and returns a list of error
strings; an empty list means the artifact passed.  Nothing here imports
smabar or compares against a stored copy of earlier output.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os

import numpy as np

CSV_NAMES = ("snapshots.csv", "diagnostics.csv", "reconstruction.csv")

# 3-point Gauss-Legendre rule on [-1, 1]
GL_NODES = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
GL_WEIGHTS = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)


# ---------------------------------------------------------------------------
# artifact readers


def read_config(out_dir: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    with open(os.path.join(out_dir, "config_resolved.txt"), encoding="utf-8") as fh:
        cp.read_string(fh.read())
    return cp


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def n_nodes(cp) -> int:
    nx = cp.getint("grid", "nx")
    if cp.get("model", "kind") == "slab" and cp.get("bcs", "ends") == "periodic":
        return nx
    return nx + 1


def n_steps(cp) -> int:
    dt, t_end = cp.getfloat("time", "dt"), cp.getfloat("time", "t_end")
    return int(math.ceil(t_end / dt - 1e-9))


def snapshots(out_dir: str) -> tuple[np.ndarray, dict]:
    """Snapshot times and every column as a (snapshot, node) array."""
    cp = read_config(out_dir)
    header, data = read_csv(os.path.join(out_dir, "snapshots.csv"))
    n = n_nodes(cp)
    if data.shape[0] % n:
        raise ValueError(f"snapshots.csv has {data.shape[0]} rows, "
                         f"not a multiple of {n} nodes")
    cols = {name: data[:, j].reshape(-1, n) for j, name in enumerate(header)}
    return cols["t"][:, 0], cols


def digest(out_dir: str) -> str:
    """SHA-256 over the CSV artifacts present in out_dir."""
    h = hashlib.sha256()
    for name in CSV_NAMES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _node_average(mid: np.ndarray) -> np.ndarray:
    """Midpoint values -> nodes along the last axis: interior mean, ends copied."""
    out = np.empty(mid.shape[:-1] + (mid.shape[-1] + 1,))
    out[..., 1:-1] = 0.5 * (mid[..., 1:] + mid[..., :-1])
    out[..., 0] = mid[..., 0]
    out[..., -1] = mid[..., -1]
    return out


def _material(cp) -> dict:
    return {k: cp.getfloat("material", k) for k in
            ("rho", "cv", "theta1", "k1", "k2", "k3", "mu", "nu", "alpha0")}


# ---------------------------------------------------------------------------
# checks shared by both models


def check_cadence(out_dir: str) -> list[str]:
    """Snapshots sit at the first step time reaching each multiple of
    output_interval, floor(t_end/output_interval)+1 of them including t=0,
    each with the full node set in order."""
    cp = read_config(out_dir)
    dt = cp.getfloat("time", "dt")
    t_end = cp.getfloat("time", "t_end")
    interval = cp.getfloat("time", "output_interval")
    steps = n_steps(cp)
    step_t = np.arange(1, steps + 1) * dt
    if t_end - (steps - 1) * dt < dt:
        step_t[-1] = t_end                      # shortened last step
    n_snap = int(math.floor(t_end / interval + 1e-9)) + 1
    tol = 1e-9 * max(dt, interval)
    want = [0.0] + [float(step_t[np.argmax(step_t >= k * interval - tol)])
                    for k in range(1, n_snap)]

    t, cols = snapshots(out_dir)
    errors = []
    if t.size != n_snap:
        return [f"cadence: {t.size} snapshots, expected {n_snap}"]
    bad = np.abs(t - np.array(want)) > 1e-12 * max(1.0, t_end)
    if bad.any():
        k = int(np.argmax(bad))
        errors.append(f"cadence: snapshot {k} at t={t[k]!r}, expected {want[k]!r}")
    if np.any(cols["t"] != t[:, None]):
        errors.append("cadence: mixed times within one snapshot block")
    length, nx = cp.getfloat("grid", "length"), cp.getint("grid", "nx")
    x = np.arange(n_nodes(cp)) * (length / nx)
    if np.abs(cols["x"] - x).max() > 1e-12 * length:
        errors.append("cadence: node coordinates out of order or off the grid")
    return errors


# ---------------------------------------------------------------------------
# bar (full_1d) checks


def check_strain_stress(out_dir: str) -> list[str]:
    """strain and stress columns equal the node average of diff(u)/dx and of
    the sextic law k1 (theta - theta1) eps - k2 eps^3 + k3 eps^5 (+ mu eps_dot)
    at the midpoints, recomputed from the u, v and theta columns."""
    cp = read_config(out_dir)
    m = _material(cp)
    if m["nu"] != 0.0:
        return ["strain/stress: nu != 0 needs the temperature rate, not covered"]
    dx = cp.getfloat("grid", "length") / cp.getint("grid", "nx")
    _, c = snapshots(out_dir)
    eps = np.diff(c["u"], axis=1) / dx
    th_m = 0.5 * (c["theta"][:, 1:] + c["theta"][:, :-1])
    terms = (m["k1"] * (th_m - m["theta1"]) * eps, -m["k2"] * eps ** 3,
             m["k3"] * eps ** 5, m["mu"] * np.diff(c["v"], axis=1) / dx)
    stress = _node_average(sum(terms))
    errors = []
    for name, want, scale in (
            ("strain", _node_average(eps), np.abs(eps).max()),
            ("stress", stress, max(np.abs(t).max() for t in terms))):
        err = np.abs(c[name] - want)
        if err.max() > 1e-12 * max(scale, 1e-300):
            k, i = np.unravel_index(np.argmax(err), err.shape)
            errors.append(f"{name}: snapshot {k} node {i} reads {c[name][k, i]!r},"
                          f" recomputed {want[k, i]!r}")
    return errors


def energy_series(out_dir: str) -> np.ndarray:
    """Discrete total energy of every snapshot: trapezoid-rule kinetic and
    thermal energy over nodes plus midpoint-rule strain energy over cells."""
    cp = read_config(out_dir)
    m = _material(cp)
    dx = cp.getfloat("grid", "length") / cp.getint("grid", "nx")
    _, c = snapshots(out_dir)
    w = np.ones(c["u"].shape[1])
    w[0] = w[-1] = 0.5
    nodal = 0.5 * m["rho"] * c["v"] ** 2 + m["cv"] * c["theta"] + m["rho"] * m["alpha0"]
    e2 = (np.diff(c["u"], axis=1) / dx) ** 2
    psi3 = e2 * (-0.5 * m["k1"] * m["theta1"] + e2 * (-0.25 * m["k2"] + e2 * m["k3"] / 6.0))
    return (nodal @ w) * dx + psi3.sum(axis=1) * dx


def check_energy(out_dir: str, max_drift: float | None = None) -> list[str]:
    """diagnostics.csv total_energy equals the energy recomputed from the
    snapshots; with max_drift, the recomputed energy also stays within that
    relative drift of its initial value."""
    e = energy_series(out_dir)
    header, diag = read_csv(os.path.join(out_dir, "diagnostics.csv"))
    if diag.shape[0] != e.size:
        return [f"energy: {diag.shape[0]} diagnostics rows for {e.size} snapshots"]
    reported = diag[:, header.index("total_energy")]
    errors = []
    err = np.abs(reported - e).max() / np.abs(e).max()
    if err > 1e-12:
        errors.append(f"energy: diagnostics differ from recomputation by {err:.3g}")
    if max_drift is not None:
        drift = np.abs(e - e[0]).max() / abs(e[0])
        if drift > max_drift:
            errors.append(f"energy: relative drift {drift:.3g} above {max_drift:g}")
    return errors


def check_phase_story(out_dir: str) -> list[str]:
    """experiment1: the bar passes through pure austenite (max|eps| below
    austenite_band at some snapshot while heated, 1 < t < 9 ms) and ends
    with both martensite variants (strains beyond +-martensite_band)."""
    cp = read_config(out_dir)
    dx = cp.getfloat("grid", "length") / cp.getint("grid", "nx")
    a_band = cp.getfloat("phases", "austenite_band")
    m_band = cp.getfloat("phases", "martensite_band")
    t, c = snapshots(out_dir)
    eps = np.diff(c["u"], axis=1) / dx
    heated = (t > 1.0) & (t < 9.0)
    errors = []
    if not heated.any():
        return ["phase story: no snapshot inside the heating window 1 < t < 9"]
    window = np.abs(eps[heated]).max(axis=1).min()
    if not window < a_band:
        errors.append(f"phase story: max|eps| never below {a_band} while heated "
                      f"(lowest {window:.4g})")
    if not (eps[-1].max() > m_band and eps[-1].min() < -m_band):
        errors.append(f"phase story: final strain [{eps[-1].min():.4g}, "
                      f"{eps[-1].max():.4g}] lacks a variant beyond +-{m_band}")
    return errors


def mms_error(out_dir: str) -> float:
    """Final-snapshot max error against the closed-form u*, v*, theta*,
    each normalised by its amplitude."""
    cp = read_config(out_dir)
    a, wu = cp.getfloat("mms", "u_amplitude"), cp.getfloat("mms", "omega_u")
    tb, b = cp.getfloat("mms", "theta_bar"), cp.getfloat("mms", "theta_amplitude")
    wt = cp.getfloat("mms", "omega_t")
    length = cp.getfloat("grid", "length")
    t, c = snapshots(out_dir)
    x, tf = c["x"][-1], t[-1]
    s = np.sin(np.pi * x / length)
    u = a * s * np.sin(wu * tf)
    v = a * wu * s * np.cos(wu * tf)
    th = tb + b * np.cos(np.pi * x / length) * np.cos(wt * tf)
    return max(np.abs(c["u"][-1] - u).max() / a,
               np.abs(c["v"][-1] - v).max() / (a * wu),
               np.abs(c["theta"][-1] - th).max() / b)


def check_mms_order(coarse_dir: str, fine_dir: str,
                    lo: float = 1.8, hi: float = 2.2) -> list[str]:
    """Observed spatial order between two manufactured-solution runs whose
    grids differ by a factor of two lies in [lo, hi]."""
    n0 = read_config(coarse_dir).getint("grid", "nx")
    n1 = read_config(fine_dir).getint("grid", "nx")
    e0, e1 = mms_error(coarse_dir), mms_error(fine_dir)
    order = math.log(e0 / e1) / math.log(n1 / n0) if e0 > 0 and e1 > 0 else math.nan
    if not lo <= order <= hi:
        return [f"mms: observed order {order:.3f} from nx={n0} to nx={n1} "
                f"outside [{lo}, {hi}] (errors {e0:.3g}, {e1:.3g})"]
    return []


# ---------------------------------------------------------------------------
# slab checks


def mode_frequency(t: np.ndarray, x: np.ndarray, disp: np.ndarray,
                   vel: np.ndarray, k: float) -> float:
    """Angular frequency of the sin(k x) mode of a displacement/velocity
    pair: fit the 2x2 map carrying the mode amplitudes from one snapshot to
    the next and take the argument of its eigenvalues per unit time."""
    h = np.diff(t)
    if np.abs(h - h[0]).max() > 1e-9 * h[0]:
        raise ValueError("snapshots are not evenly spaced")
    s = np.sin(k * x)
    p = disp @ s / (s @ s)
    q = vel @ s / (s @ s)
    a = np.stack([p / np.abs(p).max(), q / np.abs(q).max()], axis=1)
    m = np.linalg.lstsq(a[:-1], a[1:], rcond=None)[0]
    return float(np.abs(np.angle(np.linalg.eigvals(m))).max() / h[0])


def dispersion_targets(cp) -> dict:
    """Frequencies of the seeded U1 and U2 modes from the semi-discrete
    linear relations, rho w^2 = c_wave sig - c_disp b^2 sig^2 and
    rho w^2 = c_bend b^2 sig^2 with sig = 4 sin^2(k dx/2)/dx^2, and the same
    frequencies as advanced by classical RK4 at the run's dt."""
    length, nx = cp.getfloat("grid", "length"), cp.getint("grid", "nx")
    dx, dt = length / nx, cp.getfloat("time", "dt")
    b, rho = cp.getfloat("slab", "b"), cp.getfloat("slab", "rho")
    out = {}
    for field in ("u1", "u2"):
        k = 2.0 * math.pi * cp.getint("slab_initial", f"{field}_mode") / length
        sig = 4.0 * math.sin(0.5 * k * dx) ** 2 / dx ** 2
        if field == "u1":
            w2 = (cp.getfloat("slab", "c_wave") * sig
                  - cp.getfloat("slab", "c_disp") * b * b * sig * sig) / rho
        else:
            w2 = cp.getfloat("slab", "c_bend") * b * b * sig * sig / rho
        w = math.sqrt(w2)
        z = 1j * w * dt
        amp = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
        out[field] = (k, w, math.atan2(amp.imag, amp.real) / dt)
    return out


# relative tolerances on the RK4-advanced frequency: U2 obeys a linear beam
# equation, so only round-off separates it from the relation; U1 carries
# the small-amplitude nonlinear terms of the flux bracket.
FREQ_TOL = {"u1": 1e-6, "u2": 1e-10}


def check_dispersion(out_dir: str) -> list[str]:
    """The seeded U1 and U2 sine modes oscillate at the frequencies of the
    linear dispersion relation (see dispersion_targets)."""
    cp = read_config(out_dir)
    errors = []
    for name in ("u1", "u2", "v1", "v2", "theta_prime"):
        kind = cp.get("slab_initial", name)
        if kind != ("sine" if name in ("u1", "u2") else "uniform") or \
                cp.getfloat("slab_initial", f"{name}_value") != 0.0:
            errors.append(f"dispersion: needs zero-mean sine u1/u2 and zero "
                          f"uniform v1/v2/theta_prime, got {name} = {kind}")
    if errors:
        return errors
    t, c = snapshots(out_dir)
    for field, (k, w_semi, w_rk4) in dispersion_targets(cp).items():
        disp, vel = field.upper(), "V" + field[1]
        w = mode_frequency(t, c["x"][0], c[disp], c[vel], k)
        rel = abs(w / w_rk4 - 1.0)
        if not rel <= FREQ_TOL[field]:
            errors.append(f"dispersion: {disp} mode at {w!r}/ms, relation gives "
                          f"{w_rk4!r} (semi-discrete {w_semi!r}); relative "
                          f"error {rel:.3g} above {FREQ_TOL[field]:g}")
    return errors


def check_reconstruction(out_dir: str) -> list[str]:
    """Gauss-Legendre thickness averages of reconstruction.csv equal U1, U2
    and theta_ref + ThetaPrime of snapshots.csv to round-off (every
    correction of the slow-manifold expansion integrates to zero)."""
    cp = read_config(out_dir)
    ys = [float(y) for y in cp.get("output", "reconstruct_y").split(",")]
    if len(ys) != 3 or np.abs(np.array(ys) - GL_NODES).max() > 1e-12:
        return [f"reconstruction: reconstruct_y {ys} is not the 3-point "
                f"Gauss-Legendre node set"]
    t, c = snapshots(out_dir)
    header, data = read_csv(os.path.join(out_dir, "reconstruction.csv"))
    n = c["x"].shape[1]
    if data.shape[0] != t.size * 3 * n:
        return [f"reconstruction: {data.shape[0]} rows, expected {t.size * 3 * n}"]
    r = {name: data[:, j].reshape(t.size, 3, n) for j, name in enumerate(header)}
    errors = []
    if (np.abs(r["Y"] - np.array(ys)[None, :, None]).max() > 0
            or np.any(r["t"] != t[:, None, None])
            or np.any(r["x"] != c["x"][:, None, :])):
        errors.append("reconstruction: rows out of (t, Y, x) order")
    w = np.array(GL_WEIGHTS)[None, :, None] / 2.0
    theta_ref = cp.getfloat("slab", "theta_ref")
    for col, want in (("u1", c["U1"]), ("u2", c["U2"]),
                      ("theta", theta_ref + c["ThetaPrime"])):
        avg = (w * r[col]).sum(axis=1)
        err = np.abs(avg - want).max() / np.abs(r[col]).max()
        if err > 1e-12:
            errors.append(f"reconstruction: thickness average of {col} differs "
                          f"from the amplitude field by {err:.3g} (relative)")
    return errors
