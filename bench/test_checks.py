"""The benchmark's artifact checks accept real `sma run` output and reject a
deliberately corrupted copy of it, so that no check can pass vacuously.

Runs short versions of the benchmark's operations in-process (smabar must
be importable, e.g. PYTHONPATH=src).
"""

import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
from smabar.cli import main, preset, write_config

HERE = os.path.dirname(os.path.abspath(__file__))


def sma(factory, name, *args):
    out = str(factory.mktemp(name))
    assert main(["run", *args, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def bar(tmp_path_factory):
    return sma(tmp_path_factory, "bar", "--preset", "experiment1",
               "--override", "time.t_end=0.18")


@pytest.fixture(scope="module")
def conservation(tmp_path_factory):
    return sma(tmp_path_factory, "cons", "--preset", "conservation",
               "--override", "time.t_end=0.2")


@pytest.fixture(scope="module")
def mms(tmp_path_factory):
    return (sma(tmp_path_factory, "mms32", "--preset", "mms",
                "--override", "time.t_end=0.1"),
            sma(tmp_path_factory, "mms64", "--preset", "mms",
                "--override", "time.t_end=0.1", "--override", "grid.nx=64",
                "--override", "time.dt=0.000125"))


@pytest.fixture(scope="module")
def slab(tmp_path_factory):
    return sma(tmp_path_factory, "slab", "--config",
               os.path.join(HERE, "slab_reconstruct.ini"),
               "--override", "time.t_end=0.04")


def corrupt(src, tmp_path, name, edit):
    """Copy the artifact directory and let edit(header, data) change one CSV."""
    dst = str(tmp_path / "corrupt")
    shutil.copytree(src, dst)
    path = os.path.join(dst, name)
    header, data = checks.read_csv(path)
    edit(header, data)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return dst


def test_strain_stress(bar, tmp_path):
    assert checks.check_strain_stress(bar) == []

    def bump(col):
        def edit(header, data):
            j = header.index(col)
            data[40, j] += 1e-8 * np.abs(data[:, j]).max()
        return edit

    for col in ("strain", "stress"):
        bad = corrupt(bar, tmp_path / col, "snapshots.csv", bump(col))
        assert any(e.startswith(col) for e in checks.check_strain_stress(bad))


def test_cadence(bar, slab, tmp_path):
    assert checks.check_cadence(bar) == []
    assert checks.check_cadence(slab) == []

    def late_last_snapshot(header, data):
        last = data[:, 0] == data[-1, 0]
        data[last, 0] += 7e-4

    bad = corrupt(bar, tmp_path, "snapshots.csv", late_last_snapshot)
    assert checks.check_cadence(bad)


def test_energy(bar, conservation, tmp_path):
    assert checks.check_energy(bar) == []
    assert checks.check_energy(conservation, max_drift=1e-4) == []

    def bump_energy(header, data):
        data[1, header.index("total_energy")] *= 1.0 + 1e-9

    bad = corrupt(bar, tmp_path / "diag", "diagnostics.csv", bump_energy)
    assert checks.check_energy(bad)

    def heat_last_snapshot(header, data):
        last = data[:, 0] == data[-1, 0]
        data[last, header.index("theta")] += 0.5

    bad = corrupt(conservation, tmp_path / "drift", "snapshots.csv",
                  heat_last_snapshot)
    assert any("drift" in e for e in checks.check_energy(bad, max_drift=1e-4))


def phase_artifact(path, final_slope):
    """experiment1 config with three hand-made snapshots: the initial
    four-variant profile, pure austenite at t = 5 and a final profile."""
    os.makedirs(path)
    config = preset("experiment1")
    with open(os.path.join(path, "config_resolved.txt"), "w") as fh:
        fh.write(write_config(config))
    x = np.linspace(0.0, 1.0, config.nx + 1)
    saw = np.interp(x, [0, 1 / 6, 0.5, 5 / 6, 1], [0, -1 / 6, 1 / 6, -1 / 6, 0])
    with open(os.path.join(path, "snapshots.csv"), "w") as fh:
        fh.write("t,x,u,v,theta,strain,stress\n")
        for t, slope in ((0.0, 0.118), (5.0, 0.0), (12.0, final_slope)):
            for xi, ui in zip(x.tolist(), (slope * saw).tolist()):
                fh.write(f"{t!r},{xi!r},{ui!r},0.0,250.0,0.0,0.0\n")
    return path


def test_phase_story(tmp_path):
    assert checks.check_phase_story(phase_artifact(tmp_path / "ok", 0.1)) == []
    assert checks.check_phase_story(phase_artifact(tmp_path / "bad", 0.05))


def test_mms_order(mms, tmp_path):
    coarse, fine = mms
    assert checks.check_mms_order(coarse, fine) == []
    err = checks.mms_error(coarse)
    a = checks.read_config(fine).getfloat("mms", "u_amplitude")

    def add_error(header, data):
        last = data[:, 0] == data[-1, 0]
        x = data[last, header.index("x")]
        data[last, header.index("u")] += 0.5 * err * a * np.sin(np.pi * x)

    bad = corrupt(fine, tmp_path, "snapshots.csv", add_error)
    assert checks.check_mms_order(coarse, bad)


def test_dispersion(slab, tmp_path):
    assert checks.check_dispersion(slab) == []

    def stretch_time(header, data):
        data[:, 0] *= 1.0 + 1e-4

    bad = corrupt(slab, tmp_path, "snapshots.csv", stretch_time)
    errors = checks.check_dispersion(bad)
    assert any("U1" in e for e in errors) and any("U2" in e for e in errors)


def test_reconstruction(slab, tmp_path):
    assert checks.check_reconstruction(slab) == []
    n = checks.n_nodes(checks.read_config(slab))

    def swap_y_rows(header, data):
        k, i = 5, 7                      # snapshot 5, node 7: rows of Y=0, Y>0
        mid, top = (k * 3 + 1) * n + i, (k * 3 + 2) * n + i
        cols = [header.index(c) for c in ("u1", "u2", "theta")]
        data[[mid, top], cols[0]:cols[-1] + 1] = data[[top, mid], cols[0]:cols[-1] + 1]

    bad = corrupt(slab, tmp_path, "reconstruction.csv", swap_y_rows)
    assert checks.check_reconstruction(bad)


def test_digest(bar, tmp_path):
    copy = str(tmp_path / "copy")
    shutil.copytree(bar, copy)
    assert checks.digest(copy) == checks.digest(bar)

    def nudge(header, data):
        data[3, 2] = math.nextafter(data[3, 2], math.inf)

    assert checks.digest(corrupt(bar, tmp_path, "snapshots.csv", nudge)) \
        != checks.digest(bar)


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"),
                           "--workload", "slab_reconstruct", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
