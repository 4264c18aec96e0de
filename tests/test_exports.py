"""Every name a smabar module lists in __all__ exists, so a deleted
function cannot leave a dead export behind; the package serves its cli
names without importing smabar.cli up front; runs load sympy never,
scipy's LAPACK wrapper only when they integrate implicitly, and the
scipy.linalg package never."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import smabar

MODULES = [f"smabar.{m.name}" for m in pkgutil.iter_modules(smabar.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    exec(f"from {module} import *", {})


@pytest.mark.parametrize("module", [m for m in MODULES if m != "smabar.cli"])
def test_package_exports_each_module_all(module):
    """The package exports every name of each module's __all__ (the cli
    names on first access): no hand-kept list can drift from them."""
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert getattr(smabar, name) is getattr(mod, name), name


def test_cli_names_are_cli_exports():
    from smabar import cli
    assert set(smabar._CLI_NAMES) <= set(cli.__all__)


def test_cli_names_served_from_package():
    from smabar import cli
    for name in ("ConfigError", "SimConfig", "load_config", "preset", "run",
                 "write_config"):
        assert getattr(smabar, name) is getattr(cli, name)
    with pytest.raises(AttributeError):
        smabar.no_such_name


def test_module_run_of_cli_raises_no_runtime_warning():
    """`python -m smabar.cli` warns (RuntimeWarning from runpy) when the
    package has already imported smabar.cli before runpy executes it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(smabar.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "smabar.cli",
         "--help"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_NO_SYMPY_RUN = """
import sys
import smabar
after_import = "sympy" in sys.modules
from smabar import cli
code = cli.main(["run", "--preset", "mms", "--override", "time.t_end=0.01",
                 "--out", sys.argv[1]])
print(code, after_import, "sympy" in sys.modules)
"""


SRC = os.path.dirname(os.path.dirname(os.path.abspath(smabar.__file__)))


def _python(script, *args):
    """Run script in a fresh interpreter that imports smabar from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_runs_never_import_sympy(tmp_path):
    """sympy is a test-only dependency: neither the package import nor an
    mms run, the one preset built on the manufactured solution, loads it."""
    out = _python(_NO_SYMPY_RUN, tmp_path / "mms")
    assert out[-3:] == ["0", "False", "False"], out
    assert (tmp_path / "mms" / "summary.txt").exists()


_RUNS = """
import sys
import smabar
seen = ["scipy.linalg" in sys.modules]
from smabar import cli, solver1d
for argv in (["--preset", "conservation", "--override", "time.t_end=0.002"],
             ["--config", sys.argv[1], "--override", "time.t_end=0.01"],
             ["--preset", "experiment2", "--override", "time.t_end=0.004"]):
    seen += [cli.main(["run", *argv, "--out", sys.argv[2]]),
             solver1d._lapack.cache_info().currsize,
             "scipy.linalg" in sys.modules]
print(*seen)
"""


def test_runs_never_import_scipy_linalg(tmp_path):
    """Only the implicit integrators factor a matrix, so neither the package
    import nor an RK4 bar run nor a slab run loads LAPACK, and an implicit
    run loads scipy's compiled wrapper alone: no run imports scipy.linalg."""
    ini = os.path.join(os.path.dirname(SRC), "bench", "slab_reconstruct.ini")
    out = _python(_RUNS, ini, tmp_path / "o")
    assert out[-10:] == ["False", "0", "0", "False", "0", "0", "False",
                         "0", "1", "False"], out


_IMPLICIT_SETUP = """
import sys
from smabar import cli, solver1d
loaded = []
resolve = cli.SimConfig.resolve

def resolved(self):
    setup = resolve(self)
    loaded.append(solver1d._lapack.cache_info().currsize)
    return setup

cli.SimConfig.resolve = resolved
before = solver1d._lapack.cache_info().currsize
code = cli.main(["run", "--preset", "experiment2", "--override",
                 "time.t_end=0.004", "--out", sys.argv[1]])
print(before, code, *loaded, "scipy.linalg" in sys.modules)
"""


def test_implicit_run_loads_lapack_at_setup(tmp_path):
    """An implicit run loads LAPACK while it is set up, by the time
    SimConfig.resolve returns, not inside the integration, and the run
    never imports scipy.linalg."""
    out = _python(_IMPLICIT_SETUP, tmp_path / "e2")
    assert out[-4:] == ["0", "0", "1", "False"], out


_ONE_SHOT_STEP = """
import sys
import numpy as np
from smabar import (BoundarySpec, FieldState, Forcing, Grid1D, cu_based,
                    solver1d, step)
grid = Grid1D(1.0, 8)
x = grid.nodes()
state = FieldState(0.0, 0.01 * np.sin(np.pi * x), np.zeros_like(x),
                   np.full_like(x, 250.0))
before = solver1d._lapack.cache_info().currsize
out = step(state, 1e-3, grid, cu_based(), BoundarySpec("pinned", "insulated"),
           Forcing.none(), "implicit_euler")
print(np.isfinite(out.u).all(), out.t == 1e-3, before,
      solver1d._lapack.cache_info().currsize, "scipy.linalg" in sys.modules)
"""


def test_one_shot_implicit_step_without_a_run_setup():
    """The public step() loads LAPACK when it is set up, as an implicit run
    does (step builds a one-step RunSetup), without importing
    scipy.linalg."""
    out = _python(_ONE_SHOT_STEP)
    assert out[-5:] == ["True", "True", "0", "1", "False"], out
