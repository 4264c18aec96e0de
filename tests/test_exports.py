"""Every name a smabar module lists in __all__ exists, so a deleted
function cannot leave a dead export behind; the package serves its cli
names without importing smabar.cli up front."""

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


def test_runs_never_import_sympy(tmp_path):
    """sympy is a test-only dependency: neither the package import nor an
    mms run, the one preset built on the manufactured solution, loads it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(smabar.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SYMPY_RUN, str(tmp_path / "mms")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-3:] == ["0", "False", "False"], proc.stdout
    assert (tmp_path / "mms" / "summary.txt").exists()
