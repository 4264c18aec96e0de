"""Dynamic thermomechanics of shape-memory-alloy bars and thin slabs.

Subpackages:

* constitutive -- sextic Landau free energy, stress, entropy, conduction
* invariants3d -- cubic-group strain invariants and the 3D free energy
* solver1d     -- staggered-grid method-of-lines solver for the coupled bar
* slab         -- centre-manifold reduced model of a thin slab
* manufactured -- closed-form manufactured-solution harness (numpy)
* cli          -- config files, presets, run orchestration (`sma` command)
"""

# each module's __all__ is the one list of its public names
from .constitutive import *
from .invariants3d import *
from .manufactured import *
from .slab import *
from .solver1d import *

__version__ = "0.1.0"

# The cli names are served on first access (PEP 562), not imported here:
# importing smabar.cli from the package would put it in sys.modules before
# `python -m smabar.cli` runs it as __main__, which runpy warns about.
_CLI_NAMES = ("ConfigError", "SimConfig", "load_config", "preset", "run",
              "write_config")


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
