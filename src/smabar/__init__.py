"""Dynamic thermomechanics of shape-memory-alloy bars and thin slabs.

Subpackages:

* constitutive -- sextic Landau free energy, stress, entropy, conduction
* invariants3d -- cubic-group strain invariants and the 3D free energy
* solver1d     -- staggered-grid method-of-lines solver for the coupled bar
* slab         -- centre-manifold reduced model of a thin slab
* manufactured -- closed-form manufactured-solution harness (numpy)
* cli          -- config files, presets, run orchestration (`sma` command)
"""

from .constitutive import (
    MaterialParams1D,
    conductivity,
    cu_based,
    entropy,
    equilibrium_stress,
    free_energy,
    internal_energy,
    strain_energy,
)
from .invariants3d import (
    FalkKonopkaCoeffs,
    Strain3,
    StrainInvariants,
    cu_based_3d,
    cubic_group_elements,
    free_energy_3d,
    invariants,
)
from .manufactured import MmsCase, build_mms_case
from .slab import (
    SlabParams,
    SlabRunSetup,
    SlabState,
    cu_based_slab,
    reconstruct_fields,
    slab_rhs,
    slab_simulate,
)
from .solver1d import (
    BoundarySpec,
    FieldState,
    Forcing,
    Grid1D,
    IntegrationError,
    RunSetup,
    Trajectory,
    compute_stress,
    energy_budget,
    rhs,
    simulate,
    stable_dt,
    step,
)

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
