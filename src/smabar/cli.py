"""Command-line driver and plain-text run configuration.

Configs are INI files with one section per concern; every physical value
is in the cgs-ms-K unit system used throughout the package.  The per-model
key table `_SCHEMA`, derived from the fields of the config dataclasses, is
the single source of section and key names: reading, writing, defaults,
required keys and the unknown-key and unknown-section errors all follow
from it.  The builder tables own the kinds: `_FORCING`, `_INITIAL` and
`_SLAB_FIELD` map each accepted value of a forcing or initial-field kind
key to what it builds, and `_KINDS` lists every kind key's accepted values,
those of the tables as the tables' keys.  Example (thermal cycling of a
pinned bar):

    [model]
    kind = full_1d

    [grid]
    length = 1.0          ; cm
    nx = 24

    [time]
    dt = 0.0007           ; ms
    t_end = 12.0          ; ms
    output_interval = 0.06

    [integrator]
    kind = implicit_euler ; rk4 | implicit_euler | implicit_midpoint

    [bcs]
    mech = pinned         ; stress_free | pinned | mixed
    thermal = controlled_flux
    beta = 0.0            ; surface exchange, 0 degenerates to insulation
    theta_ambient = 200.0 ; K

    [forcing]
    body = const          ; F in g/(ms^2 cm^2)
    body_value = 500.0
    heat = sin_cubed      ; G = amplitude * sin(rate * t)^3, g/(ms^3 cm)
    heat_amplitude = 1178.0972
    heat_rate = 0.5235988

    [initial]
    u = piecewise_linear
    u_breakpoints = 0:0, 0.1666:-0.0196, 0.5:0.0196, 0.8333:-0.0196, 1:0
    theta = const
    theta_value = 200.0

Run with `sma run --preset experiment1 --out outdir` or
`sma run --config file.ini --out outdir [--override time.dt=0.0005 ...]`.
Exit codes: 0 success, 1 configuration error, 2 integration abort (partial
artifacts are written and flagged).
"""

from __future__ import annotations

import argparse
import configparser
import io
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import reduce

import numpy as np

from . import solver1d
from .constitutive import MaterialParams1D, conductivity, cu_based
from .manufactured import build_mms_case
from .slab import (ENDS, SlabParams, SlabRunSetup, SlabState, _check_y,
                   _grid_points, cu_based_slab, slab_simulate)
from .solver1d import (BoundarySpec, FieldState, Forcing, Grid1D,
                       IntegrationError, RunSetup, simulate)

__all__ = ["SimConfig", "ConfigError", "load_config", "write_config",
           "preset", "run", "main", "classify_strain"]

PRESETS = ("experiment1", "experiment2", "conservation", "mms")


class ConfigError(ValueError):
    """Invalid or unparsable run configuration."""


@contextmanager
def _reraised(prefix: str):
    """Re-raise a ValueError from the block as a ConfigError whose message
    is prefix (the section, key or override) and then the ValueError's."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix} {exc}") from exc


# ---------------------------------------------------------------------------
# config dataclasses


@dataclass
class ForcingSpec:
    body_kind: str = "none"
    body_value: float = 0.0
    body_amplitude: float = 0.0
    body_rate: float = 0.0
    heat_kind: str = "none"
    heat_value: float = 0.0
    heat_amplitude: float = 0.0
    heat_rate: float = 0.0


@dataclass
class InitialSpec:
    u_kind: str = "zero"
    u_breakpoints: tuple = ()      # ((x, u), ...)
    u_amplitude: float = 0.0
    u_mode: int = 1
    v_kind: str = "zero"
    v_amplitude: float = 0.0
    v_mode: int = 1
    theta_kind: str = "const"
    theta_value: float = 300.0
    theta_amplitude: float = 0.0
    theta_mode: int = 1
    theta_dot_kind: str = "consistent"   # used only when tau0 > 0


@dataclass
class MmsSpec:
    u_amplitude: float = 0.005
    omega_u: float = 3.0
    theta_bar: float = 300.0
    theta_amplitude: float = 5.0
    omega_t: float = 2.0


@dataclass
class SlabFieldInit:
    kind: str = "uniform"
    value: float = 0.0
    amplitude: float = 0.0
    mode: int = 1


@dataclass
class SlabInitialSpec:
    u1: SlabFieldInit = field(default_factory=SlabFieldInit)
    u2: SlabFieldInit = field(default_factory=SlabFieldInit)
    v1: SlabFieldInit = field(default_factory=SlabFieldInit)
    v2: SlabFieldInit = field(default_factory=SlabFieldInit)
    theta_prime: SlabFieldInit = field(default_factory=SlabFieldInit)


# ---------------------------------------------------------------------------
# INI schema: one row (section, key, SimConfig attribute path) per key


def _rows(section, cls, prefix, key=lambda name: name):
    return [(section, key(f.name), prefix + (f.name,)) for f in fields(cls)]


def _without_kind(name):
    return name.removesuffix("_kind")


_COMMON = [("model", "kind", ("model",)),
           ("grid", "length", ("length",)), ("grid", "nx", ("nx",)),
           ("time", "dt", ("dt",)), ("time", "t_end", ("t_end",)),
           ("time", "output_interval", ("output_interval",)),
           ("integrator", "kind", ("integrator",))]

_SCHEMA = {
    "full_1d": _COMMON
    + _rows("material", MaterialParams1D, ("material",))
    + _rows("bcs", BoundarySpec, ("bcs",))
    + _rows("forcing", ForcingSpec, ("forcing",), _without_kind)
    + _rows("initial", InitialSpec, ("initial",), _without_kind)
    + _rows("mms", MmsSpec, ("mms",))
    + [("phases", "austenite_band", ("austenite_band",)),
       ("phases", "martensite_band", ("martensite_band",))],
    "slab": _COMMON
    + _rows("slab", SlabParams, ("slab_material",))
    + [("bcs", "ends", ("ends",))]
    + [("slab_initial", name if f.name == "kind" else f"{name}_{f.name}",
        ("slab_initial", name, f.name))
       for name in (g.name for g in fields(SlabInitialSpec))
       for f in fields(SlabFieldInit)]
    + [("output", "reconstruct_y", ("reconstruct_y",))],
}

_REQUIRED = [row[:2] for row in _COMMON if row[0] != "integrator"]

# What each value of a kind key builds.  A table's keys are the values its
# kind key accepts, in the order the messages list them.

# F(x, t) or G(x, t) from (value, amplitude, rate, mms callable).  The
# x-independent kinds return a scalar; the solver adds it to every node with
# the same bits as an array of that value.
_FORCING = {
    "none": lambda value, amplitude, rate, mms: lambda x, t: 0.0,
    "const": lambda value, amplitude, rate, mms: lambda x, t: value,
    "sin_cubed": lambda value, amplitude, rate, mms:
        lambda x, t: amplitude * math.sin(rate * t) ** 3,
    "mms": lambda value, amplitude, rate, mms: mms,
}

# The bar's node values at t = 0 from (InitialSpec, x, length, mms case),
# by InitialSpec kind attribute
_INITIAL = {
    "u_kind": {
        "zero": lambda ini, x, length, case: np.zeros_like(x),
        "piecewise_linear": lambda ini, x, length, case: np.interp(
            x, *zip(*ini.u_breakpoints)),
        "sine": lambda ini, x, length, case: ini.u_amplitude * np.sin(
            ini.u_mode * np.pi * x / length),
        "mms": lambda ini, x, length, case: case.u(x, 0.0),
    },
    "v_kind": {
        "zero": lambda ini, x, length, case: np.zeros_like(x),
        "sine": lambda ini, x, length, case: ini.v_amplitude * np.sin(
            ini.v_mode * np.pi * x / length),
        "mms": lambda ini, x, length, case: case.v(x, 0.0),
    },
    "theta_kind": {
        "const": lambda ini, x, length, case: np.full_like(x, ini.theta_value),
        "cosine": lambda ini, x, length, case: ini.theta_value + (
            ini.theta_amplitude * np.cos(ini.theta_mode * np.pi * x / length)),
        "mms": lambda ini, x, length, case: case.theta(x, 0.0),
    },
}

# A slab field's node values at t = 0 from (SlabFieldInit, x, length)
_SLAB_FIELD = {
    "uniform": lambda spec, x, length: np.full_like(x, spec.value),
    "sine": lambda spec, x, length: spec.value + spec.amplitude * np.sin(
        2.0 * np.pi * spec.mode * x / length),
}

# Accepted values of every kind key, by model and attribute path.  The
# [bcs] mech and thermal kinds are checked by BoundarySpec itself.
_KINDS = {
    "full_1d": {
        ("integrator",): solver1d.INTEGRATORS,
        ("forcing", "body_kind"): tuple(_FORCING),
        ("forcing", "heat_kind"): tuple(_FORCING),
        **{("initial", key): tuple(table) for key, table in _INITIAL.items()},
        ("initial", "theta_dot_kind"): ("consistent", "zero"),
    },
    "slab": {
        ("integrator",): ("rk4",),
        ("ends",): ENDS,
        **{("slab_initial", f.name, "kind"): tuple(_SLAB_FIELD)
           for f in fields(SlabInitialSpec)},
    },
}

_BREAKPOINTS = ("initial", "u_breakpoints")

# Smallest positive [material] tau0 (ms).  The theta_dot equation divides by
# tau0, so near the double-precision limit its terms overflow (experiment1's
# implicit step fails at tau0 = 1e-306); 1e-100 ms keeps 200 decades of
# head-room and is still far below any physical relaxation time.
_TAU0_FLOOR = 1e-100


def _schema(model):
    if model not in _SCHEMA:
        raise ConfigError(f"[model] kind must be one of {', '.join(_SCHEMA)}")
    return _SCHEMA[model]


def _lookup(obj, path):
    return reduce(getattr, path, obj)


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class SimConfig:
    """Fully deterministic run description (no random state anywhere)."""

    model: str = "full_1d"                 # full_1d | slab
    material: MaterialParams1D = field(default_factory=cu_based)
    slab_material: SlabParams = field(default_factory=cu_based_slab)
    length: float = 1.0
    nx: int = 24
    dt: float = 7e-4
    t_end: float = 12.0
    output_interval: float = 0.06
    integrator: str = "rk4"
    bcs: BoundarySpec = field(default_factory=BoundarySpec)
    ends: str = "periodic"                 # slab end treatment
    forcing: ForcingSpec = field(default_factory=ForcingSpec)
    initial: InitialSpec = field(default_factory=InitialSpec)
    slab_initial: SlabInitialSpec = field(default_factory=SlabInitialSpec)
    mms: MmsSpec = field(default_factory=MmsSpec)
    austenite_band: float = 0.02           # |eps| below: austenite label
    martensite_band: float = 0.08          # |eps| above: well-developed variant
    reconstruct_y: tuple = ()              # slab cross-section sample points

    @property
    def needs_mms(self) -> bool:
        """True when any forcing or initial field is the manufactured one."""
        return any(_lookup(self, path) == "mms" for path in _KINDS["full_1d"])

    def validate(self):
        """ConfigError where the config is outside its model's validity;
        returns self.  Two checks need the initial state's physics and are
        resolve's, not validate's: a full_1d RK4 dt above the initial
        stable step, and a start where C_v - nu <eps_dot> is not positive.
        An implicit full_1d config builds its RunSetup here, which loads
        LAPACK."""
        self._checked()
        return self

    def _checked(self):
        """The checks of validate; returns the setup they build, a
        RunSetup for full_1d (its state0 without the theta_dot that
        resolve sets) or a SlabRunSetup.  A slab config ignores the bar's
        fields, [phases] and [initial] among them."""
        for section, key, path in _schema(self.model):
            allowed = _KINDS[self.model].get(path)
            if allowed and _lookup(self, path) not in allowed:
                raise ConfigError(
                    f"[{section}] {key} = {_lookup(self, path)!r}: the "
                    f"{self.model} model accepts {', '.join(allowed)}")
        with _reraised("[time]"):
            solver1d._check_times(self)
        with _reraised("[grid]"):
            grid = Grid1D(self.length, self.nx)
        if self.model == "slab":
            dx, min_dx = self.length / self.nx, self.slab_material.min_dx
            if dx <= min_dx:
                raise ConfigError(
                    f"[grid] dx = length/nx = {dx:.6g} cm must exceed the "
                    f"slab's long-wave bound pi b sqrt(c_disp/c_wave) = "
                    f"{min_dx:.6g} cm")
            with _reraised("[output] reconstruct_y:"):
                _check_y(self.reconstruct_y)
            x = _grid_points(self.length, self.nx, self.ends)
            # the five field specs, in the order of SlabState's fields; one
            # that overflows is refused by SlabState.validate, by name
            with np.errstate(over="ignore", invalid="ignore"):
                state0 = SlabState(0.0, *(
                    _SLAB_FIELD[s.kind](s, x, self.length)
                    for s in vars(self.slab_initial).values()))
            with _reraised("[slab_initial]"):
                return SlabRunSetup(self.slab_material, self.length, self.nx,
                                    state0, self.dt, self.t_end,
                                    self.output_interval, self.ends)
        if self.austenite_band <= 0 or self.martensite_band < self.austenite_band:
            raise ConfigError("[phases] bands must satisfy 0 < austenite_band "
                              "<= martensite_band")
        if self.initial.u_kind == "piecewise_linear":
            xs = [x for x, _ in self.initial.u_breakpoints]
            if len(xs) < 2:
                raise ConfigError("[initial] u_breakpoints needs at least "
                                  "two x:value pairs")
            # np.interp reads breakpoints out of order without complaint
            if not all(a < b for a, b in zip(xs, xs[1:])):
                raise ConfigError(f"[initial] u_breakpoints x must strictly "
                                  f"increase, got {', '.join(map(str, xs))}")
        if 0 < self.material.tau0 < _TAU0_FLOOR:
            raise ConfigError(
                f"[material] tau0 = {self.material.tau0!r}: a positive "
                f"tau0 must be at least {_TAU0_FLOOR:g} ms (0 gives "
                f"Fourier conduction)")
        with _reraised("[material]"):
            case = self._mms_case() if self.needs_mms else None
        return RunSetup(grid, self.material, self.bcs, self._forcing(case),
                        self._initial_state(grid, case), self.dt, self.t_end,
                        self.output_interval, self.integrator)

    # -- resolution to runnable setups --------------------------------------

    def _mms_case(self):
        return build_mms_case(self.material, self.length,
                              self.mms.u_amplitude, self.mms.omega_u,
                              self.mms.theta_bar, self.mms.theta_amplitude,
                              self.mms.omega_t)

    def _forcing(self, case) -> Forcing:
        fs = self.forcing
        return Forcing(
            _FORCING[fs.body_kind](fs.body_value, fs.body_amplitude,
                                   fs.body_rate, getattr(case, "body", None)),
            _FORCING[fs.heat_kind](fs.heat_value, fs.heat_amplitude,
                                   fs.heat_rate, getattr(case, "heat", None)))

    def _initial_state(self, grid: Grid1D, case) -> FieldState:
        """The state at t = 0 on grid with the end values the boundary
        conditions hold; ConfigError where a field is not finite or theta
        or k is not positive."""
        x = grid.nodes()
        ini = self.initial
        # a field that overflows is refused below, by name
        with np.errstate(over="ignore", invalid="ignore"):
            u, v, theta = (table[getattr(ini, key)](ini, x, grid.length, case)
                           for key, table in _INITIAL.items())
        state = solver1d._clamp_ends(FieldState(0.0, u, v, theta), self.bcs)
        for key in _INITIAL:
            name = _without_kind(key)
            if not np.isfinite(getattr(state, name)).all():
                raise ConfigError(f"[initial] {name} = {getattr(ini, key)} is "
                                  f"not finite at every node")
        if not (state.theta > 0).all():
            raise ConfigError(
                f"[initial] theta = {ini.theta_kind} falls to "
                f"{state.theta.min():g} K at a node; the initial temperature "
                f"must be positive")
        k = conductivity(self.material, state.theta)
        if not (k > 0).all():
            raise ConfigError(
                f"[material] conductivity k0 (1 + beta_tilde theta) falls to "
                f"{k.min():g} at a node of the initial state; it must be "
                f"positive")
        return state

    def resolve(self):
        """The runnable setup that validate builds (RunSetup or
        SlabRunSetup), with a full_1d start's theta_dot set for tau0 > 0.

        A full_1d RK4 run whose dt exceeds solver1d.stable_dt of the
        initial state is a ConfigError: it could only overflow.  So is an
        initial state where C_v - nu <eps_dot> is not positive: the tau0 = 0
        heat equation does not give theta_t there."""
        setup = self._checked()
        if self.model == "slab":
            return setup
        consistent = (self.material.tau0 > 0
                      and self.initial.theta_dot_kind == "consistent")
        if self.material.nu != 0.0 or consistent:
            # the tau0 = 0 energy equation at t = 0 gives theta_t only where
            # C_v - nu <eps_dot> > 0; its theta_t is the consistent theta_dot
            try:
                theta_t = solver1d.rhs(setup.state0, setup.grid,
                                       self.material.with_(tau0=0.0),
                                       self.bcs, setup.forcing, 0.0).theta
            except IntegrationError as exc:
                raise ConfigError(
                    f"[initial] the initial state has {exc.reason}") from exc
        if self.material.tau0 > 0:
            setup.state0.theta_dot = (theta_t if consistent
                                      else np.zeros_like(setup.state0.theta))
        if self.integrator == "rk4":
            bound = solver1d.stable_dt(setup.state0, setup.grid, self.material)
            if self.dt > bound:
                raise ConfigError(
                    f"[time] dt = {self.dt:.6g} ms exceeds the RK4 stable "
                    f"step {bound:.6g} ms of the initial state")
        return setup


_DEFAULTS = SimConfig()


# ---------------------------------------------------------------------------
# INI serialisation, driven by _SCHEMA; the codec of each key follows the
# type of its default value


def _format(path, value) -> str:
    default = _lookup(_DEFAULTS, path)
    if path == _BREAKPOINTS:
        return ", ".join(f"{float(x)!r}:{float(u)!r}" for x, u in value)
    if isinstance(default, tuple):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(default, float):
        return repr(float(value))
    return str(value)


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _parse(path, raw: str):
    default = _lookup(_DEFAULTS, path)
    items = [item.strip() for item in raw.split(",") if item.strip()]
    if path == _BREAKPOINTS:
        pairs = [item.split(":") for item in items]
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError("breakpoints are x:value pairs")
        return tuple((_float(x), _float(u)) for x, u in pairs)
    if isinstance(default, tuple):
        values = tuple(_float(v) for v in items)
        if default and len(values) != len(default):
            raise ValueError(f"expected {len(default)} comma-separated values")
        return values
    if isinstance(default, float):
        return _float(raw)
    return type(default)(raw)


def write_config(config: SimConfig) -> str:
    """Serialise the sections of config.model (inverse of load_config)."""
    sections = {}
    for section, key, path in _schema(config.model):
        value = _lookup(config, path)
        try:
            text = _format(path, value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"[{section}] {key}: cannot serialise {value!r}") from exc
        sections.setdefault(section, {})[key] = text
    # a section with nothing to say (a slab run without reconstruct_y) is
    # left out; reading it back gives the same defaults
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict({name: keys for name, keys in sections.items()
                  if any(keys.values())})
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


def _read_config_text(text: str, overrides=()) -> SimConfig:
    """Parse INI text and apply `section.key=value` overrides.  The
    sections and keys must be those of the config's model and every value
    must parse, but the config is not validated: load_config validates,
    and `sma run` checks it once, in resolve."""
    if not text.strip():
        raise ConfigError("empty config; required keys: " + ", ".join(
            f"[{section}] {key}" for section, key in _REQUIRED))
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    for item in overrides:
        try:
            key, value = item.split("=", 1)
            section, option = key.strip().split(".", 1)
        except ValueError:
            raise ConfigError(f"override must look like section.key=value, "
                              f"got {item!r}") from None
        with _reraised(f"override {item!r}:"):
            if not cp.has_section(section):
                cp.add_section(section)
            cp.set(section, option.strip(), value.strip())

    missing = [f"[{section}] {key}" for section, key in _REQUIRED
               if not cp.has_option(section, key)]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))
    model = cp.get("model", "kind")
    schema = _schema(model)
    unknown = set(cp.sections()) - {section for section, _, _ in schema}
    if unknown:
        raise ConfigError("unknown sections: " + ", ".join(sorted(unknown)))
    for name in cp.sections():
        unknown = set(cp[name]) - {key for section, key, _ in schema
                                   if section == name}
        if unknown:
            raise ConfigError(
                f"[{name}] unknown keys: {', '.join(sorted(unknown))}")

    updates = {}
    for section, key, path in schema:
        if cp.has_option(section, key):
            raw = cp.get(section, key)
            with _reraised(f"[{section}] {key} = {raw!r}:"):
                updates.setdefault(section, {})[path] = _parse(path, raw)
    config = SimConfig()
    for section, values in updates.items():
        with _reraised(f"[{section}]"):
            config = _with(config, values)
    return config


def _with(obj, values: dict):
    """Copy of dataclass obj with the attributes at the paths in values set."""
    nested = {}
    for path, value in values.items():
        nested.setdefault(path[0], {})[path[1:]] = value
    return replace(obj, **{
        name: sub[()] if () in sub else _with(getattr(obj, name), sub)
        for name, sub in nested.items()})


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def load_config(path: str) -> SimConfig:
    """Read and validate an INI config file (SimConfig.validate; the RK4
    stable-step and nu-degenerate start checks come with resolve)."""
    return _read_config_text(_read_file(path)).validate()


# ---------------------------------------------------------------------------
# presets


def preset(name: str) -> SimConfig:
    """Built-in run configurations.

    experiment1: thermal control of the phase transformations.  Four-variant
    martensite start (piecewise-linear u0 with slope magnitude 0.11809),
    theta0 = 200 K, pinned + controlled-flux ends (beta = 0, degenerating to
    insulation since the exchange coefficient is not quoted anywhere),
    F = 500, G = 375 pi sin^3(pi t/6); nx = 24, dt = 7e-4 ms.  The sin^3
    heating alternates sign, so one 12 ms period gives one full
    heating/cooling cycle; t_end = 12 ms is this package's choice.

    experiment2: mechanical control.  Austenite start (u0 = 0) at 255 K,
    G = 0, F = 7000 sin^3(pi t/2); nx = 16, dt = 8e-4 ms, t_end = 8 ms
    (two loading periods).

    Both experiments use the implicit-Euler integrator: at the quoted
    steps the explicit CFL bound is violated by the stiff martensite
    branches, and its strong damping is what stabilises the locally
    ill-posed spinodal passes (see solver1d).

    conservation / mms: verification harnesses (explicit RK4).
    """
    if name == "experiment1":
        slope = 0.11809
        bps = ((0.0, 0.0), (1.0 / 6.0, -slope / 6.0), (0.5, slope / 6.0),
               (5.0 / 6.0, -slope / 6.0), (1.0, 0.0))
        return SimConfig(
            model="full_1d", material=cu_based(), length=1.0, nx=24,
            dt=7e-4, t_end=12.0, output_interval=0.06,
            integrator="implicit_euler",
            bcs=BoundarySpec("pinned", "controlled_flux", 0.0, 200.0),
            forcing=ForcingSpec(body_kind="const", body_value=500.0,
                                heat_kind="sin_cubed",
                                heat_amplitude=375.0 * math.pi,
                                heat_rate=math.pi / 6.0),
            initial=InitialSpec(u_kind="piecewise_linear", u_breakpoints=bps,
                                theta_kind="const", theta_value=200.0))
    if name == "experiment2":
        return SimConfig(
            model="full_1d", material=cu_based(), length=1.0, nx=16,
            dt=8e-4, t_end=8.0, output_interval=0.04,
            integrator="implicit_euler",
            bcs=BoundarySpec("pinned", "controlled_flux", 0.0, 255.0),
            forcing=ForcingSpec(body_kind="sin_cubed", body_amplitude=7000.0,
                                body_rate=math.pi / 2.0),
            initial=InitialSpec(u_kind="zero", theta_kind="const",
                                theta_value=255.0))
    if name == "conservation":
        return SimConfig(
            model="full_1d", material=cu_based(), length=1.0, nx=48,
            dt=2e-4, t_end=2.0, output_interval=0.05, integrator="rk4",
            bcs=BoundarySpec("pinned", "insulated"),
            forcing=ForcingSpec(),
            initial=InitialSpec(u_kind="piecewise_linear",
                                u_breakpoints=((0.0, 0.0), (0.5, 0.005),
                                               (1.0, 0.0)),
                                theta_kind="const", theta_value=250.0))
    if name == "mms":
        return SimConfig(
            model="full_1d", material=cu_based(), length=1.0, nx=32,
            dt=2.5e-4, t_end=0.25, output_interval=0.05, integrator="rk4",
            bcs=BoundarySpec("pinned", "insulated"),
            forcing=ForcingSpec(body_kind="mms", heat_kind="mms"),
            initial=InitialSpec(u_kind="mms", v_kind="mms", theta_kind="mms"),
            mms=MmsSpec())
    raise ConfigError(f"unknown preset {name!r}; available: {PRESETS}")


# ---------------------------------------------------------------------------
# artifacts


def classify_strain(eps, austenite_band: float) -> np.ndarray:
    """Label strains: 'A' inside the austenite band, else 'M+'/'M-'."""
    eps = np.asarray(eps)
    labels = np.where(np.abs(eps) < austenite_band, "A",
                      np.where(eps > 0, "M+", "M-"))
    return labels


def _block(*columns) -> np.ndarray:
    """CSV rows of the columns broadcast together, in C order of their
    common shape."""
    columns = np.broadcast_arrays(*columns)
    return np.stack(columns, axis=-1).reshape(-1, len(columns))


def _write_csv(path, header, blocks):
    """header, then the rows of each 2-D block, every value written as the
    repr of a Python float."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for block in blocks:
            for row in np.asarray(block, dtype=float).tolist():
                fh.write(",".join(map(repr, row)) + "\n")


def _write_1d_artifacts(out_dir, config, traj):
    grid = traj.setup.grid
    x = grid.nodes()
    blocks, lines = [], []
    for st in traj.snapshots:
        eps_n = solver1d._node_average(st.strain(grid))
        s_n = solver1d._node_average(traj.rhs.stress(st))
        blocks.append(_block(st.t, x, st.u, st.v, st.theta, eps_n, s_n))
        labels = classify_strain(eps_n, config.austenite_band)
        n_a = int(np.sum(labels == "A"))
        n_p = int(np.sum(labels == "M+"))
        n_m = int(np.sum(labels == "M-"))
        lines.append(f"t={st.t:.6g} A={n_a} M+={n_p} M-={n_m} "
                     f"eps_min={eps_n.min():.6g} eps_max={eps_n.max():.6g}")
    _write_csv(os.path.join(out_dir, "snapshots.csv"),
               "t,x,u,v,theta,strain,stress", blocks)
    _write_csv(os.path.join(out_dir, "diagnostics.csv"),
               "t,total_energy,max_abs_strain,theta_min,theta_max",
               [traj.diagnostics])

    e0 = traj.diagnostics[0][1]
    drift = max(abs(d[1] - e0) for d in traj.diagnostics) / max(abs(e0), 1e-300)
    lines.append(f"max_energy_drift_relative={drift:.6g}")
    lines.append("final_labels=" + "".join(
        {"A": "a", "M+": "+", "M-": "-"}[l] for l in labels))
    _write_summary(out_dir, lines, traj)


def _write_summary(out_dir, lines, traj):
    if traj.failed:
        lines.append(f"FAILED {traj.failure}")
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_slab_artifacts(out_dir, config, traj):
    setup = traj.setup
    x = _grid_points(setup.length, setup.nx, setup.ends)
    _write_csv(os.path.join(out_dir, "snapshots.csv"),
               "t,x,U1,U2,V1,V2,ThetaPrime",
               [_block(st.t, x, *st.fields()) for st in traj.snapshots])
    _write_csv(os.path.join(out_dir, "diagnostics.csv"),
               "t,max_abs_U1x,max_abs_U2x,theta_prime_min,theta_prime_max",
               [traj.diagnostics])
    if config.reconstruct_y:
        Y = np.array(config.reconstruct_y)
        _write_csv(os.path.join(out_dir, "reconstruction.csv"),
                   "t,x,Y,u1,u2,theta",
                   (_block(st.t, x, Y[:, None],
                           *traj.rhs.reconstruct(st, Y))
                    for st in traj.snapshots))
    lines = [f"t={d[0]:.6g} max_abs_U1x={d[1]:.6g} max_abs_U2x={d[2]:.6g} "
             f"theta_prime=[{d[3]:.6g},{d[4]:.6g}]" for d in traj.diagnostics]
    _write_summary(out_dir, lines, traj)


def run(config: SimConfig, out_dir: str) -> int:
    """Execute a run and write snapshots.csv, diagnostics.csv,
    config_resolved.txt and summary.txt into out_dir.

    Returns the process exit code: 0 on success, 2 on integration abort
    of either model (partial artifacts are written, summary carries a
    FAILED marker).  An out_dir that cannot be created or written is a
    ConfigError.
    """
    setup = config.resolve()
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config_resolved.txt"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(write_config(config))
    except OSError as exc:
        raise ConfigError(f"cannot write artifacts to {out_dir!r}: "
                          f"{exc}") from exc
    slab_model = config.model == "slab"
    code = 0
    try:
        traj = (slab_simulate if slab_model else simulate)(setup)
    except IntegrationError as err:
        traj = err.partial
        code = 2
    write = _write_slab_artifacts if slab_model else _write_1d_artifacts
    write(out_dir, config, traj)
    return code


# ---------------------------------------------------------------------------
# command line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sma",
        description="Shape-memory-alloy bar and slab dynamics simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one simulation")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESETS)
    src.add_argument("--config", metavar="PATH")
    p_run.add_argument("--out", default="out", metavar="DIR")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="applied after load, before validation")
    sub.add_parser("presets", help="list built-in presets")

    args = parser.parse_args(argv)
    if args.command == "presets":
        for name in PRESETS:
            print(name)
        return 0

    try:
        text = (write_config(preset(args.preset)) if args.preset
                else _read_file(args.config))
        code = run(_read_config_text(text, args.override), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if code == 0:
        print(f"run complete; artifacts in {args.out}")
    else:
        print(f"integration aborted; partial artifacts in {args.out}",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
