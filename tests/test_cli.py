"""Config round-trips, presets, artifact layout and CLI behaviour."""

import configparser
import io
import math
import os
import tempfile
from dataclasses import fields, replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smabar import slab, solver1d
from smabar.cli import (
    _FORCING,
    _INITIAL,
    _KINDS,
    _SCHEMA,
    _SLAB_FIELD,
    ConfigError,
    ForcingSpec,
    InitialSpec,
    MmsSpec,
    SimConfig,
    SlabFieldInit,
    SlabInitialSpec,
    _read_config_text,
    classify_strain,
    load_config,
    main,
    preset,
    run,
    write_config,
)
from smabar.constitutive import MaterialParams1D
from smabar.manufactured import ZERO_RATES
from smabar.slab import (ENDS, SlabParams, SlabRunSetup, SlabState,
                         reconstruct_fields, slab_simulate)
from smabar.solver1d import (MECH_KINDS, THERMAL_KINDS, BoundarySpec, Grid1D,
                             IntegrationError, _clamp_ends, simulate,
                             stable_dt)

MINIMAL = """\
[model]
kind = full_1d

[grid]
length = 1.0
nx = 8

[time]
dt = 0.001
t_end = 0.02
output_interval = 0.004

[initial]
theta = const
theta_value = 250.0
"""

# the slab_reconstruct benchmark config: dx = 0.1 cm, just above the
# long-wave bound pi b sqrt(c_disp/c_wave) = 0.0817 cm
SLAB = """\
[model]
kind = slab

[grid]
length = 4.0
nx = 40

[time]
dt = 0.0001
t_end = 0.24
output_interval = 0.002

[integrator]
kind = rk4

[bcs]
ends = pinned_insulated

[slab_initial]
u1 = sine
u1_amplitude = 1e-05
u1_mode = 1
u2 = sine
u2_amplitude = 0.0001
u2_mode = 2

[output]
reconstruct_y = -0.7745966692414834, 0.0, 0.7745966692414834
"""

MODELS = {"full_1d": MINIMAL, "slab": SLAB}


class TestPresets:
    def test_experiment1_values(self):
        cfg = preset("experiment1")
        assert cfg.nx == 24 and cfg.dt == 7e-4
        assert cfg.forcing.body_kind == "const"
        assert cfg.forcing.body_value == 500.0
        assert cfg.forcing.heat_amplitude == pytest.approx(375 * math.pi,
                                                           rel=1e-15)
        assert cfg.forcing.heat_rate == pytest.approx(math.pi / 6, rel=1e-15)
        assert cfg.initial.theta_value == 200.0
        assert cfg.bcs.mech == "pinned"
        assert cfg.bcs.thermal == "controlled_flux"
        assert cfg.material.tau0 == cfg.material.mu == cfg.material.nu == 0.0

    def test_experiment1_initial_profile(self):
        setup = preset("experiment1").resolve()
        x = setup.grid.nodes()
        u0 = setup.state0.u
        i6 = np.argmin(np.abs(x - 1.0 / 6.0))
        assert x[i6] == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert u0[i6] == pytest.approx(-0.11809 / 6.0, rel=1e-12)
        i3 = np.argmin(np.abs(x - 1.0 / 3.0))
        assert u0[i3] == pytest.approx(0.0, abs=1e-15)
        # four alternating variants at the start
        eps = setup.state0.strain(setup.grid)
        signs = np.sign(eps)
        flips = np.sum(signs[1:] != signs[:-1])
        assert flips == 3
        np.testing.assert_allclose(np.abs(eps), 0.11809, rtol=1e-12)

    def test_experiment2_values(self):
        cfg = preset("experiment2")
        assert cfg.nx == 16 and cfg.dt == 8e-4
        assert cfg.forcing.body_kind == "sin_cubed"
        assert cfg.forcing.body_amplitude == 7000.0
        assert cfg.forcing.heat_kind == "none"
        setup = cfg.resolve()
        np.testing.assert_array_equal(setup.state0.strain(setup.grid), 0.0)
        np.testing.assert_array_equal(setup.state0.theta, 255.0)

    def test_conservation_preset_steps(self):
        cfg = preset("conservation")
        assert int(round(cfg.t_end / cfg.dt)) == 10_000
        assert cfg.integrator == "rk4"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("experiment3")


class TestConfigIO:
    @pytest.mark.parametrize("name", ["experiment1", "experiment2",
                                      "conservation", "mms"])
    def test_round_trip_presets(self, name):
        cfg = preset(name)
        text = write_config(cfg)
        assert _read_config_text(text) == cfg

    def test_round_trip_slab(self):
        cfg = SimConfig(model="slab", nx=32, length=6.28, dt=1e-4,
                        t_end=1e-3, output_interval=5e-4,
                        reconstruct_y=(0.0, 1.0))
        assert _read_config_text(write_config(cfg)) == cfg

    def test_minimal_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL)
        cfg = load_config(str(path))
        assert cfg.nx == 8 and cfg.initial.theta_value == 250.0

    def test_empty_file_lists_required(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        with pytest.raises(ConfigError, match="required"):
            load_config(str(path))

    def test_negative_dt_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(MINIMAL.replace("dt = 0.001", "dt = -0.001"))
        with pytest.raises(ConfigError, match=r"\[time\] dt"):
            load_config(str(path))

    def test_unknown_key_named(self, tmp_path):
        # gamma_negate is gone: a negative gamma flips the u_xxxx term
        for text, key in [
                (MINIMAL.replace("nx = 8", "nx = 8\nresolution = 4"),
                 "resolution"),
                (MINIMAL + "\n[material]\ngamma_negate = true\n",
                 "gamma_negate")]:
            path = tmp_path / "bad.ini"
            path.write_text(text)
            with pytest.raises(ConfigError, match=rf"unknown keys: {key}"):
                load_config(str(path))

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(MINIMAL + "\n[solver]\nkind = rk4\n")
        with pytest.raises(ConfigError, match="solver"):
            load_config(str(path))

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[model]\nkind = full_1d\nloose text\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(str(path))

    @pytest.mark.parametrize("old, new", [
        ("kind = rk4", "kind = implicit_euler"),
        ("ends = pinned_insulated", "ends = foo"),
        ("reconstruct_y = -0.77", "reconstruct_y = -1.5, -0.77"),
        ("nx = 40", "nx = 49"),          # dx = 0.08163 cm, below the bound
        ("reconstruct_y = -0.77", "reconstruct_y = x, -0.77"),
        ("[bcs]", "[slab]\ns_theta = 1, x\n\n[bcs]"),
        ("[bcs]", "[slab]\nh_lin = 1, 2\n\n[bcs]"),
    ], ids=["implicit_integrator", "unknown_ends", "reconstruct_y_range",
            "grid_below_long_wave_bound", "reconstruct_y_text",
            "tuple_text", "tuple_length"])
    def test_slab_out_of_validity_rejected(self, old, new):
        _read_config_text(SLAB)
        with pytest.raises(ConfigError):
            _read_config_text(SLAB.replace(old, new)).validate()

    def test_slab_start_below_the_floor_rejected(self):
        """load_config and validate refuse a ThetaPrime start that resolve
        could not run from, with resolve's message."""
        message = (r"\[slab_initial\] ThetaPrime must stay finite and above "
                   r"-300 K")
        cfg = _read_config_text(SLAB)
        with pytest.raises(ConfigError, match=message):
            _read_config_text(SLAB,
                              ["slab_initial.theta_prime_value=-400"]).validate()
        start = replace(cfg.slab_initial, theta_prime=SlabFieldInit(
            "sine", -100.0, 250.0, 1))
        with pytest.raises(ConfigError, match=message):
            replace(cfg, slab_initial=start).validate()

    @pytest.mark.parametrize("model, override", [
        ("full_1d", "time.dt=nan"),
        ("full_1d", "grid.length=inf"),
        ("full_1d", "material.rho=nan"),
        ("full_1d", "bcs.beta=nan"),
        ("full_1d", "initial.u_breakpoints=0:0, 1:inf"),
        ("slab", "time.t_end=-inf"),
        ("slab", "slab.b=nan"),
        ("slab", "slab.s_theta=922, nan"),
    ])
    def test_non_finite_rejected(self, model, override):
        _read_config_text(MODELS[model])
        with pytest.raises(ConfigError, match="finite"):
            _read_config_text(MODELS[model], [override])

    def test_percent_sign_is_config_error(self):
        with pytest.raises(ConfigError, match="length"):
            _read_config_text(MINIMAL.replace("length = 1.0", "length = 1%"))

    def test_unserialisable_value_named(self):
        with pytest.raises(ConfigError,
                           match=r"\[time\] dt: cannot serialise 'fast'"):
            write_config(replace(preset("mms"), dt="fast"))

    def test_breakpoint_parse_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(MINIMAL.replace(
            "theta = const",
            "u = piecewise_linear\nu_breakpoints = 0:0, nonsense\n"
            "theta = const"))
        with pytest.raises(ConfigError, match="breakpoint"):
            load_config(str(path))


# Generated configs of either model; the other model's fields keep their
# defaults, since write_config writes only the sections of config.model.
NUM = st.floats(min_value=-1e12, max_value=1e12)
POS = st.floats(min_value=1e-3, max_value=1e3)
INT = st.integers(min_value=1, max_value=64)


def dataclass_of(cls, model, prefix, positive=(), **given):
    """Strategy for instances of cls at SimConfig attribute path prefix:
    kind fields draw from the accepted values, the others by default type."""
    def values(f):
        kinds = _KINDS[model].get(prefix + (f.name,))
        if kinds:
            return st.sampled_from(kinds)
        if isinstance(f.default, int):
            return INT
        if isinstance(f.default, tuple):
            return st.tuples(*[NUM] * len(f.default))
        return POS if f.name in positive else NUM
    return st.builds(cls, **{f.name: given.get(f.name, values(f))
                             for f in fields(cls)})


def common_fields(model):
    # output_interval > 1e-3 keeps t_end/output_interval under the 10^6
    # snapshot ceiling
    return dict(model=st.just(model), nx=st.integers(4, 512),
                dt=POS, t_end=POS, output_interval=st.floats(2e-3, 1e3),
                integrator=st.sampled_from(_KINDS[model][("integrator",)]))


def mms_regime(cfg):
    """cfg with tau0 = mu = nu = gamma = 0 when it uses an mms field, the
    only regime the manufactured solution covers."""
    if not cfg.needs_mms:
        return cfg
    return replace(cfg, material=cfg.material.with_(
        **dict.fromkeys(ZERO_RATES, 0.0)))


def _finite_slopes(breakpoints):
    x, u = np.transpose(breakpoints)
    with np.errstate(over="ignore"):
        return np.isfinite(np.diff(u) / np.diff(x)).all()


FULL_1D = st.builds(
    SimConfig, **common_fields("full_1d"), length=POS,
    # gamma of either sign: a negative one flips the u_xxxx term
    material=dataclass_of(MaterialParams1D, "full_1d", ("material",),
                          positive=[f.name for f in fields(MaterialParams1D)],
                          gamma=NUM),
    bcs=dataclass_of(BoundarySpec, "full_1d", ("bcs",),
                     positive=["beta", "fixed_value", "theta_ambient"],
                     mech=st.sampled_from(MECH_KINDS),
                     thermal=st.sampled_from(THERMAL_KINDS)),
    forcing=dataclass_of(ForcingSpec, "full_1d", ("forcing",)),
    # initial temperatures stay positive (theta_value > |theta_amplitude|,
    # and likewise for the mms theta)
    initial=dataclass_of(InitialSpec, "full_1d", ("initial",),
                         # x strictly increasing and slopes finite (so the
                         # interpolated u is), as validate demands
                         u_breakpoints=st.lists(
                             st.tuples(NUM, NUM), min_size=2, max_size=5,
                             unique_by=lambda p: p[0]).map(sorted).map(tuple)
                         .filter(_finite_slopes),
                         theta_value=st.floats(1e3, 1e12),
                         theta_amplitude=st.floats(-999.0, 999.0)),
    mms=dataclass_of(MmsSpec, "full_1d", ("mms",),
                     theta_bar=st.floats(1e3, 1e12),
                     theta_amplitude=st.floats(-999.0, 999.0)),
    austenite_band=st.floats(1e-3, 0.05), martensite_band=st.floats(0.05, 0.5)
).map(mms_regime)


@st.composite
def slab_configs(draw):
    params = draw(dataclass_of(SlabParams, "slab", ("slab_material",),
                               positive=["b", "rho", "cv", "kappa", "c_wave",
                                         "c_disp", "c_bend"]))
    nx = draw(st.integers(4, 512))
    fields_init = {f.name: dataclass_of(SlabFieldInit, "slab",
                                        ("slab_initial", f.name))
                   for f in fields(SlabInitialSpec)}
    # ThetaPrime stays above -300 K (value > |amplitude|), as validate
    # demands of the start
    fields_init["theta_prime"] = dataclass_of(
        SlabFieldInit, "slab", ("slab_initial", "theta_prime"),
        value=st.floats(1e3, 1e12), amplitude=st.floats(-999.0, 999.0))
    return draw(st.builds(
        SimConfig, **{**common_fields("slab"), "nx": st.just(nx)},
        slab_material=st.just(params),
        length=st.floats(1.5, 100.0).map(lambda r: r * nx * params.min_dx),
        ends=st.sampled_from(_KINDS["slab"][("ends",)]),
        slab_initial=st.builds(SlabInitialSpec, **fields_init),
        reconstruct_y=st.lists(st.floats(-1.0, 1.0), max_size=4).map(tuple)))


def _accepted(cfg, fraction):
    """The full_1d config cfg moved to one that resolve accepts, its kinds
    and integrator kept: nu = 0 where the drawn start makes C_v -
    nu <eps_dot> non-positive, and for RK4 a dt at fraction of the start's
    stable step, with t_end at most 10^6 such steps."""
    try:
        setup = replace(cfg, integrator="implicit_euler").resolve()
    except ConfigError as exc:
        assert "degenerate nu coupling" in str(exc)
        cfg = replace(cfg, material=cfg.material.with_(nu=0.0))
        setup = replace(cfg, integrator="implicit_euler").resolve()
    if cfg.integrator != "rk4":
        return cfg
    dt = fraction * stable_dt(setup.state0, setup.grid, setup.params)
    return replace(cfg, dt=dt, t_end=min(cfg.t_end, 1e6 * dt))


ACCEPTED_FULL_1D = st.builds(_accepted, FULL_1D, st.floats(1e-3, 1.0))


class TestConfigRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(ACCEPTED_FULL_1D, slab_configs()))
    def test_write_read_write(self, cfg):
        text = write_config(cfg.validate())
        assert _read_config_text(text) == cfg
        assert write_config(_read_config_text(text)) == text


# every (attribute path, kind) that a builder table owns
TABLE_KINDS = (
    [("full_1d", ("forcing", key), kind) for key in ("body_kind", "heat_kind")
     for kind in _FORCING]
    + [("full_1d", ("initial", key), kind)
       for key, table in _INITIAL.items() for kind in table]
    + [("slab", ("slab_initial", f.name, "kind"), kind)
       for f in fields(SlabInitialSpec) for kind in _SLAB_FIELD])

# non-zero values for the parameters of the table kinds
TABLE_VALUES = {
    "full_1d": ["integrator.kind=implicit_euler", "forcing.body_value=500",
                "forcing.body_amplitude=700", "forcing.body_rate=1.5",
                "forcing.heat_value=20", "forcing.heat_amplitude=30",
                "forcing.heat_rate=0.5",
                "initial.u_breakpoints=0:0, 0.4:0.01, 1:0",
                "initial.u_amplitude=0.01", "initial.u_mode=3",
                "initial.v_amplitude=0.1", "initial.v_mode=2",
                "initial.theta_amplitude=5", "initial.theta_mode=2"],
    "slab": [f"slab_initial.{f.name}_{name}={value}"
             for f in fields(SlabInitialSpec)
             for name, value in (("value", 0.5), ("amplitude", 1e-5),
                                 ("mode", 2))],
}


class TestKindTables:
    def test_accepted_values(self):
        slab_fields = ("u1", "u2", "v1", "v2", "theta_prime")
        assert _KINDS == {
            "full_1d": {
                ("integrator",): ("rk4", "implicit_euler",
                                  "implicit_midpoint"),
                ("forcing", "body_kind"): ("none", "const", "sin_cubed",
                                           "mms"),
                ("forcing", "heat_kind"): ("none", "const", "sin_cubed",
                                           "mms"),
                ("initial", "u_kind"): ("zero", "piecewise_linear", "sine",
                                        "mms"),
                ("initial", "v_kind"): ("zero", "sine", "mms"),
                ("initial", "theta_kind"): ("const", "cosine", "mms"),
                ("initial", "theta_dot_kind"): ("consistent", "zero"),
            },
            "slab": {
                ("integrator",): ("rk4",),
                ("ends",): ("periodic", "pinned_insulated"),
                **{("slab_initial", name, "kind"): ("uniform", "sine")
                   for name in slab_fields},
            },
        }

    @pytest.mark.parametrize("model, path, kind", TABLE_KINDS,
                             ids=[f"{p[-2] if p[-1] == 'kind' else p[-1]}="
                                  f"{k}" for _, p, k in TABLE_KINDS])
    def test_every_kind_resolves_to_finite_node_values(self, model, path,
                                                       kind):
        section, key = next((section, key) for section, key, p
                            in _SCHEMA[model] if p == path)
        overrides = [f"{section}.{key}={kind}", *TABLE_VALUES[model]]
        if kind == "mms":
            overrides += [f"material.{name}=0" for name in ZERO_RATES]
        cfg = _read_config_text(MODELS[model], overrides)
        assert reduce(getattr, path, cfg) == kind
        setup = cfg.resolve()
        if model == "slab":
            values = setup.state0.fields()
            n = setup.grid.nx + 1
        else:
            x = setup.grid.nodes()
            state, forcing = setup.state0, setup.forcing
            values = np.stack(
                [state.u, state.v, state.theta]
                + [np.broadcast_to(fn(x, 0.37), x.shape)
                   for fn in (forcing.body, forcing.heat)])
            n = x.size
        assert values.shape[1:] == (n,) and np.isfinite(values).all()


class TestClassification:
    def test_bands(self):
        eps = np.array([-0.1, -0.05, -0.01, 0.0, 0.019, 0.02, 0.1])
        labels = classify_strain(eps, 0.02)
        assert list(labels) == ["M-", "M-", "A", "A", "A", "M+", "M+"]


class TestRunArtifacts:
    def _cfg(self):
        return _read_config_text(MINIMAL)

    def test_artifact_files_and_counts(self, tmp_path):
        out = tmp_path / "out"
        code = run(self._cfg(), str(out))
        assert code == 0
        for name in ("snapshots.csv", "diagnostics.csv",
                     "config_resolved.txt", "summary.txt"):
            assert (out / name).exists()
        lines = (out / "snapshots.csv").read_text().splitlines()
        n_snap = int(np.floor(0.02 / 0.004)) + 1
        assert lines[0] == "t,x,u,v,theta,strain,stress"
        assert len(lines) == 1 + n_snap * 9
        diag = (out / "diagnostics.csv").read_text().splitlines()
        assert len(diag) == 1 + n_snap

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(self._cfg(), str(out1))
        run(self._cfg(), str(out2))
        for name in ("snapshots.csv", "diagnostics.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_summary_recomputable_from_snapshots(self, tmp_path):
        out = tmp_path / "out"
        cfg = preset("experiment1")
        # shorten drastically; physics content irrelevant here
        text = write_config(cfg)
        text = text.replace("t_end = 12.0", "t_end = 0.028")
        text = text.replace("output_interval = 0.06",
                            "output_interval = 0.007")
        cfg = _read_config_text(text)
        run(cfg, str(out))
        rows = (out / "snapshots.csv").read_text().splitlines()[1:]
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        times = np.unique(data[:, 0])
        summary = [l for l in (out / "summary.txt").read_text().splitlines()
                   if l.startswith("t=")]
        assert len(summary) == times.size
        for t, line in zip(times, summary):
            eps = data[np.isclose(data[:, 0], t), 5]
            labels = classify_strain(eps, cfg.austenite_band)
            assert f"A={int(np.sum(labels == 'A'))}" in line
            assert f"M+={int(np.sum(labels == 'M+'))}" in line
            assert f"M-={int(np.sum(labels == 'M-'))}" in line

    def test_fixed_theta_ends_hold_fixed_value(self, tmp_path):
        text = MINIMAL.replace("theta_value = 250.0", "theta_value = 300.0")
        text += ("\n[integrator]\nkind = implicit_euler\n\n"
                 "[bcs]\nthermal = fixed_theta\nfixed_value = 250.0\n")
        out = tmp_path / "out"
        assert run(_read_config_text(text), str(out)) == 0
        rows = (out / "snapshots.csv").read_text().splitlines()[1:]
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        x, theta = data[:, 1], data[:, 4]
        ends = theta[(x == 0.0) | (x == 1.0)]
        assert ends.size == 2 * 6
        np.testing.assert_array_equal(ends, 250.0)

    def test_integration_abort_exit_code(self, tmp_path):
        cfg = _read_config_text(MINIMAL, ABORTS["full_1d"])
        out = tmp_path / "out"
        code = run(cfg, str(out))
        assert code == 2
        assert "FAILED" in (out / "summary.txt").read_text()

    def test_slab_integration_abort_exit_code(self, tmp_path):
        out = tmp_path / "out"
        code = run(_read_config_text(SLAB.replace("dt = 0.0001", "dt = 0.01")),
                   str(out))
        assert code == 2
        assert "FAILED" in (out / "summary.txt").read_text()
        rows = (out / "snapshots.csv").read_text().splitlines()
        assert len(rows) >= 1 + 41          # header and the t = 0 snapshot

    def test_slab_abort_stores_only_valid_states(self, tmp_path):
        out = tmp_path / "out"
        code = run(_read_config_text(SLAB, ["time.dt=0.01"]), str(out))
        assert code == 2
        assert "FAILED" in (out / "summary.txt").read_text()
        rows = (out / "snapshots.csv").read_text().splitlines()[1:]
        assert min(float(row.split(",")[6]) for row in rows) > -300.0

    def test_slab_run_artifacts(self, tmp_path):
        cfg = SimConfig(model="slab", nx=32, length=6.28, dt=1e-4,
                        t_end=2e-3, output_interval=1e-3,
                        reconstruct_y=(0.0, 1.0))
        out = tmp_path / "slab"
        assert run(cfg, str(out)) == 0
        head = (out / "snapshots.csv").read_text().splitlines()[0]
        assert head == "t,x,U1,U2,V1,V2,ThetaPrime"
        rec = (out / "reconstruction.csv").read_text().splitlines()
        assert rec[0] == "t,x,Y,u1,u2,theta"
        assert len(rec) == 1 + 3 * 2 * 32     # snapshots * Y values * points

    @pytest.mark.parametrize("model, ends", [
        ("slab", "periodic"), ("slab", "pinned_insulated"),
        ("full_1d", None)], ids=["slab-periodic", "slab-pinned_insulated",
                                 "full_1d"])
    def test_run_builds_its_right_hand_side_once(self, tmp_path, monkeypatch,
                                                 model, ends):
        """One run, snapshots, diagnostics, stress and reconstruction
        included, steps and writes with a single right-hand side (and, for
        the slab, a single set of difference stencils).  MINIMAL's start
        (nu = tau0 = 0) needs no right-hand side of its own."""
        classes = ([slab._SlabRhs, slab._Differences] if model == "slab"
                   else [solver1d._Rhs])
        built = []
        for cls in classes:
            monkeypatch.setattr(cls, "__init__", lambda self, *a, _init=(
                cls.__init__): built.append(type(self)) or _init(self, *a))
        text = (MINIMAL if ends is None
                else SLAB.replace("pinned_insulated", ends))
        cfg = _read_config_text(text, ["time.t_end=0.004"])
        assert model == "full_1d" or cfg.reconstruct_y
        assert run(cfg, str(tmp_path)) == 0
        assert built == classes

    @pytest.mark.parametrize("model", list(MODELS))
    def test_resolved_config_reruns_identically(self, tmp_path, model):
        """config_resolved.txt, loaded and run again, writes every artifact
        byte for byte (the bar with a negative gamma, the slab with its
        reconstruction)."""
        text, overrides = {
            "full_1d": (write_config(preset("experiment2")),
                        ["time.t_end=0.04", "material.gamma=-1e-6"]),
            "slab": (SLAB, ["time.t_end=0.004"])}[model]
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(_read_config_text(text, overrides), str(first)) == 0
        resolved = load_config(str(first / "config_resolved.txt"))
        assert run(resolved, str(second)) == 0
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(second))
        assert len(names) == {"full_1d": 4, "slab": 5}[model]
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("ends", ENDS)
    def test_reconstruction_rows(self, tmp_path, ends):
        """reconstruction.csv holds, in (t, Y, x) order, reconstruct_fields
        at each scalar Y of each snapshot, to the last bit."""
        cfg = _read_config_text(
            SLAB.replace("pinned_insulated", ends),
            ["time.t_end=0.004", "output.reconstruct_y=0.25, -1.0, 0.5"])
        assert run(cfg, str(tmp_path)) == 0
        setup = cfg.resolve()
        n = setup.state0.U1.size
        x = np.arange(n) * setup.dx

        def read(name):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            return np.array([[float(v) for v in r.split(",")] for r in rows])

        expected = []
        for snap in read("snapshots.csv").reshape(-1, n, 7):
            state = SlabState(snap[0, 0], *snap[:, 2:].T.copy())
            for y in cfg.reconstruct_y:
                fields = reconstruct_fields(state, setup.params, y, setup.dx,
                                            ends)
                expected.append(np.column_stack(
                    [snap[:, 0], x, np.full(n, y), *fields]))
        assert len(expected) == 3 * 3
        np.testing.assert_array_equal(read("reconstruction.csv"),
                                      np.concatenate(expected))


# the bar: a heat sink that drives theta through zero at t = 0.008 ms
# (an RK4 dt above the stable step is refused before the run starts);
# the slab: a dt far above its RK4 limit
ABORTS = {"full_1d": ["forcing.heat=const", "forcing.heat_value=-1e6"],
          "slab": ["time.dt=0.01"]}


# a dt more than 10^9 times t_end, with two output intervals to t_end (an
# implicit bar step: RK4 is refused above the stable step)
FAR_STEP = {"full_1d": ["integrator.kind=implicit_euler", "time.dt=1e10",
                        "time.t_end=1", "time.output_interval=0.5"],
            "slab": ["time.dt=1e6", "time.t_end=0.0001",
                     "time.output_interval=0.00005"]}


def _setup(model, overrides):
    return _read_config_text(MODELS[model], overrides).resolve()


def _simulate(setup):
    slab = isinstance(setup, SlabRunSetup)
    return (slab_simulate if slab else simulate)(setup)


def _check_state(setup, state):
    """The after-step check of the model that produced state."""
    if isinstance(setup, SlabRunSetup):
        assert np.all(np.isfinite(state.fields()))
        state.validate()
    else:
        for values in (state.u, state.v, state.theta):
            assert np.all(np.isfinite(values))
        state.validate(setup.grid, setup.params)


@pytest.mark.parametrize("model", list(MODELS))
class TestDriverContract:
    """Step count, snapshot cadence and abort contract, the same for both
    models since they share one time-stepping driver."""

    def test_last_step_shortened_onto_t_end(self, model):
        traj = _simulate(_setup(model, ["time.dt=0.00015", "time.t_end=0.001",
                                        "time.output_interval=0.00025"]))
        assert len(traj.snapshots) == int(np.floor(0.001 / 0.00025)) + 1
        assert traj.times()[-1] == 0.001
        # each snapshot is the first step time reaching its multiple
        np.testing.assert_allclose(traj.times(),
                                   [0.0, 3e-4, 6e-4, 7.5e-4, 1e-3], rtol=1e-12)
        assert len(traj.diagnostics) == len(traj.snapshots)

    def test_output_interval_below_dt_repeats_states(self, model):
        traj = _simulate(_setup(model, ["time.dt=0.0001", "time.t_end=0.0002",
                                        "time.output_interval=0.00004"]))
        np.testing.assert_allclose(
            traj.times(), [0.0, 1e-4, 1e-4, 2e-4, 2e-4, 2e-4], rtol=1e-12)
        assert traj.diagnostics[1] == traj.diagnostics[2]
        assert traj.diagnostics[3] == traj.diagnostics[5]

    def test_abort_attaches_valid_partial(self, model):
        setup = _setup(model, ABORTS[model])
        with pytest.raises(IntegrationError) as err:
            _simulate(setup)
        partial = err.value.partial
        assert partial.failed and partial.failure == str(err.value)
        # the writers read the run's right-hand side off the trajectory
        assert type(partial.rhs) is (slab._SlabRhs if model == "slab"
                                     else solver1d._Rhs)
        assert partial.snapshots
        assert len(partial.diagnostics) == len(partial.snapshots)
        # the rejected step is not stored
        assert partial.times()[-1] < err.value.time
        for state in partial.snapshots:
            _check_state(setup, state)

    def test_start_state_must_be_at_t_zero(self, model):
        """Stepping and forcing start at t = 0, so a start state that claims
        another time is refused rather than stored as snapshot 0."""
        setup = _setup(model, [])
        setup.state0.t = 5.0
        with pytest.raises(ValueError, match="state0.t is 5.0"):
            _simulate(setup)

    def test_step_far_above_t_end_is_one_step(self, model):
        """A dt more than 10^9 times t_end still takes one step, onto
        t_end, and stores every snapshot the cadence promises."""
        traj = _simulate(_setup(model, FAR_STEP[model]))
        t_end = traj.setup.t_end
        assert traj.setup.dt > 1e9 * t_end
        assert traj.times().tolist() == [0.0, t_end, t_end]
        assert len(traj.diagnostics) == 3


@pytest.mark.parametrize("model", list(MODELS))
class TestSetupValidation:
    """RunSetup and SlabRunSetup refuse run times and lengths that are not
    positive and finite, which the driver could not step through."""

    @pytest.mark.parametrize("name, value", [
        ("dt", np.nan), ("output_interval", np.nan), ("t_end", np.inf)])
    def test_times(self, model, name, value):
        setup = _setup(model, [])
        with pytest.raises(ValueError, match=name):
            replace(setup, **{name: value})

    @pytest.mark.parametrize("length", [-1.0, np.nan])
    def test_length(self, model, length):
        setup = _setup(model, [])
        with pytest.raises(ValueError, match="length"):
            replace(setup, grid=Grid1D(length, setup.grid.nx))


def _source(run, tmp):
    """sma run arguments for a preset name or, for "slab", the SLAB config
    written into directory tmp."""
    if run != "slab":
        return ["--preset", run]
    path = os.path.join(tmp, "slab.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SLAB)
    return ["--config", path]


# One override of a shipped run (a preset or the SLAB config) that takes it
# outside its model's validity, and what the config error says
OUTSIDE_VALIDITY = [
    ("mms", "material.mu=0.1", "tau0 = mu = nu = gamma = 0"),
    ("mms", "material.gamma=1e-30", "gamma = 1e-30"),
    ("conservation", "time.output_interval=1e-30", "1000000 snapshots"),
    ("slab", "time.output_interval=1e-30", "1000000 snapshots"),
    ("conservation", "time.output_interval=5e-324", "1000000 snapshots"),
    ("experiment2", "material.tau0=1e-101", "tau0 = 1e-101"),
    ("experiment2", "material.tau0=5e-324", "at least 1e-100 ms"),
    ("conservation", "material.beta_tilde=-0.004",
     "[material] conductivity k0 (1 + beta_tilde theta) falls to 0 at a "
     "node of the initial state"),
    ("experiment2", "material.beta_tilde=-0.004",
     "conductivity k0 (1 + beta_tilde theta) falls to -0.00038"),
    ("slab", "slab_initial.theta_prime_value=-400",
     "[slab_initial] ThetaPrime must stay finite and above -300 K"),
    ("conservation", "initial.u_breakpoints=1:0, 0.5:0.005, 0:0",
     "[initial] u_breakpoints x must strictly increase, got 1.0, 0.5, "
     "0.0"),
    ("conservation", "initial.u_breakpoints=0:0, 0.5:0.005, 0.5:0, 1:0",
     "[initial] u_breakpoints x must strictly increase"),
    ("conservation", "time.dt=5e-324",
     "[time] t_end/dt must be a finite step count"),
    ("slab", "time.dt=1e-310",
     "[time] t_end/dt must be a finite step count"),
    ("slab", "slab.kappa=-0.019",
     "[slab] kappa and c_bend must be non-negative"),
    ("slab", "slab.c_bend=-991000",
     "[slab] kappa and c_bend must be non-negative"),
    ("conservation", "time.dt=1e-300",
     "[time] t_end/dt asks for more than 1000000000 steps"),
    ("slab", "time.dt=1e-300",
     "[time] t_end/dt asks for more than 1000000000 steps"),
    ("conservation", "model.kind=bar",
     "[model] kind must be one of full_1d, slab"),
    ("conservation", "phases.austenite_band=0",
     "[phases] bands must satisfy 0 < austenite_band <= martensite_band"),
    ("conservation", "initial.u_breakpoints=0:0",
     "[initial] u_breakpoints needs at least two x:value pairs"),
]
OUTSIDE_VALIDITY_IDS = [
    "mms_mu", "mms_gamma", "bar_snapshots", "slab_snapshots",
    "snapshot_ratio_overflow",
    "tau0_below_floor", "tau0_subnormal", "conductivity_zero",
    "conductivity_negative", "slab_theta_prime",
    "breakpoints_descending", "breakpoints_repeated",
    "bar_step_count_overflow", "slab_step_count_overflow",
    "slab_kappa_negative", "slab_c_bend_negative",
    "bar_step_ceiling", "slab_step_ceiling", "unknown_model_kind",
    "phase_bands", "single_breakpoint"]

# a start where C_v - nu <eps_dot> is not positive, on experiment2
NU_DEGENERATE = ["initial.v=sine", "initial.v_amplitude=5", "material.nu=50"]

# the one message for a bar start whose strain overflows
OVERFLOWING_STRAIN = (
    "config error: [initial] the strain diff(u)/dx of the state gives a "
    "stress, tangent modulus or stored energy psi3 that is not finite at "
    "every midpoint")


def _overridden_ini(run, overrides):
    """INI text of run (a preset name or "slab") with each section.key=value
    override written in, as sma run applies it."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(SLAB if run == "slab" else write_config(preset(run)))
    for item in overrides:
        key, value = item.split("=", 1)
        section, option = key.split(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, option, value)
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


class TestMain:
    def test_rk4_dt_above_stable_step_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--preset", "conservation", "--out", str(out),
                     "--override", "time.dt=0.002"]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "RK4 stable step" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("name", ["conservation", "mms"])
    def test_rk4_dt_bound_is_the_initial_stable_step(self, name):
        cfg = preset(name)
        setup = cfg.resolve()
        bound = stable_dt(_clamp_ends(setup.state0.copy(), setup.bcs),
                          setup.grid, setup.params)
        assert cfg.dt < bound
        replace(cfg, dt=bound).resolve()
        with pytest.raises(ConfigError, match="RK4 stable step"):
            replace(cfg, dt=bound * (1 + 1e-9)).resolve()
        # implicit integrators take any dt
        replace(cfg, dt=10 * bound, integrator="implicit_euler").resolve()

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "experiment1" in out and "mms" in out

    def test_run_with_overrides(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["run", "--preset", "conservation", "--out", str(out),
                     "--override", "time.t_end=0.01",
                     "--override", "time.output_interval=0.005"])
        assert code == 0
        lines = (out / "snapshots.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 49

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_empty_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "e.ini"
        p.write_text("")
        assert main(["run", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 1

    def test_unparsable_config_with_override_exit_code(self, tmp_path, capsys):
        p = tmp_path / "broken.ini"
        p.write_text("[model]\nkind = full_1d\nloose text\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o"),
                     "--override", "time.dt=1"]) == 1

    @pytest.mark.parametrize("overrides", [
        ["initial.theta_value=-5.0"],
        ["initial.theta_value=0"],
        ["initial.theta=cosine", "initial.theta_amplitude=-250.0"],
        ["initial.theta=mms", "mms.theta_bar=3.0"],
        ["bcs.thermal=fixed_theta", "bcs.fixed_value=0"],
    ], ids=["const_negative", "const_zero", "cosine_dips_to_zero",
            "mms_dips_below_zero", "fixed_theta_zero"])
    def test_non_positive_temperature_is_config_error(self, tmp_path, capsys,
                                                      overrides):
        p = tmp_path / "cold.ini"
        p.write_text(MINIMAL)
        argv = ["run", "--config", str(p), "--out", str(tmp_path / "o")]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("overrides, theta0", [
        (["initial.theta=cosine", "initial.theta_mode=0",
          "initial.theta_value=10", "initial.theta_amplitude=50"],
         np.full(9, 60.0)),
        (["initial.theta=cosine", "initial.theta_value=100",
          "initial.theta_amplitude=100", "bcs.thermal=fixed_theta",
          "bcs.fixed_value=300", "material.tau0=0.01"],
         np.r_[300.0, 100.0 + 100.0 * np.cos(np.pi * np.arange(1, 8) / 8),
               300.0]),
    ], ids=["cosine_mode_zero", "fixed_theta_ends_hold_the_dip"])
    def test_positive_initial_temperature_runs(self, tmp_path, capsys,
                                               overrides, theta0):
        """Only the nodes' initial temperatures count: a mode-0 cosine is
        60 K everywhere although theta_value - |theta_amplitude| < 0, and a
        cosine that falls to 0 K only at fixed_theta ends starts at
        fixed_value there (tau0 > 0 derives theta_dot from that state)."""
        p = tmp_path / "warm.ini"
        p.write_text(MINIMAL)
        argv = ["run", "--config", str(p), "--out", str(tmp_path / "o")]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 0, capsys.readouterr().err
        theta = np.loadtxt(tmp_path / "o" / "snapshots.csv", delimiter=",",
                           skiprows=1, max_rows=9, usecols=4)
        np.testing.assert_allclose(theta, theta0, rtol=1e-15)

    def test_bad_override_exit_code(self, tmp_path, capsys):
        assert main(["run", "--preset", "conservation",
                     "--out", str(tmp_path / "o"),
                     "--override", "nonsense"]) == 1

    @pytest.mark.parametrize("under", [False, True],
                             ids=["existing_file", "below_a_file"])
    def test_unusable_out_is_config_error(self, tmp_path, capsys, under):
        path = tmp_path / "file"
        path.write_text("")
        out = str(path / "o" if under else path)
        assert main(["run", "--preset", "mms", "--out", out,
                     "--override", "time.t_end=0.001"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write artifacts to "
                              f"{out!r}: ")
        assert "Traceback" not in err and path.read_text() == ""

    @pytest.mark.parametrize("run, override, message", OUTSIDE_VALIDITY,
                             ids=OUTSIDE_VALIDITY_IDS)
    def test_outside_validity_is_config_error(self, tmp_path, capsys, run,
                                              override, message):
        source = _source(run, str(tmp_path))
        out = tmp_path / "o"
        assert main(["run", *source, "--out", str(out),
                     "--override", override]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and message in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("run, overrides", [
        *((run, [override]) for run, override, _ in OUTSIDE_VALIDITY),
        ("conservation", ["time.dt=0.002"]),
        ("experiment2", NU_DEGENERATE + ["material.tau0=0.01"]),
        ("experiment2", NU_DEGENERATE + ["material.tau0=0.01",
                                         "initial.theta_dot=zero"]),
    ], ids=OUTSIDE_VALIDITY_IDS + ["rk4_stable_step",
                                   "nu_degenerate_theta_dot_consistent",
                                   "nu_degenerate_theta_dot_zero"])
    def test_load_config_refuses_what_sma_run_refuses(self, tmp_path, capsys,
                                                      run, overrides):
        """load_config makes sma run's one check: the overridden config,
        written to an INI, is refused with the message sma run prints."""
        argv = ["run", *_source(run, str(tmp_path)),
                "--out", str(tmp_path / "o")]
        assert main(argv + [a for o in overrides
                            for a in ("--override", o)]) == 1
        printed = capsys.readouterr().err
        path = tmp_path / "overridden.ini"
        path.write_text(_overridden_ini(run, overrides))
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert printed == f"config error: {exc.value}\n"

    @pytest.mark.parametrize("run, overrides, message", [
        ("slab", ["slab_initial.u1=sine", "slab_initial.u1_value=1.7e308",
                  "slab_initial.u1_amplitude=1e308"],
         "config error: [slab_initial] U1 must be finite"),
        ("conservation", ["initial.theta=cosine",
                          "initial.theta_value=1.7e308",
                          "initial.theta_amplitude=1e308"],
         "config error: [initial] theta = cosine is not finite at every "
         "node"),
        ("conservation", ["initial.u=sine", "initial.u_amplitude=1.7e308"],
         OVERFLOWING_STRAIN),
        *((run, ["initial.u=sine", f"initial.u_amplitude={amplitude}",
                 "time.t_end=0.001"], OVERFLOWING_STRAIN)
          for run, amplitude in [("conservation", "1e307"),
                                 ("experiment1", "1e307"),
                                 ("experiment1", "1e62"),
                                 ("conservation", "1e62"),
                                 ("experiment1", "1e50")]),
        ("conservation", ["material.nu=1", "initial.u=sine",
                          "initial.u_amplitude=1e307", "time.t_end=0.001"],
         OVERFLOWING_STRAIN),
        ("conservation", ["material.k3=1e308", "initial.u=sine",
                          "initial.u_amplitude=0.3", "time.t_end=0.001"],
         OVERFLOWING_STRAIN),
    ], ids=["slab", "bar", "bar_strain", "bar_modulus_rk4",
            "bar_modulus_implicit", "bar_stress_implicit", "bar_stress_rk4",
            "bar_energy", "bar_strain_before_theta_t", "bar_k3_modulus"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_start_is_config_error(self, tmp_path, capsys, run,
                                              overrides, message):
        """Finite parameters whose start field overflows, or whose strain
        overflows its stress, tangent modulus or stored energy, are refused
        by name before anything is written, not stored as snapshot 0,
        reported as a [time] error or a conductivity of nan, and without a
        RuntimeWarning: a strain of 3e62 is finite, but its fifth power in
        the stress is not, and a strain of 3e50 overflows only psi3.  The
        strain is refused before the theta_t of a nu != 0 start evaluates
        its stress."""
        out = tmp_path / "o"
        argv = ["run", *_source(run, str(tmp_path)), "--out", str(out)]
        assert main(argv + [a for o in overrides
                            for a in ("--override", o)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and not out.exists()

    def test_missing_required_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "no_dt.ini"
        path.write_text(MINIMAL.replace("dt = 0.001\n", ""))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error: missing required keys: [time] dt" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("run, overrides", [
        ("experiment1", ["time.t_end=0.0014", "time.output_interval=0.0007"]),
        ("mms", ["time.t_end=0.0005"]),
        ("slab", ["time.t_end=0.0002"]),
    ])
    def test_run_checks_its_config_once(self, tmp_path, capsys, monkeypatch,
                                        run, overrides):
        """sma run reads a config without checking it and checks it and
        builds the run's setup once, in resolve."""
        calls = []
        resolve = SimConfig.resolve

        def counting(self):
            calls.append(self.model)
            return resolve(self)

        monkeypatch.setattr(SimConfig, "resolve", counting)
        argv = ["run", *_source(run, str(tmp_path)),
                "--out", str(tmp_path / "o")]
        assert main(argv + [a for o in overrides
                            for a in ("--override", o)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("run, overrides", [
        ("experiment2", ["time.t_end=0.0016"]),
        ("mms", ["time.t_end=0.0005"]),
        ("slab", ["time.t_end=0.0002"]),
    ])
    def test_run_checks_its_times_and_grid_once(self, tmp_path, monkeypatch,
                                                run, overrides):
        """The time rule (_check_times, run by the setup as it is built)
        and the grid rule (Grid1D) each run once per sma run."""
        calls = []
        check_times = solver1d._check_times
        grid_check = Grid1D.__post_init__

        def counting_times(setup):
            calls.append("times")
            return check_times(setup)

        def counting_grid(self):
            calls.append("grid")
            return grid_check(self)

        for module in (solver1d, slab):
            monkeypatch.setattr(module, "_check_times", counting_times)
        monkeypatch.setattr(Grid1D, "__post_init__", counting_grid)
        argv = ["run", *_source(run, str(tmp_path)),
                "--out", str(tmp_path / "o")]
        assert main(argv + [a for o in overrides
                            for a in ("--override", o)]) == 0
        assert sorted(calls) == ["grid", "times"]

    @pytest.mark.parametrize("run, broken", [
        ("conservation", ["phases.austenite_band=0"]),
        ("slab", ["grid.nx=100"]),
        ("slab", ["slab_initial.theta_prime_value=-400"]),
        ("experiment2", NU_DEGENERATE + ["material.tau0=0.01"]),
    ], ids=["conservation", "slab", "slab_start", "nu_degenerate_start"])
    def test_time_error_comes_after_the_other_config_checks(self, tmp_path,
                                                            capsys, run,
                                                            broken):
        """Each setup checks its own times as it is built, after its start
        state, so a config error found before that is the one reported, as
        it is without the broken time; alone, a broken time is a [time]
        error."""
        argv = ["run", *_source(run, str(tmp_path)),
                "--out", str(tmp_path / "o")]

        def error(overrides):
            assert main(argv + [a for o in overrides
                                for a in ("--override", o)]) == 1
            return capsys.readouterr().err

        both = error(broken + ["time.dt=-1"])
        assert "[time]" not in both and both == error(broken)
        assert error(["time.dt=-1"]) == ("config error: [time] dt must be "
                                         "positive\n")

    @pytest.mark.parametrize("ambient", ["-50", "0"])
    def test_non_positive_ambient_is_config_error(self, tmp_path, capsys,
                                                  ambient):
        """A controlled-flux end with beta > 0 relaxes toward
        theta_ambient, so a non-positive one is refused when read (it used
        to end as an implicit-step abort)."""
        out = tmp_path / "o"
        assert main(["run", "--preset", "experiment2", "--out", str(out),
                     "--override", "bcs.beta=5",
                     "--override", f"bcs.theta_ambient={ambient}",
                     "--override", "time.t_end=2"]) == 1
        err = capsys.readouterr().err
        assert "config error: [bcs] theta_ambient must be positive" in err
        assert "Traceback" not in err and not out.exists()

    def test_step_count_overflow_of_a_long_run_is_config_error(self,
                                                                tmp_path,
                                                                capsys):
        """A t_end/dt that overflows is refused with the snapshot count
        itself in range."""
        out = tmp_path / "o"
        assert main(["run", "--preset", "experiment2", "--out", str(out),
                     "--override", "time.t_end=1e308",
                     "--override", "time.output_interval=1e307"]) == 1
        err = capsys.readouterr().err
        assert ("config error: [time] t_end/dt must be a finite step count"
                in err)
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("rate", [
        (), ("material.tau0=0.01",),
        ("material.tau0=0.01", "initial.theta_dot=zero"),
    ], ids=["tau0_zero", "theta_dot_consistent", "theta_dot_zero"])
    def test_nu_degenerate_start_is_config_error(self, tmp_path, capsys,
                                                 rate):
        """The heat equation at t = 0 gives theta_t (the stress's nu term,
        the consistent theta_dot) only where C_v - nu <eps_dot> > 0; a start
        that fails this is refused, whatever tau0 and theta_dot are."""
        out = tmp_path / "o"
        overrides = NU_DEGENERATE + list(rate)
        assert main(["run", "--preset", "experiment2", "--out", str(out)]
                    + [a for o in overrides for a in ("--override", o)]) == 1
        err = capsys.readouterr().err
        assert ("config error: [initial] the initial state has degenerate "
                "nu coupling (C_v - nu eps_dot <= 0)") in err
        assert "Traceback" not in err and not out.exists()

    def test_nu_degenerate_step_aborts_with_partial_artifacts(self, tmp_path,
                                                              capsys):
        """A step that ends where C_v - nu <eps_dot> <= 0 is an integration
        abort: every stored snapshot is one the stress law evaluates."""
        out = tmp_path / "o"
        assert main(["run", "--preset", "experiment2", "--out", str(out),
                     "--override", "integrator.kind=implicit_midpoint",
                     "--override", "material.nu=3",
                     "--override", "time.output_interval=0.0008"]) == 2
        assert "Traceback" not in capsys.readouterr().err
        summary = (out / "summary.txt").read_text().splitlines()
        assert summary[-1] == ("FAILED integration aborted at t=0.2272 ms: "
                               "degenerate nu coupling (C_v - nu eps_dot <= 0)")
        rows = np.loadtxt(out / "snapshots.csv", delimiter=",", skiprows=1)
        v = rows[:, 3].reshape(-1, 17)
        p = preset("experiment2").material
        cv_n = p.cv - 3.0 * solver1d._node_average(np.diff(v) * 16.0)
        assert len(v) == 284 and (cv_n > 0).all()

    def test_snapshot_ceiling_is_inclusive(self):
        cfg = replace(preset("conservation"), t_end=1.0)
        replace(cfg, output_interval=1.0 / 999_999).validate()   # 10^6
        with pytest.raises(ConfigError, match="snapshots"):
            replace(cfg, output_interval=1e-6).validate()        # 10^6 + 1

    @pytest.mark.parametrize("t_end, count", [
        (999_999.0, 10**6), (1e6 - 1e-6, 10**6),
        (np.nextafter(1e6, 0.0), 10**6 + 1), (1e6, 10**6 + 1)],
        ids=["1e6-1", "below-1e6", "next-below-1e6", "1e6"])
    def test_snapshot_ceiling_follows_the_snapshot_count(self, t_end, count):
        """solver1d._snapshot_count returns the stored snapshot count up to
        10^6 and refuses a larger one, and validate rejects exactly those
        runs (the 1e-9 round-off allowance takes the ratio one float below
        10^6 as 10^6).  dt = 1 keeps the step count below its own 10^9
        ceiling, on an implicit integrator: RK4 refuses a dt above its
        stable step."""
        cfg = replace(preset("conservation"), t_end=t_end, dt=1.0,
                      output_interval=1.0, integrator="implicit_euler")
        if count > 10**6:
            with pytest.raises(ValueError, match="than 1000000 snapshots"):
                solver1d._snapshot_count(t_end, 1.0)
            with pytest.raises(ConfigError, match="than 1000000 snapshots"):
                cfg.validate()
        else:
            assert solver1d._snapshot_count(t_end, 1.0) == count
            cfg.validate()


def _experiment2_snapshots(tmp, tau0):
    """Exit code and snapshot columns (u, v, theta) of experiment2 to
    0.004 ms, one snapshot per step, with the given tau0."""
    out = os.path.join(tmp, f"o{tau0!r}")
    code = main(["run", "--preset", "experiment2", "--out", out,
                 "--override", "time.t_end=0.004",
                 "--override", "time.output_interval=0.0008",
                 "--override", f"material.tau0={tau0!r}"])
    with open(os.path.join(out, "snapshots.csv"), encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    assert rows[0].split(",")[2:5] == ["u", "v", "theta"]
    return code, np.array([row.split(",")[2:5] for row in rows[1:]], float)


class TestSmallRelaxationTime:
    """Every tau0 the config accepts runs the implicit solver.  Below dt,
    the theta_dot rows of the Newton system carry a round-off floor of order
    dt/tau0; their weighting by tau0/dt keeps it out of the iteration."""

    @pytest.fixture(scope="class")
    def fourier(self, tmp_path_factory):
        code, cols = _experiment2_snapshots(str(tmp_path_factory.mktemp("f")),
                                            0.0)
        assert code == 0 and len(cols) == 6 * 17
        return cols

    @settings(max_examples=60, deadline=None)
    @given(tau0=st.one_of(st.just(0.0), st.floats(-100.0, -6.0).map(
        lambda e: min(max(10.0 ** e, 1e-100), 1e-6))))
    @example(tau0=1e-100)
    @example(tau0=1e-30)
    @example(tau0=1e-18)
    @example(tau0=1e-6)
    def test_experiment2_runs_and_matches_the_fourier_limit(self, fourier,
                                                            tau0):
        with tempfile.TemporaryDirectory() as tmp:
            code, cols = _experiment2_snapshots(tmp, tau0)
        assert code == 0
        assert cols.shape == fourier.shape
        rel = np.abs(cols - fourier).max(0) / np.abs(fourier).max(0)
        assert (rel <= 1e-3).all()


# The exit-code contract under one out-of-range override: a shortened run of
# each model (t_end, dt and the model kind stay as they are, so every run is
# short and every key belongs to the run's schema) ends in 0, 1 or 2.
SHORT_RUNS = {"conservation": "time.t_end=0.002",
              "experiment2": "time.t_end=0.004",
              "mms": "time.t_end=0.001",
              "slab": "time.t_end=0.01"}
HELD_KEYS = {("time", "t_end"), ("time", "dt"), ("model", "kind")}
ODD_VALUES = ("0", "-1", "nan", "inf", "1e30", "1e-30", "text")


@st.composite
def one_override(draw):
    run = draw(st.sampled_from(sorted(SHORT_RUNS)))
    keys = [f"{section}.{key}"
            for section, key, _ in _SCHEMA["slab" if run == "slab" else "full_1d"]
            if (section, key) not in HELD_KEYS]
    return run, f"{draw(st.sampled_from(keys))}={draw(st.sampled_from(ODD_VALUES))}"


class TestExitCodeContract:
    # generated cases write into a fresh directory; out_is_file=True makes
    # --out an existing file
    @settings(max_examples=100, deadline=None)
    @given(case=one_override(), out_is_file=st.just(False))
    @example(case=("mms", "material.nu=-1"), out_is_file=False)
    @example(case=("slab", "time.output_interval=1e-30"), out_is_file=False)
    @example(case=("conservation", "material.beta_tilde=-0.004"),
             out_is_file=False)
    @example(case=("slab", "slab_initial.theta_prime_value=-400"),
             out_is_file=False)
    @example(case=("conservation",
                   "initial.u_breakpoints=1:0, 0.5:0.005, 0:0"),
             out_is_file=False)
    @example(case=("mms", "time.output_interval=0.0005"), out_is_file=True)
    @example(case=("conservation", "time.dt=5e-324"), out_is_file=False)
    @example(case=("experiment2", "time.dt=5e-324"), out_is_file=False)
    @example(case=("slab", "time.dt=5e-324"), out_is_file=False)
    @example(case=("conservation", "time.dt=1e-310"), out_is_file=False)
    @example(case=("slab", "time.dt=1e-310"), out_is_file=False)
    @example(case=("slab", "slab.kappa=-0.019"), out_is_file=False)
    @example(case=("slab", "slab.c_bend=-991000"), out_is_file=False)
    def test_main_returns_an_exit_code(self, case, out_is_file):
        run, override = case
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "o")
            if out_is_file:
                open(out, "w", encoding="utf-8").close()
            with np.errstate(all="ignore"):
                code = main(["run", *_source(run, tmp), "--out", out,
                             "--override", SHORT_RUNS[run],
                             "--override", override])
        assert code in (0, 1, 2)
