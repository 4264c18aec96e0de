#!/usr/bin/env python3
"""smabar benchmark: `sma run` workloads timed end to end and layer by layer.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; smabar is imported from its src/.
Each operation is one `sma run` in a fresh interpreter (bench/child.py),
one at a time, followed by checks on its artifacts (bench/checks.py).  A
run repeats whole rounds of the workload's operations until they have
spent --seconds inside smabar.cli.main and reports medians over rounds.
All inputs are fixed configs; --seed is accepted and recorded but selects
nothing.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
README.md).  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.  Exit code 0 when every check passed, 1 when a
check failed, 2 when the checkout has no smabar sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"

SETUP_SAMPLES = 3       # least set-up samples per untraced run
PROBES = 3              # import / MMS-derivation samples per traced run
CHILD_TIMEOUT = 150.0   # seconds; one run must end within 180


@dataclass(frozen=True)
class Op:
    name: str
    args: tuple          # `sma` arguments, --out excluded
    checks: tuple        # names in CHECKS


CHECKS = {
    "cadence": checks.check_cadence,
    "strain_stress": checks.check_strain_stress,
    "energy": checks.check_energy,
    "energy_drift": lambda d: checks.check_energy(d, max_drift=1e-4),
    "phase_story": checks.check_phase_story,
    "dispersion": checks.check_dispersion,
    "reconstruction": checks.check_reconstruction,
}

BAR = ("cadence", "strain_stress", "energy")
MMS32 = Op("mms32", ("--preset", "mms"), BAR)
SLAB = Op("slab", ("--config", str(HERE / "slab_reconstruct.ini")),
          ("cadence", "dispersion", "reconstruction"))
WORKLOADS = {
    "bar_thermal_cycle": (
        Op("experiment1", ("--preset", "experiment1"), BAR + ("phase_story",)),),
    "bar_explicit_verify": (
        Op("conservation", ("--preset", "conservation"),
           ("cadence", "strain_stress", "energy_drift")),
        MMS32,
        Op("mms64", ("--preset", "mms", "--override", "grid.nx=64",
                     "--override", "time.dt=0.000125"), BAR),
    ),
    "slab_reconstruct": (SLAB,),
}
# pairs of operations whose outputs are checked together
PAIR_CHECKS = {("mms32", "mms64"): checks.check_mms_order}


@dataclass
class OpResult:
    op: Op
    failed: bool
    out_dir: str
    report: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    node_steps: int = 0


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def spawn(mode: str, args=()) -> tuple[int, dict | None, str]:
    """Start child.py in a fresh interpreter, wait for it, parse its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), repr(time.monotonic()), mode, *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    return proc.returncode, report, proc.stderr


def sma_args(op: Op, out_dir: str) -> list[str]:
    return ["run", *op.args, "--out", out_dir]


def run_op(op: Op, mode: str, round_dir: Path, digests: dict) -> OpResult:
    out_dir = str(round_dir / op.name)
    code, report, stderr = spawn(mode, sma_args(op, out_dir))
    if code != 0 or report is None or report.get("code") != 0:
        log(f"  {op.name}: FAILED (exit {code})\n{stderr[-2000:]}")
        return OpResult(op, True, out_dir, report or {})
    res = OpResult(op, False, out_dir, report)
    for name in op.checks:
        try:
            res.errors += CHECKS[name](out_dir)
        except Exception:       # a check that crashes rejects the artifact
            res.errors.append(f"{name}: {traceback.format_exc(limit=3)}")
    digest = checks.digest(out_dir)
    if digests.setdefault(op.name, digest) != digest:
        res.errors.append(f"CSVs differ from the first {op.name} run of "
                          "this benchmark run")
    cp = checks.read_config(out_dir)
    res.node_steps = checks.n_nodes(cp) * checks.n_steps(cp)
    return res


def run_round(ops, mode: str, round_dir: Path, digests: dict) -> list[OpResult]:
    results = [run_op(op, mode, round_dir, digests) for op in ops]
    done = {r.op.name: r for r in results if not r.failed}
    for (a, b), check in PAIR_CHECKS.items():
        if a in done and b in done:
            done[b].errors += check(done[a].out_dir, done[b].out_dir)
    for r in results:
        for e in r.errors:
            log(f"  {r.op.name}: CHECK FAILED {e}")
    return results


def measure(ops, mode: str, seconds: float, run_dir: Path, digests: dict):
    """Whole rounds of ops until their time inside smabar.cli.main adds up
    to `seconds` (at least one round; at most 3 x `seconds` of wall time,
    should operations end early)."""
    rounds = []
    measured = 0.0
    deadline = time.monotonic() + 3.0 * seconds
    while not rounds or (measured < seconds and time.monotonic() < deadline):
        k = len(rounds)
        if k:
            shutil.rmtree(run_dir / f"round{k - 1}")    # keep only the last
        results = run_round(ops, mode, run_dir / f"round{k}", digests)
        rounds.append(results)
        measured += sum(r.report.get("main_s", 0.0) for r in results)
        log(f"  round {k}: " + ", ".join(
            f"{r.op.name} {r.report.get('main_s', float('nan')):.3f}s"
            for r in results))
    return rounds


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ops, seconds: float, run_dir: Path, digests: dict):
    spawn("setup", sma_args(ops[0], str(run_dir / "warmup")))   # fills caches
    rounds = measure(ops, "run", seconds, run_dir, digests)
    setups = [sum(r.report.get("setup_s", 0.0) for r in rs) for rs in rounds]
    while len(setups) < SETUP_SAMPLES:      # runs of few rounds set up again
        total = 0.0
        for op in ops:
            code, report, stderr = spawn("setup", sma_args(op, str(run_dir / "setup")))
            if code != 0 or report is None:
                raise RuntimeError(f"set-up probe of {op.name} failed:\n{stderr}")
            total += report["setup_s"]
        setups.append(total)
    walls = [sum(r.report.get("main_s", 0.0) for r in rs) for rs in rounds]
    rates = [sum(r.node_steps for r in rs) / w for rs, w in zip(rounds, walls)]
    rss = [max(r.report.get("maxrss_kib", 0) for r in rs) / 1024 for rs in rounds]
    return rounds, {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "node_steps_per_s": metric(statistics.median(rates), "1/s"),
        "peak_rss_mib": metric(statistics.median(rss), "MiB"),
    }


def per_layer(ops, seconds: float, run_dir: Path, digests: dict):
    sys.path.insert(0, str(SRC))
    import layers

    probes = []
    for _ in range(PROBES):
        code, report, stderr = spawn("probe")
        if code != 0 or report is None:
            raise RuntimeError(f"import probe failed:\n{stderr}")
        probes.append(report)

    # Layers the workload's own runs do not reach are measured on the
    # reference run that does: the mms preset for the bar, the slab INI.
    bar_ops = [op for op in ops if op is not SLAB] or [MMS32]
    slab_ops = [op for op in ops if op is SLAB] or [SLAB]
    refs = [op for op in bar_ops + slab_ops if op not in ops]
    rounds = measure(list(ops) + refs, "trace", seconds, run_dir, digests)

    def median_over_rounds(fn):
        return statistics.median(fn({r.op.name: r.report for r in rs}) for rs in rounds)

    def total(reports, key, chosen):
        return sum(reports[op.name].get(key, 0.0) for op in chosen)

    last = {r.op.name: r.out_dir for r in rounds[-1]}
    values = {}
    # the workload's own first bar or slab run comes last, so that the
    # constitutive timings use its grid
    for op in sorted((bar_ops[0], slab_ops[0]), key=lambda op: op in ops):
        values.update(layers.slab_layers(last[op.name]) if op is SLAB
                      else layers.bar_layers(last[op.name]))
    inis = [op.args[1] if op.args[0] == "--config"
            else os.path.join(last[op.name], "config_resolved.txt") for op in ops]
    out = {
        "cli.import_s": metric(statistics.median(p["import_s"] for p in probes), "s"),
        "cli.load_config_ms": metric(layers.load_config_ms(inis), "ms"),
        "cli.resolve_ms": metric(median_over_rounds(
            lambda rep: 1e3 * total(rep, "resolve_s", ops)), "ms"),
        "cli.artifacts_s": metric(median_over_rounds(
            lambda rep: total(rep, "run_s", ops) - total(rep, "resolve_s", ops)
            - total(rep, "simulate_s", ops) - total(rep, "slab_simulate_s", ops)), "s"),
        "solver1d.simulate_s": metric(median_over_rounds(
            lambda rep: total(rep, "simulate_s", bar_ops)), "s"),
        "solver1d.rhs_us": metric(values["solver1d.rhs_us"], "us"),
        "solver1d.step_rk4_us": metric(values["solver1d.step_rk4_us"], "us"),
        "solver1d.step_implicit_ms": metric(values["solver1d.step_implicit_ms"], "ms"),
        "solver1d.forcing_evals_per_step": metric(median_over_rounds(
            lambda rep: total(rep, "heat_calls", bar_ops) / sum(
                checks.n_steps(checks.read_config(last[op.name])) for op in bar_ops)),
            "count/step"),
        "constitutive.conductivity_us": metric(values["constitutive.conductivity_us"], "us"),
        "constitutive.equilibrium_stress_us": metric(
            values["constitutive.equilibrium_stress_us"], "us"),
        "manufactured.build_mms_case_ms": metric(
            statistics.median(p["mms_ms"] for p in probes), "ms"),
        "slab.slab_rhs_us": metric(values["slab.slab_rhs_us"], "us"),
        "slab.slab_simulate_s": metric(median_over_rounds(
            lambda rep: total(rep, "slab_simulate_s", slab_ops)), "s"),
        "slab.reconstruct_fields_us": metric(values["slab.reconstruct_fields_us"], "us"),
    }
    traced = statistics.median(sum(r.report.get("main_s", 0.0) for r in rs
                                   if r.op in ops) for rs in rounds)
    log(f"  traced wall_s (tracing overhead = this minus untraced wall_s): {traced!r}")
    return rounds, out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = WORKLOADS[name]
    run_dir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    log(f"{name}: seed {seed} (inputs are fixed configs), {seconds:g} s, "
        f"trace {int(trace)}")
    try:
        rounds, metrics = (per_layer if trace else end_to_end)(
            ops, seconds, run_dir, {})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:         # another run is still using it
            pass
    results = [r for rs in rounds for r in rs]
    return {"correct": not any(r.errors for r in results),
            "attempted": len(results),
            "failed": sum(r.failed for r in results),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smabar" / "cli.py").is_file():
        log(f"no smabar sources under {SRC}; run from a source checkout")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
