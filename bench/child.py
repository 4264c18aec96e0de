"""One `sma` invocation in a fresh interpreter, timed from outside src/.

    python child.py LAUNCH MODE [sma arguments...]

LAUNCH is the parent's time.monotonic() taken just before it started this
process (the clock is system-wide, so both sides read the same one).  MODE:

  run    time smabar.cli.main(argv), after imports, and report the set-up
         time: from launch until the run's config is loaded and resolved,
         what every `sma run` pays before its first step
  setup  stop as soon as the config is resolved and report the set-up time
  trace  like run, with spans around the calls cli.run makes into the
         other modules (resolve, simulate/slab_simulate) and a count of the
         heat-supply calls made while integrating
  probe  time `import smabar.cli` and a first build_mms_case call

The last line of stdout is a JSON object with the measurements.
"""

import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class _Resolved(Exception):
    """Raised from the wrapped resolve to end a setup-mode process."""


def _check_source(module):
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"smabar imported from {module.__file__}, not {SRC}")


def _report(**values):
    values["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(values), flush=True)


def probe(launch, argv):
    t0 = time.perf_counter()
    import smabar.cli
    import_s = time.perf_counter() - t0
    _check_source(smabar.cli)
    from smabar.constitutive import cu_based
    from smabar.manufactured import build_mms_case
    t0 = time.perf_counter()
    build_mms_case(cu_based())
    _report(import_s=import_s, mms_ms=1e3 * (time.perf_counter() - t0))


def _stamp_resolve(cli, stop: bool) -> list:
    """Record time.monotonic() when SimConfig.resolve returns; with stop,
    end the run there by raising _Resolved."""
    resolve = cli.SimConfig.resolve
    stamps = []

    def resolved(self):
        out = resolve(self)
        stamps.append(time.monotonic())
        if stop:
            raise _Resolved()
        return out

    cli.SimConfig.resolve = resolved
    return stamps


def setup(launch, argv):
    import smabar.cli as cli
    _check_source(cli)
    stamps = _stamp_resolve(cli, stop=True)
    try:
        cli.main(argv)
    except _Resolved:
        _report(setup_s=stamps[0] - launch)
        return
    raise SystemExit("setup: the run finished without resolving a config")


def run(launch, argv):
    import smabar.cli as cli
    _check_source(cli)
    stamps = _stamp_resolve(cli, stop=False)
    t0 = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - t0
    setup_s = {"setup_s": stamps[0] - launch} if stamps else {}
    _report(code=code, main_s=main_s, **setup_s)


def trace(launch, argv):
    import smabar.cli as cli
    _check_source(cli)
    spans = {"resolve_s": 0.0, "simulate_s": 0.0, "slab_simulate_s": 0.0,
             "run_s": 0.0, "heat_calls": 0}
    counting = [False]

    def timed(fn, key):
        def call(*args, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                spans[key] += time.perf_counter() - t0
        return call

    resolve = cli.SimConfig.resolve

    def resolve_counting(self):
        setup = timed(resolve, "resolve_s")(self)
        if self.model == "full_1d":
            heat = setup.forcing.heat

            def counted(x, t):
                if counting[0]:
                    spans["heat_calls"] += 1
                return heat(x, t)

            setup.forcing.heat = counted
        return setup

    simulate = timed(cli.simulate, "simulate_s")

    def simulate_counting(setup):
        counting[0] = True
        try:
            return simulate(setup)
        finally:
            counting[0] = False

    cli.SimConfig.resolve = resolve_counting
    cli.simulate = simulate_counting
    cli.slab_simulate = timed(cli.slab_simulate, "slab_simulate_s")
    cli.run = timed(cli.run, "run_s")
    t0 = time.perf_counter()
    code = cli.main(argv)
    _report(code=code, main_s=time.perf_counter() - t0, **spans)


if __name__ == "__main__":
    mode = {"probe": probe, "setup": setup, "run": run, "trace": trace}[sys.argv[2]]
    mode(float(sys.argv[1]), sys.argv[3:])
