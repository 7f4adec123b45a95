"""One sweep in a fresh interpreter (started by ``run.py``, one per sample).

    python3 sweepbench/sweep.py --workload NAME --seed N --out FILE
        [--trace] [--warm-up]

Writes one JSON record to ``FILE``: the monotonic time at which set-up
ended (the parent subtracts its launch time to get the set-up time), the
sweep's wall and CPU time, the host-speed probe figures over set-up and
over the sweep (see ``hostspeed.py``), peak RSS, the report digest and the
check figures, and with ``--trace`` the per-layer metrics.  ``--warm-up`` imports every
library module and stops after set-up.  The caller sets ``PYTHONPATH`` to
the library sources and the private ``REPRO_RUNS_DIR`` and
``REPRO_JIT_CACHE_DIR``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback

from hostspeed import SpeedProbe


def _peak_rss_mb() -> float:
    """Peak resident set over this process and its reaped children."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def _cpu_s() -> float:
    """CPU time of this process plus its reaped children (the workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def sweep(workload: str, seed: int, traced: bool, warm_up: bool,
          probe: SpeedProbe) -> dict:
    import workloads

    if warm_up:
        # An untimed first set-up: import every library module, so the
        # bytecode cache also covers what sweeps import lazily.
        import pkgutil

        import repro
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)
    prepared = workloads.prepare(workload, seed)
    tracer = None
    if traced:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    setup_end = time.monotonic()
    record: dict = {"setup_end": setup_end,
                    "setup_probe": probe.window(0.0, setup_end)}
    if warm_up:
        prepared.close()
        return record
    cpu_before = _cpu_s()
    started = time.monotonic()
    outcome = prepared.run()
    ended = time.monotonic()
    record["sweep_s"] = ended - started
    record["cpu_s"] = _cpu_s() - cpu_before
    record["sweep_probe"] = probe.window(started, ended)
    record["peak_rss_mb"] = _peak_rss_mb()
    record.update(
        digest=outcome.digest, attempted=outcome.attempted,
        failed_cells=outcome.failed_cells, violations=outcome.violations,
        problems=outcome.problems,
        wcet_cycles_total=sum(outcome.bounds),
        wcet_tightness_mean=(statistics.fmean(outcome.tightness)
                             if outcome.tightness else None),
        wcet_tightness_max=max(outcome.tightness, default=None))
    if tracer is not None:
        record["layers"] = tracer.metrics(prepared.cells)
        record["layer_self_s"] = tracer.layer_self_s()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warm-up", action="store_true")
    args = parser.parse_args(argv)
    probe = SpeedProbe()
    probe.start()
    try:
        record = sweep(args.workload, args.seed, args.trace, args.warm_up,
                       probe)
        status = 0
    except Exception:  # reported to the parent, which fails the run
        record = {"error": traceback.format_exc()}
        status = 1
    finally:
        probe.stop()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
