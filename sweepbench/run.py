"""Sweep benchmark: the verify and explore sweeps, end to end and by layer.

Run from the repository root (no build step; the library runs from
``src``)::

    python3 sweepbench/run.py --workload verify_matrix --seed 0 \\
        --seconds 20 --trace 0
    python3 sweepbench/run.py --all [--seed N] [--trace 1] [--out FILE]
    python3 sweepbench/run.py --compare PARENT.jsonl CHANGE.jsonl
    python3 sweepbench/run.py --record-digests 0 99

A run starts one fresh interpreter per sweep for as long as another sweep
fits in ``--seconds``, at least two sweeps.  Each sweep's set-up
(interpreter start, ``import repro``, harness or space construction) is
timed too.  Every sweep
executes every cell: no explore result cache, and a fresh private
``REPRO_RUNS_DIR`` and ``REPRO_JIT_CACHE_DIR`` under ``.bench_build``.
With ``--trace 0`` the run reports the end-to-end metrics (medians over its
sweeps); with ``--trace 1`` it alternates untraced and traced sweeps and
reports the per-layer metrics of the traced ones plus the tracing overhead.

The host's speed drifts by tens of percent over minutes, so every sweep
probes it (``hostspeed.py``) and the timing metrics (``sweep_s``,
``cpu_s``, ``setup_s``, ``trace.overhead_s``) are seconds at the probe's
reference speed.  The report lines also show the wall times as measured
and the host speed the probes saw.

Every sweep is checked: no failed cell, no soundness violation (core, task
or loop), no functional mismatch (the library raises or records a failed
cell), every sweep of a run yields the same timing-free report digest, and
that digest equals the one recorded in ``digests.json`` for the workload's
family and seed, where one is recorded.  A failed check makes the run print
``"correct": false`` and exit 1.  The last line of standard output is the
JSON result; ``--out FILE`` also appends it to a JSON-lines result set that
``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import REFERENCE_PROBE_S, scaled
from workloads import FAMILIES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"
WORK_DIR = ROOT / ".bench_build" / "sweepbench"

#: Fewest sweeps of one kind in a run, whatever ``--seconds`` says (each
#: sweep also times its own set-up, so this is also the fewest set-ups).
MIN_SWEEPS = 2
#: A run stops starting sweeps so that it ends within this many seconds.
RUN_LIMIT_S = 170.0


class RunFailed(Exception):
    """The benchmark cannot run in this directory (no library sources)."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_digests() -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------

def _child(work: Path, index: int, workload: str, seed: int, *,
           traced: bool = False, warm_up: bool = False,
           deadline: float) -> tuple[dict, float]:
    """Run one sweep child; returns its record and its launch time."""
    private = work / f"sweep-{index}"
    private.mkdir()
    out = private / "record.json"
    # Bytecode of every module goes to one cache under .bench_build (never
    # into the source tree), so set-up times do not depend on what the
    # checkout or the environment left in __pycache__ directories.
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=str(WORK_DIR / "pycache"),
               REPRO_RUNS_DIR=str(private / "runs"),
               REPRO_JIT_CACHE_DIR=str(private / "jit"))
    argv = [sys.executable, str(BENCH_DIR / "sweep.py"),
            "--workload", workload, "--seed", str(seed), "--out", str(out)]
    if traced:
        argv.append("--trace")
    if warm_up:
        argv.append("--warm-up")
    with open(private / "stderr.txt", "w", encoding="utf-8") as stderr:
        launched = time.monotonic()
        # A session of its own, so a timeout can stop the pool workers of
        # a parallel sweep together with the sweep.
        child = subprocess.Popen(argv, env=env, cwd=str(ROOT),
                                 stdin=subprocess.DEVNULL,
                                 stdout=subprocess.DEVNULL, stderr=stderr,
                                 start_new_session=True)
        try:
            status = child.wait(timeout=max(1.0, deadline - launched))
        except BaseException:
            _kill_group(child)
            raise
        finally:
            _kill_group(child, only_strays=True)
    if out.exists():
        record = json.loads(out.read_text(encoding="utf-8"))
    else:
        record = {"error": f"sweep exited with status {status} and no "
                           f"record:\n"
                           + (private / "stderr.txt").read_text()[-2000:]}
    shutil.rmtree(private, ignore_errors=True)
    return record, launched


def _kill_group(child: subprocess.Popen, only_strays: bool = False) -> None:
    """Stop ``child``'s whole process group and wait for ``child``."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    if not only_strays or child.returncode is None:
        child.wait()


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else None


def _at_reference_speed(record: dict, launched: float) -> None:
    """Scale ``record``'s times to the probe's reference speed, keeping the
    wall times as measured under ``*_wall_s``."""
    setup, sweep = record["setup_probe"], record["sweep_probe"]
    record["setup_wall_s"] = record["setup_end"] - launched
    record["sweep_wall_s"] = record["sweep_s"]
    record["setup_s"] = scaled(record["setup_wall_s"], setup["probe_wall_s"],
                               setup)
    record["sweep_s"] = scaled(record["sweep_s"], sweep["probe_wall_s"],
                               sweep)
    record["cpu_s"] = scaled(record["cpu_s"], sweep["probe_cpu_s"], sweep)
    record["host_speed"] = REFERENCE_PROBE_S / sweep["probe_cpu_mean_s"]


def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool) -> tuple[dict, list[str]]:
    """Run ``workload``; returns the result object and report lines."""
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        raise RunFailed(f"no library sources under {ROOT / 'src'}")
    spec = load_spec()
    recorded = load_digests().get(FAMILIES[workload], {}).get(str(seed))
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    setups: list[float] = []
    plain: list[dict] = []
    layered: list[dict] = []
    problems: list[str] = []
    #: Tracebacks of sweeps that raised (e.g. a functional mismatch).
    broken: list[str] = []
    index = 0
    try:
        if not (WORK_DIR / "pycache").exists():
            # First run in this checkout: compile the bytecode once,
            # untimed, so set-up times never include it.
            record, _ = _child(work, index, workload, seed, warm_up=True,
                               deadline=deadline)
            index += 1
            if "error" in record:
                broken.append(record["error"])
        loop_start = time.monotonic()
        longest = 0.0
        while not broken:
            want_trace = traced and len(layered) < len(plain)
            before = time.monotonic()
            record, launched = _child(work, index, workload, seed,
                                      traced=want_trace, deadline=deadline)
            index += 1
            longest = max(longest, time.monotonic() - before)
            if "error" in record:
                broken.append(record["error"])
                break
            _at_reference_speed(record, launched)
            if not want_trace:
                setups.append(record["setup_s"])
            (layered if want_trace else plain).append(record)
            problems.extend(record["problems"])
            enough = (len(layered) >= 1 if traced
                      else len(plain) >= MIN_SWEEPS)
            # Start another sweep only if it should end within the
            # measuring time (and well within the run's limit).
            now = time.monotonic()
            if enough and (now - loop_start + longest > seconds
                           or now + 1.5 * longest > deadline):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in broken:
        problems.append("sweep raised " + error.strip().splitlines()[-1])
    records = plain + layered
    digests = {record["digest"] for record in records}
    if len(digests) > 1:
        problems.append(f"sweeps of one seed disagree: {len(digests)} "
                        f"different report digests")
    if recorded is not None and digests != {recorded}:
        problems.append(f"report digest {sorted(digests)[0][:16]} differs "
                        f"from the one recorded for {FAMILIES[workload]} "
                        f"seed {seed} ({recorded[:16]})")
    attempted = sum(record["attempted"] for record in records) + len(broken)
    failed = sum(record["failed_cells"] + record["violations"]
                 for record in records) + len(broken)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    if traced:
        names = [m["name"] for m in spec["per_layer"]]
        values = {name: median([r["layers"][name] for r in layered])
                  for name in names if name != "trace.overhead_s"}
        if layered and plain:
            values["trace.overhead_s"] = (
                median([r["sweep_s"] for r in layered])
                - median([r["sweep_s"] for r in plain]))
    else:
        values = {
            "sweep_s": median([r["sweep_s"] for r in plain]),
            "cpu_s": median([r["cpu_s"] for r in plain]),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "wcet_cycles_total": median([r["wcet_cycles_total"]
                                         for r in plain]),
            "wcet_tightness_mean": median([r["wcet_tightness_mean"]
                                           for r in plain]),
            "wcet_tightness_max": median([r["wcet_tightness_max"]
                                          for r in plain]),
        }
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {name: {"value": values.get(name), "unit": units[name]}
               for name in names}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    lines = _report_lines(workload, seed, plain, layered, setups, metrics,
                          problems, recorded, digests, time.monotonic()
                          - started)
    return result, lines


def _report_lines(workload, seed, plain, layered, setups, metrics, problems,
                  recorded, digests, elapsed) -> list[str]:
    lines = [f"{workload} seed {seed}: {len(plain)} sweeps, "
             f"{len(layered)} traced, {len(setups)} set-ups, "
             f"{elapsed:.1f} s"]
    samples = {"setup_s": len(setups)}
    for name, metric in metrics.items():
        count = samples.get(name, len(layered) if layered else len(plain))
        value = metric["value"]
        shown = "-" if value is None else f"{value:.6g}"
        if layered and not value:
            continue  # a layer this workload does not use
        lines.append(f"  {name:36s} {shown:>14s} {metric['unit']:8s} "
                     f"(median of {count})")
    records = plain + layered
    if records:
        speeds = [r["host_speed"] for r in records]
        lines.append(
            f"  as measured: sweep wall "
            f"{median([r['sweep_wall_s'] for r in plain]):.4g} s, set-up "
            f"{median([r['setup_wall_s'] for r in plain]):.4g} s (medians); "
            f"host speed {median(speeds):.3f} x reference "
            f"({min(speeds):.3f}-{max(speeds):.3f})")
    if not layered:
        attempted = sum(r["attempted"] for r in plain)
        failed = sum(r["failed_cells"] for r in plain)
        violations = sum(r["violations"] for r in plain)
        lines.append(f"  {'failed_share':36s} "
                     f"{failed / attempted if attempted else 0:>14.6g} "
                     f"{'share':8s} ({failed}/{attempted} cells)")
        lines.append(f"  {'soundness_violations':36s} {violations:>14d} "
                     f"{'count':8s} (over {len(plain)} sweeps)")
    else:
        shares = {}
        for record in layered:
            for layer, seconds in record["layer_self_s"].items():
                shares.setdefault(layer, []).append(
                    seconds / record["sweep_wall_s"])
        split = sorted(((median(v), k) for k, v in shares.items()),
                       reverse=True)
        lines.append("  self-time share of traced sweep wall: "
                     + ", ".join(f"{layer} {share:.1%}"
                                 for share, layer in split))
        if split:
            lines.append(f"  dominant layer: {split[0][1]}")
    digest = sorted(digests)[0][:16] if digests else "-"
    state = ("matches the recorded digest" if recorded in digests
             else "no digest recorded for this seed" if recorded is None
             else "DIFFERS from the recorded digest")
    lines.append(f"  report digest {digest}: {state}")
    lines.extend(f"  CHECK FAILED: {problem}" for problem in problems[:20])
    return lines


# ----------------------------------------------------------------------
# Result sets: --out, --compare
# ----------------------------------------------------------------------

def append_result(path: str, workload: str, seed: int, traced: bool,
                  result: dict) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"workload": workload, "seed": seed,
                                 "trace": int(traced), "result": result},
                                sort_keys=True) + "\n")


def _load_set(path: str) -> dict:
    values: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            entry = json.loads(line)
            if entry["trace"]:
                continue
            for name, metric in entry["result"]["metrics"].items():
                values.setdefault((entry["workload"], name), []).append(
                    metric["value"])
    return values


def _spread(values: list[float]) -> float | None:
    """Inter-quartile distance as a share of the median (None if < 2)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def compare(parent_path: str, change_path: str) -> list[str]:
    """Per workload and end-to-end metric: better, worse, unchanged or
    unresolved under the benchmark's bounds."""
    spec = load_spec()
    parent, change = _load_set(parent_path), _load_set(change_path)
    lines = [f"{'workload':16s} {'metric':20s} {'parent':>12s} "
             f"{'change':>12s} {'delta':>8s} {'spread':>7s} {'bound':>6s} "
             f"verdict"]
    workloads = sorted({workload for workload, _ in parent})
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            a, b = parent.get(key), change.get(key)
            if not a or not b:
                continue
            lower = metric["better"] == "lower"
            ma, mb = statistics.median(a), statistics.median(b)
            delta = (mb - ma) / abs(ma) if ma else 0.0
            gain = -delta if lower else delta
            spreads = [_spread(a), _spread(b)]
            spread = (None if None in spreads else max(spreads))
            bound = metric["bound"]
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if spread is None or spread > bound:
                verdict = "better" if all_better else "unresolved"
            elif gain > bound:
                verdict = "better"
            elif gain < -bound:
                verdict = "worse"
            else:
                verdict = "unchanged"
            shown = "-" if spread is None else f"{spread:.3f}"
            lines.append(f"{workload:16s} {metric['name']:20s} "
                         f"{ma:12.6g} {mb:12.6g} {delta:+8.3f} "
                         f"{shown:>7s} {bound:6.3f} {verdict}")
    return lines


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------

def record_digests(seeds: list[int]) -> int:
    """Run one sweep per workload and seed; store the report digests."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    fresh: dict[tuple[str, str], str] = {}
    status = 0
    for seed in seeds:
        for workload, family in FAMILIES.items():
            work = Path(tempfile.mkdtemp(prefix="digest-", dir=WORK_DIR))
            try:
                record, _ = _child(work, 0, workload, seed,
                                   deadline=time.monotonic() + RUN_LIMIT_S)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            problems = ([record["error"]] if "error" in record
                        else record["problems"])
            if problems:
                print(f"{workload} seed {seed}: FAILED {problems[:3]}")
                status = 1
                continue
            seen = fresh.setdefault((family, str(seed)), record["digest"])
            same = "" if seen == record["digest"] else " DIFFERS"
            if same:
                status = 1
            print(f"{workload} seed {seed}: {record['digest']}{same}")
    if status == 0:
        digests = load_digests()
        for (family, seed), digest in fresh.items():
            digests.setdefault(family, {})[seed] = digest
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
    return status


# ----------------------------------------------------------------------

def _terminate(signum, frame):
    # Unwind through the child handling, which stops the running sweep.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(
        description="Sweep benchmark (see the module docstring).")
    parser.add_argument("--workload", choices=sorted(FAMILIES))
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each result to this JSONL")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT", "CHANGE"))
    parser.add_argument("--record-digests", type=int, nargs="+",
                        metavar="SEED")
    args = parser.parse_args(argv)

    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0
    try:
        if args.record_digests:
            return record_digests(args.record_digests)
        if args.all:
            selected = list(FAMILIES)
        elif args.workload:
            selected = [args.workload]
        else:
            parser.error("give --workload, --all, --compare or "
                         "--record-digests")
        results = {}
        for workload in selected:
            result, lines = run_workload(workload, args.seed, args.seconds,
                                         bool(args.trace))
            print("\n".join(lines), flush=True)
            if args.out:
                append_result(args.out, workload, args.seed,
                              bool(args.trace), result)
            results[workload] = result
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    final = (results[selected[0]] if len(selected) == 1
             else {"correct": all(r["correct"] for r in results.values()),
                   "workloads": results})
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
