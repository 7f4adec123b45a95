"""The four sweep workloads: how each is set up, run, checked and digested.

Every workload is a closed batch sweep submitted from one process.  Every
cell executes: the explore workloads run without a result cache and every
sweep journals into a fresh run directory under the private
``REPRO_RUNS_DIR`` the caller sets.

``prepare(name, seed)`` does the set-up (imports, scenario or space
construction, run directory) and returns a :class:`Sweep`; calling
``Sweep.run()`` executes every cell and returns a :class:`SweepOutcome`
holding the timing-free report digest and the figures the end-to-end
metrics are made of.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
from dataclasses import dataclass
from typing import Callable, Optional

#: Workload name -> digest family.  ``verify_parallel`` runs the same matrix
#: as ``verify_matrix`` and the harness promises a report that is
#: byte-identical across ``--jobs``, so both share one recorded digest.
FAMILIES = {
    "verify_matrix": "verify",
    "verify_parallel": "verify",
    "explore_compile": "explore_compile",
    "explore_cosim": "explore_cosim",
}

#: The long-running kernels of ``explore_cosim`` (``seed`` is added per run).
COSIM_KERNELS = {
    "vector_sum": {"n": 2048},
    "checksum": {"n": 2048},
    "fir_filter": {"n": 512},
    "matmul": {"n": 12},
    "bubble_sort": {"n": 48},
}


@dataclass
class SweepOutcome:
    """What one sweep produced, reduced to what the benchmark checks."""

    digest: str
    attempted: int
    failed_cells: int
    violations: int
    #: WCET bounds (cycles) of every bounded cell, and bound/observed.
    bounds: list[int]
    tightness: list[float]
    problems: list[str]


@dataclass
class Sweep:
    """A prepared sweep: set-up is done, ``run`` executes every cell."""

    cells: int
    execute: Callable[[], SweepOutcome]
    close: Callable[[], None]

    def run(self) -> SweepOutcome:
        try:
            return self.execute()
        finally:
            self.close()


def digest_of(document) -> str:
    """SHA-256 of the canonical JSON rendering of ``document``."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# verify_matrix / verify_parallel
# ----------------------------------------------------------------------

def _prepare_verify(seed: int, jobs: int) -> Sweep:
    from repro.jobs import RunDirectory
    from repro.verify.harness import count_cells, run_conformance
    from repro.verify.scenarios import (DEFAULT_ARBITERS,
                                        DEFAULT_RTOS_SCENARIOS,
                                        DEFAULT_VARIANTS)
    from repro.workloads.suite import resolve_kernels

    # The workload seed shifts every RTOS task-set seed; seed 0 is the
    # repository's default matrix.
    rtos = tuple(dataclasses.replace(scenario, seed=scenario.seed + seed)
                 for scenario in DEFAULT_RTOS_SCENARIOS)
    kernels = resolve_kernels(("all",))
    cells = count_cells(kernels, DEFAULT_VARIANTS, DEFAULT_ARBITERS, rtos)
    matrix = {"kernels": list(kernels),
              "variants": [v.name for v in DEFAULT_VARIANTS],
              "arbiters": [a.name for a in DEFAULT_ARBITERS],
              "no_rtos": False, "engine": "fast",
              "rtos_seeds": [scenario.seed for scenario in rtos]}
    run_dir = RunDirectory.create("verify", matrix, cells=cells)

    def execute() -> SweepOutcome:
        report = run_conformance(kernels=kernels, rtos_scenarios=rtos,
                                 jobs=jobs, run_dir=run_dir)
        document = report.to_dict()
        del document["summary"]["elapsed_s"]
        bounded = report.bounded()
        problems = [f"soundness violation {o.kernel}/{o.variant}/"
                    f"{o.arbiter} core {o.core_id}: {o.cycles} > "
                    f"{o.wcet_cycles}" for o in report.violations()]
        problems += [f"loop violation {c.kernel}/{c.function}/{c.header}"
                     for c in report.loop_violations()]
        problems += [f"failed cell {cell.summary()}"
                     for cell in report.failures]
        return SweepOutcome(
            digest=digest_of(document), attempted=cells,
            failed_cells=len(report.failures),
            violations=len(report.violations())
            + len(report.loop_violations()),
            bounds=[o.wcet_cycles for o in bounded],
            tightness=[o.tightness for o in bounded],
            problems=problems)

    return Sweep(cells, execute, run_dir.close)


# ----------------------------------------------------------------------
# explore_compile / explore_cosim
# ----------------------------------------------------------------------

def _seeded_params(kernels, seed: int,
                   base: Optional[dict] = None) -> dict[str, dict]:
    """Per-kernel ``kernel_params`` with the data seed shifted by ``seed``.

    Kernels without a ``seed`` parameter (generated control flow, no data)
    keep their defaults; seed 0 reproduces every default data set.
    """
    from repro.workloads.suite import KERNEL_BUILDERS

    params: dict[str, dict] = {}
    for kernel in kernels:
        entry = dict((base or {}).get(kernel, {}))
        parameter = inspect.signature(KERNEL_BUILDERS[kernel]).parameters.get(
            "seed")
        if parameter is not None:
            entry["seed"] = parameter.default + seed
        if entry:
            params[kernel] = entry
    return params


def _explore_space(name: str, seed: int):
    from repro.explore import ParameterSpace
    from repro.workloads.suite import resolve_kernels

    if name == "explore_compile":
        kernels = resolve_kernels(("all",))
        space = ParameterSpace(kernels,
                               kernel_params=_seeded_params(kernels, seed))
        space.axis("dual_issue", [True, False]).axis("cores", [1, 2])
    else:
        kernels = tuple(COSIM_KERNELS)
        space = ParameterSpace(
            kernels, kernel_params=_seeded_params(kernels, seed,
                                                  COSIM_KERNELS))
        space.axis("cores", [1, 2, 4, 8]).axis(
            "arbiter", ["tdma", "round_robin"])
    return space


def _prepare_explore(name: str, seed: int) -> Sweep:
    from repro.explore import ExplorationRunner
    from repro.jobs import RunDirectory

    space = _explore_space(name, seed)
    specs = space.specs()
    matrix = {"workload": name, "seed": seed,
              "keys": [spec.key() for spec in specs]}
    run_dir = RunDirectory.create("explore", matrix, cells=len(specs))
    runner = ExplorationRunner(jobs=1, cache=None)

    def execute() -> SweepOutcome:
        result = runner.run(specs, run_dir=run_dir)
        document = {"results": result.to_records(),
                    "failures": [cell.to_dict() for cell in result.failures]}
        bounded = [r for r in result.results if r.tightness is not None]
        unsound = [r for r in bounded if r.wcet_cycles < r.cycles]
        problems = [f"soundness violation {r.kernel} {r.parameters}: "
                    f"{r.cycles} > {r.wcet_cycles}" for r in unsound]
        problems += [f"failed cell {cell.summary()}"
                     for cell in result.failures]
        if len(result.results) + len(result.failures) != len(specs):
            problems.append(f"{len(specs)} specs but "
                            f"{len(result.results)} results")
        return SweepOutcome(
            digest=digest_of(document), attempted=len(specs),
            failed_cells=len(result.failures), violations=len(unsound),
            bounds=[r.wcet_cycles for r in bounded],
            tightness=[r.tightness for r in bounded],
            problems=problems)

    return Sweep(len(specs), execute, run_dir.close)


def prepare(name: str, seed: int) -> Sweep:
    """Set up workload ``name`` for ``seed`` (imports ``repro``)."""
    if name == "verify_matrix":
        return _prepare_verify(seed, jobs=1)
    if name == "verify_parallel":
        return _prepare_verify(seed, jobs=2)
    if name in ("explore_compile", "explore_cosim"):
        return _prepare_explore(name, seed)
    raise ValueError(f"unknown workload {name!r}; known: "
                     f"{', '.join(FAMILIES)}")
