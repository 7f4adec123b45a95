"""The differential WCET-vs-simulation conformance harness.

For every scenario of the matrix the harness runs the *genuine* execution —
the cycle-accurate fast-engine simulation on a single core, or the fully
interleaved shared-memory co-simulation for multicore arbiters — and the
static WCET analysis configured for exactly that hardware, then checks the
paper's soundness property per core::

    observed cycles  <=  wcet_cycles

Every checked core yields one :class:`ScenarioOutcome` carrying the
tightness ratio ``wcet_cycles / cycles``; a ratio below 1.0 is a soundness
violation and fails the run.  Cores without a bound (any non-top core under
priority arbitration) are recorded as *unbounded* rather than silently
skipped, so the report also documents where the paper says no bound exists.

Simulations are memoised per (kernel, hardware organisation, arbiter), so
analysis-only variants (``always_miss``, ``naive``) reuse the simulation of
the default variant and the full matrix stays CI-sized.

A run is one ordered list of journal cells executed by
:func:`repro.jobs.run_jobs`: the scenario groups (scenarios sharing a
simulation key, so each harness keeps the memoisation win), then one
``loops/<kernel>`` cell per kernel and one ``rtos/<name>`` cell per
response-time scenario.  ``run_conformance(jobs=N)`` runs every cell on a
pool of warm worker harnesses; the report is assembled in the
deterministic scenario order regardless of completion order — a parallel
run produces the same report as a sequential one (only the measured
``elapsed_s`` differs).

A worker that *dies* (killed, OOM, segfault) does not abort the run: its
cell is re-leased under the default :class:`~repro.jobs.RetryPolicy`, and
a group that keeps killing workers is recorded as a structured
:class:`~repro.errors.FailedCell` in the report while every other cell
still completes.  Errors *raised by* a cell (functional mismatches)
propagate exactly as in the sequential path — a broken execution must fail
the verification loudly.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..cmp.system import MulticoreSystem
from ..compiler.passes import compile_and_link
from ..config import DEFAULT_CONFIG, PatmosConfig
from ..errors import FailedCell, VerificationError, WorkerCrashed
from ..explore.tables import format_table
from ..jobs import JobCell, RunDirectory, default_crash_failure, run_jobs
from ..sim.cycle import CycleSimulator
from ..wcet.analyzer import WcetOptions, analyze_wcet
from ..workloads.suite import build_kernel
from .loopcheck import LoopCheck, check_loops
from .scenarios import (
    DEFAULT_ARBITERS,
    DEFAULT_RTOS_SCENARIOS,
    DEFAULT_VARIANTS,
    ArbiterConfig,
    CacheModelVariant,
    RtosScenario,
    Scenario,
    build_scenarios,
)


@dataclass
class ScenarioOutcome:
    """The conformance verdict of one core of one scenario."""

    kernel: str
    variant: str
    arbiter: str
    cores: int
    core_id: int
    cycles: int
    wcet_cycles: Optional[int]

    @property
    def tightness(self) -> Optional[float]:
        """Bound over observation (>= 1.0 iff the bound is sound)."""
        if self.wcet_cycles is None or self.cycles <= 0:
            return None
        return self.wcet_cycles / self.cycles

    @property
    def sound(self) -> Optional[bool]:
        """True/False for bounded cores, None where no bound exists."""
        if self.wcet_cycles is None:
            return None
        return self.wcet_cycles >= self.cycles

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "variant": self.variant,
            "arbiter": self.arbiter,
            "cores": self.cores,
            "core": self.core_id,
            "cycles": self.cycles,
            "wcet_cycles": self.wcet_cycles,
            "tightness": (None if self.tightness is None
                          else round(self.tightness, 4)),
            "sound": self.sound,
        }


@dataclass
class ConformanceReport:
    """All outcomes of one conformance run plus aggregate statistics.

    ``failures`` lists scenario groups whose pool worker died past the
    retry budget (parallel runs only); a report with failures is incomplete
    and must not pass a verification gate even with zero violations.
    """

    outcomes: list[ScenarioOutcome] = field(default_factory=list)
    failures: list[FailedCell] = field(default_factory=list)
    #: Per-loop observed-iterations-vs-bound cross-checks (one per natural
    #: loop per kernel); a loop violation is an unsound loop-bound fact even
    #: when the end-to-end cycle bound happens to hold.
    loop_checks: list[LoopCheck] = field(default_factory=list)
    elapsed_s: float = 0.0

    def violations(self) -> list[ScenarioOutcome]:
        """Outcomes whose bound failed to cover the observation."""
        return [outcome for outcome in self.outcomes
                if outcome.sound is False]

    def loop_violations(self) -> list[LoopCheck]:
        """Loops whose observed header executions exceed their bound."""
        return [check for check in self.loop_checks if check.ok is False]

    def bounded(self) -> list[ScenarioOutcome]:
        return [outcome for outcome in self.outcomes
                if outcome.tightness is not None]

    def unbounded(self) -> list[ScenarioOutcome]:
        return [outcome for outcome in self.outcomes
                if outcome.wcet_cycles is None]

    def mean_tightness(self) -> Optional[float]:
        bounded = self.bounded()
        if not bounded:
            return None
        return sum(outcome.tightness for outcome in bounded) / len(bounded)

    def max_tightness(self) -> Optional[ScenarioOutcome]:
        bounded = self.bounded()
        if not bounded:
            return None
        return max(bounded, key=lambda outcome: outcome.tightness)

    def to_dict(self) -> dict:
        worst = self.max_tightness()
        return {
            "schema": "repro.verify/v2",
            "scenarios": [outcome.to_dict() for outcome in self.outcomes],
            "failures": [cell.to_dict() for cell in self.failures],
            "loops": [check.to_dict() for check in self.loop_checks],
            "summary": {
                "checked": len(self.outcomes),
                "bounded": len(self.bounded()),
                "unbounded": len(self.unbounded()),
                "violations": len(self.violations()),
                "failed_cells": len(self.failures),
                "loops_checked": len(self.loop_checks),
                "loop_violations": len(self.loop_violations()),
                "mean_tightness": (None if self.mean_tightness() is None
                                   else round(self.mean_tightness(), 4)),
                "max_tightness": (None if worst is None
                                  else round(worst.tightness, 4)),
                "max_tightness_scenario": (
                    None if worst is None else
                    f"{worst.kernel}/{worst.variant}/{worst.arbiter}"),
                "elapsed_s": round(self.elapsed_s, 3),
            },
        }

    def table(self) -> str:
        """Aligned per-outcome conformance table."""
        headers = ["kernel", "cache model", "arbiter", "core", "cycles",
                   "WCET", "bound/obs", "sound"]
        rows = []
        for outcome in self.outcomes:
            rows.append([
                outcome.kernel, outcome.variant, outcome.arbiter,
                outcome.core_id, outcome.cycles,
                outcome.wcet_cycles if outcome.wcet_cycles is not None
                else "-",
                f"{outcome.tightness:.2f}" if outcome.tightness is not None
                else "-",
                {True: "yes", False: "NO", None: "n/a"}[outcome.sound],
            ])
        return format_table(headers, rows)

    def loops_table(self) -> str:
        """Per-loop bound-vs-observed table with the remaining slack."""
        headers = ["kernel", "function", "loop", "annot", "infer", "bound",
                   "observed", "slack", "ok"]
        rows = []

        def fmt(value):
            return "-" if value is None else value

        for check in self.loop_checks:
            rows.append([
                check.kernel, check.function, check.header,
                fmt(check.annotated), fmt(check.inferred), fmt(check.bound),
                check.observed, fmt(check.slack),
                {True: "yes", False: "NO", None: "n/a"}[check.ok],
            ])
        return format_table(headers, rows)

    def summary(self) -> str:
        mean = self.mean_tightness()
        worst = self.max_tightness()
        lines = [
            f"{len(self.outcomes)} core-scenarios checked in "
            f"{self.elapsed_s:.2f}s: {len(self.bounded())} bounded, "
            f"{len(self.unbounded())} unbounded by design, "
            f"{len(self.violations())} soundness violations",
        ]
        if mean is not None and worst is not None:
            lines.append(
                f"tightness (bound/observed): mean {mean:.3f}, worst "
                f"{worst.tightness:.3f} "
                f"({worst.kernel}/{worst.variant}/{worst.arbiter})")
        if self.loop_checks:
            inferred = sum(1 for check in self.loop_checks
                           if check.inferred is not None)
            lines.append(
                f"loop bounds: {len(self.loop_checks)} checked "
                f"({inferred} inferred), "
                f"{len(self.loop_violations())} violations")
        for outcome in self.violations():
            lines.append(
                f"  VIOLATION {outcome.kernel}/{outcome.variant}/"
                f"{outcome.arbiter} core {outcome.core_id}: observed "
                f"{outcome.cycles} > bound {outcome.wcet_cycles}")
        for check in self.loop_violations():
            lines.append(
                f"  LOOP VIOLATION {check.kernel}/{check.function}/"
                f"{check.header}: observed {check.observed} header "
                f"executions > bound {check.bound} x {check.entries} "
                f"entries")
        if self.failures:
            lines.append(f"{len(self.failures)} scenario group(s) FAILED "
                         f"(report incomplete):")
            lines.extend(f"  {cell.summary()}" for cell in self.failures)
        return "\n".join(lines)


class ConformanceHarness:
    """Execute conformance scenarios with per-hardware simulation reuse."""

    def __init__(self, config: Optional[PatmosConfig] = None,
                 strict: bool = True, engine: str = "fast"):
        self.config = config or DEFAULT_CONFIG
        self.strict = strict
        self.engine = engine
        self._images: dict[str, object] = {}
        self._expected: dict[str, list[int]] = {}
        #: (kernel, hardware, arbiter config) -> (per-core cycles,
        #: system|None).  Keyed by the frozen ArbiterConfig value, not its
        #: display name, so two configs that happen to share a name can
        #: never reuse each other's simulation.
        self._sims: dict[tuple[str, str, ArbiterConfig],
                         tuple[list[int], Optional[MulticoreSystem]]] = {}

    # ------------------------------------------------------------------

    def _image(self, kernel: str):
        if kernel not in self._images:
            built = build_kernel(kernel)
            image, _ = compile_and_link(built.program, self.config)
            self._images[kernel] = image
            self._expected[kernel] = built.expected_output
        return self._images[kernel]

    def _simulate(self, kernel: str, variant: CacheModelVariant,
                  arbiter: ArbiterConfig
                  ) -> tuple[list[int], Optional[MulticoreSystem]]:
        """Per-core observed cycles (and the system, for multicore runs)."""
        key = (kernel, variant.hardware, arbiter)
        if key in self._sims:
            return self._sims[key]
        image = self._image(kernel)
        hierarchy = variant.hierarchy_options()
        if arbiter.cores == 1:
            result = CycleSimulator(
                image, config=self.config, strict=self.strict,
                engine=self.engine, hierarchy_options=hierarchy).run()
            self._check_output(kernel, variant, arbiter, 0, result.output)
            value = ([result.cycles], None)
        else:
            system = MulticoreSystem(
                [image] * arbiter.cores, self.config,
                arbiter=arbiter.kind,
                schedule=arbiter.schedule(self.config),
                mode="cosim", engine=self.engine,
                hierarchy_options=hierarchy)
            cmp_result = system.run(analyse=False, strict=self.strict)
            for core in cmp_result.cores:
                self._check_output(kernel, variant, arbiter, core.core_id,
                                   core.sim.output)
            value = (cmp_result.observed_by_core(), system)
        self._sims[key] = value
        return value

    def _check_output(self, kernel: str, variant: CacheModelVariant,
                      arbiter: ArbiterConfig, core_id: int,
                      observed: list[int]) -> None:
        expected = self._expected[kernel]
        if observed != expected:
            raise VerificationError(
                f"{kernel} × {variant.name} × {arbiter.name} core {core_id}: "
                f"functional mismatch — simulated output {observed[:4]} "
                f"differs from reference {expected[:4]}")

    def _wcet_options(self, variant: CacheModelVariant,
                      arbiter: ArbiterConfig, core_id: int,
                      system: Optional[MulticoreSystem]
                      ) -> Optional[WcetOptions]:
        overrides = dict(variant.wcet_overrides)
        if system is not None:
            return system.wcet_options_for_core(core_id, **overrides)
        return WcetOptions(**overrides)

    # ------------------------------------------------------------------

    def run_scenario(self, scenario: Scenario) -> list[ScenarioOutcome]:
        """Run one scenario; returns one outcome per core."""
        cycles_by_core, system = self._simulate(
            scenario.kernel, scenario.variant, scenario.arbiter)
        image = self._image(scenario.kernel)
        outcomes = []
        for core_id, cycles in enumerate(cycles_by_core):
            options = self._wcet_options(
                scenario.variant, scenario.arbiter, core_id, system)
            wcet = (None if options is None else
                    analyze_wcet(image, self.config, options=options)
                    .wcet_cycles)
            outcomes.append(ScenarioOutcome(
                kernel=scenario.kernel,
                variant=scenario.variant.name,
                arbiter=scenario.arbiter.name,
                cores=scenario.arbiter.cores,
                core_id=core_id,
                cycles=cycles,
                wcet_cycles=wcet))
        return outcomes

    def run_loop_checks(self, kernel: str) -> list[LoopCheck]:
        """Cross-check every analysed loop of ``kernel`` against one run.

        One default-hardware simulation per kernel supplies the per-block
        execution counts; the loop facts come from the same value analysis
        the WCET side used (shared via the facts cache).
        """
        image = self._image(kernel)
        result = CycleSimulator(image, config=self.config, strict=self.strict,
                                engine=self.engine).run()
        expected = self._expected[kernel]
        if result.output != expected:
            raise VerificationError(
                f"{kernel} loop check: functional mismatch — simulated "
                f"output {result.output[:4]} differs from reference "
                f"{expected[:4]}")
        return check_loops(kernel, image.program, result.block_counts,
                           result.call_counts)

    def run_rtos_scenario(self, scenario: RtosScenario
                          ) -> list[ScenarioOutcome]:
        """Run one response-time cell; returns one outcome per task.

        The ``cycles``/``wcet_cycles`` slots carry the task's observed
        worst response time and its response-time bound, so the report's
        soundness/tightness machinery applies unchanged.  Tasks without a
        bound (e.g. every task of a non-top core under priority
        arbitration, or a non-converging fixpoint) are recorded as
        unbounded rather than skipped.
        """
        import dataclasses

        from ..rtos.system import RtosSystem
        from ..rtos.task import RtosOptions, synthesize_tasksets

        tasksets = synthesize_tasksets(
            scenario.cores, scenario.tasks_per_core,
            utilisation=scenario.utilisation,
            priority_assignment=scenario.priority_assignment,
            seed=scenario.seed, config=self.config)
        options = RtosOptions.for_config(self.config)
        if scenario.task_slot_cycles is not None:
            options = dataclasses.replace(
                options, task_slot_cycles=scenario.task_slot_cycles)
        system = RtosSystem(tasksets, config=self.config,
                            arbiter=scenario.arbiter, policy=scenario.policy,
                            engine=self.engine, options=options,
                            seed=scenario.seed)
        result = system.run(strict=self.strict)
        outcomes = []
        for task in result.tasks:
            outcomes.append(ScenarioOutcome(
                kernel=f"taskset[{scenario.name}]/{task.name}",
                variant=f"rtos_{scenario.policy}",
                arbiter=f"{scenario.arbiter}{scenario.cores}",
                cores=scenario.cores,
                core_id=task.core,
                cycles=task.max_response if task.max_response is not None
                else 0,
                wcet_cycles=task.rta_bound))
        return outcomes


#: Per-worker harness of the parallel matrix (set by the pool initializer;
#: workers keep their simulation memoisation across cells).
_worker_harness: Optional[ConformanceHarness] = None


def _init_worker(config: Optional[PatmosConfig], strict: bool,
                 engine: str) -> None:
    global _worker_harness
    _worker_harness = ConformanceHarness(config=config, strict=strict,
                                         engine=engine)


def _run_cell(harness: ConformanceHarness, payload: tuple) -> list:
    """Run one cell on ``harness``; its records are the journal payload."""
    kind, arg = payload
    if kind == "loops":
        return [check.to_dict() for check in harness.run_loop_checks(arg)]
    if kind == "rtos":
        return [outcome.to_dict()
                for outcome in harness.run_rtos_scenario(arg)]
    return [[outcome.to_dict() for outcome in harness.run_scenario(scenario)]
            for scenario in arg]


def _run_scenario_group(group: list[Scenario]) -> list[list[dict]]:
    """Pool worker: run one group of scenarios sharing a simulation key."""
    return _run_cell(_worker_harness, ("group", group))


def _cell_worker(payload: tuple) -> list:
    """Pool entry point: one indirection through the module globals.

    Workers call the *current* ``_run_scenario_group`` binding, so a forked
    child inherits any replacement installed in the parent — which is how
    the crash-containment tests plant a worker that dies mid-group.
    """
    if payload[0] == "group":
        return _run_scenario_group(payload[1])
    return _run_cell(_worker_harness, payload)


def _emit_progress(progress: Callable[[str], None], scenario,
                   outcomes: list[ScenarioOutcome]) -> None:
    worst = min((outcome.tightness for outcome in outcomes
                 if outcome.tightness is not None), default=None)
    status = "ok" if not any(outcome.sound is False
                             for outcome in outcomes) else "VIOLATION"
    ratio = "-" if worst is None else f"{worst:.2f}"
    progress(f"{scenario.label():60s} min bound/obs {ratio:>6s}  {status}")


def _crash_failure(cell: JobCell, attempts: int) -> FailedCell:
    """The structured failure record of a cell that kept killing workers;
    a scenario group's record lists the scenarios that went missing."""
    kind, group = cell.payload
    if kind != "group":
        return default_crash_failure(cell, attempts)
    labels = [scenario.label() for scenario in group]
    extra = f" (+{len(labels) - 1} more)" if len(labels) > 1 else ""
    exc = WorkerCrashed(
        f"worker process died {attempts} times executing scenario group "
        f"{labels[0]}{extra}", cell_key=labels[0], attempts=attempts)
    failure = FailedCell.from_exception(labels[0], labels[0], exc,
                                        attempts=attempts)
    failure.context["scenarios"] = labels
    return failure


def _group_key(kernel: str, hardware: str, arbiter: ArbiterConfig) -> str:
    """Stable journal key of one scenario group (one simulation key).

    The arbiter's display name is suffixed with a content hash of the full
    frozen config, so two configs that happen to share a name can never
    replay each other's journaled results.
    """
    digest = hashlib.sha256(repr(arbiter).encode("utf-8")).hexdigest()[:8]
    return f"group/{kernel}/{hardware}/{arbiter.name}-{digest}"


def _outcome_from_dict(record: dict) -> ScenarioOutcome:
    """Inverse of :meth:`ScenarioOutcome.to_dict` (derived fields dropped)."""
    return ScenarioOutcome(
        kernel=record["kernel"], variant=record["variant"],
        arbiter=record["arbiter"], cores=record["cores"],
        core_id=record["core"], cycles=record["cycles"],
        wcet_cycles=record["wcet_cycles"])


def _loopcheck_from_dict(record: dict) -> LoopCheck:
    """Inverse of :meth:`LoopCheck.to_dict` (derived fields dropped)."""
    return LoopCheck(
        kernel=record["kernel"], function=record["function"],
        header=record["header"], annotated=record["annotated"],
        inferred=record["inferred"], bound=record["bound"],
        entries=record["entries"], observed=record["observed"],
        limit=record["limit"])


def _matrix_cells(scenarios: list[Scenario],
                  rtos_scenarios: tuple[RtosScenario, ...]
                  ) -> list[JobCell]:
    """The ordered journal cells of one conformance run.

    First the scenario groups (scenarios sharing a simulation key, in
    first-appearance order), then one loop-check cell per kernel, then one
    cell per response-time scenario.
    """
    groups: dict[tuple, list[Scenario]] = {}
    for scenario in scenarios:
        groups.setdefault((scenario.kernel, scenario.variant.hardware,
                           scenario.arbiter), []).append(scenario)
    cells = []
    for key, group in groups.items():
        more = f" (+{len(group) - 1} more)" if len(group) > 1 else ""
        cells.append(JobCell(_group_key(*key), group[0].label() + more,
                             ("group", group)))
    kernels = dict.fromkeys(scenario.kernel for scenario in scenarios)
    cells += [JobCell(f"loops/{kernel}", f"{kernel} loop bounds",
                      ("loops", kernel)) for kernel in kernels]
    cells += [JobCell(f"rtos/{rtos.name}", rtos.label(), ("rtos", rtos))
              for rtos in rtos_scenarios]
    return cells


def count_cells(kernels=("all",),
                variants: tuple[CacheModelVariant, ...] = DEFAULT_VARIANTS,
                arbiters: tuple[ArbiterConfig, ...] = DEFAULT_ARBITERS,
                rtos_scenarios: tuple[RtosScenario, ...] = ()) -> int:
    """How many journal cells a conformance run of this matrix executes."""
    return len(_matrix_cells(build_scenarios(kernels, variants, arbiters),
                             rtos_scenarios))


def run_conformance(kernels=("all",),
                    variants: tuple[CacheModelVariant, ...] = DEFAULT_VARIANTS,
                    arbiters: tuple[ArbiterConfig, ...] = DEFAULT_ARBITERS,
                    rtos_scenarios: tuple[RtosScenario, ...]
                    = DEFAULT_RTOS_SCENARIOS,
                    config: Optional[PatmosConfig] = None,
                    strict: bool = True,
                    jobs: int = 1,
                    progress: Optional[Callable[[str], None]] = None,
                    engine: str = "fast",
                    run_dir: Optional[RunDirectory] = None,
                    resume: bool = False
                    ) -> ConformanceReport:
    """Run the full conformance matrix and collect the report.

    Every cell — the scenario groups, the per-kernel loop checks and the
    response-time scenarios (``rtos_scenarios``; pass ``()`` to skip them)
    — executes through one :func:`repro.jobs.run_jobs` call; ``jobs > 1``
    fans them out over a heartbeat-supervised pool of warm worker
    harnesses.  The report content is identical to a sequential run
    (deterministic scenario order), only the progress lines arrive in
    completion order and ``elapsed_s`` reflects the parallel wall-clock.
    A worker that *dies* does not abort the run: its cell is re-leased
    under the default retry policy and becomes a
    :class:`~repro.errors.FailedCell` once the budget is exhausted, while
    errors *raised by* a cell (functional mismatches) always propagate.

    With a ``run_dir`` every cell transition is journaled; ``resume=True``
    replays the journal first and re-executes only cells without a
    recorded result (the resumed report is byte-identical — modulo
    ``elapsed_s`` — to an uninterrupted run).  SIGINT/SIGTERM drain
    gracefully and raise :class:`~repro.errors.SweepInterrupted` carrying
    the resume command.

    ``progress`` (if given) receives one line per finished scenario and
    per kernel's loop checks; the report itself never raises on soundness
    violations — callers decide (the CLI and the CI gate exit non-zero
    when ``violations()`` is non-empty).
    """
    if jobs < 1:
        raise VerificationError("jobs must be >= 1")
    scenarios = build_scenarios(kernels, variants, arbiters)
    started = time.perf_counter()
    #: Scenario (or rtos scenario) -> outcomes, loop cell key -> checks.
    placed: dict = {}

    def place(cell: JobCell, records: list) -> None:
        kind, arg = cell.payload
        if kind == "loops":
            placed[cell.key] = checks = [_loopcheck_from_dict(r)
                                         for r in records]
            if progress is not None:
                bad = sum(1 for check in checks if check.ok is False)
                status = "ok" if not bad else f"{bad} VIOLATIONS"
                progress(f"{cell.label:60s} "
                         f"{len(checks):3d} loops checked  {status}")
            return
        for scenario, outcome_records in (
                zip(arg, records) if kind == "group" else [(arg, records)]):
            placed[scenario] = outcomes = [_outcome_from_dict(r)
                                           for r in outcome_records]
            if progress is not None:
                _emit_progress(progress, scenario, outcomes)

    # The sequential path runs every cell on one in-process harness; only
    # ``jobs > 1`` routes cells through the pool entry point, so a test
    # that replaces ``_run_scenario_group`` only ever affects forked
    # workers, never the calling process.
    if jobs == 1:
        harness = ConformanceHarness(config=config, strict=strict,
                                     engine=engine)

        def worker(payload: tuple) -> list:
            return _run_cell(harness, payload)
    else:
        worker = _cell_worker
    cells = _matrix_cells(scenarios, rtos_scenarios)
    outcome = run_jobs(
        cells, worker, jobs=jobs, run_dir=run_dir, resume=resume,
        worker_init=_init_worker if jobs > 1 else None,
        init_args=(config, strict, engine),
        crash_failure=_crash_failure, on_result=place)

    # Scenarios missing here belong to a crash-failed cell.
    report = ConformanceReport(failures=outcome.failures)
    for scenario in (*scenarios, *rtos_scenarios):
        report.outcomes.extend(placed.get(scenario, ()))
    for cell in cells:
        report.loop_checks.extend(placed.get(cell.key, ()))
    report.elapsed_s = time.perf_counter() - started
    return report
