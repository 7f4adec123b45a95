"""Per-layer tracing from outside the library: wrappers around public calls.

:meth:`Tracer.install` replaces each traced function or method of
:mod:`repro` with a wrapper, in its defining module and in every module
that imported it by name, so no library code changes.  Wrappers keep a
span stack: a span's *self* time is its duration minus the time of the
spans it encloses, so the per-layer seconds add up without double
counting.  The tracer's own bookkeeping (content keys, result counters)
is charged to no span.

Spans are recorded in the process that installed the tracer only.  Forked
pool workers inherit the wrappers but call straight through, so for a
parallel sweep the layer figures cover the parent process; the worker side
is measured from the parent through the journal timestamps and the
reaped-children CPU counters (see :meth:`Tracer.jobs_metrics`).

Per-layer seconds are wall time as measured, not scaled to the host-speed
probe's reference speed.  The probe (``hostspeed.py``) runs in traced
sweeps too, between bytecodes of whatever span is open, so each layer's
self time includes its share of the probes (a few percent of the sweep).
"""

from __future__ import annotations

import functools
import hashlib
import os
import resource
import sys
import time
from collections import defaultdict

#: The seven ``SimResult.stalls`` causes.
STALL_CAUSES = ("method_cache", "icache", "data_cache", "stack_cache",
                "split_load_wait", "store_buffer", "arbitration")

#: Public ``ControlFlowGraph`` methods, traced together as ``program.cfg``.
CFG_METHODS = ("build", "successors", "predecessors", "edges", "reachable",
               "dominators", "dominates", "back_edges", "natural_loops",
               "loop_of", "loop_nest_depth", "is_reducible",
               "topological_order")

#: Layer of every span name (first dotted component unless listed here).
_LAYER_OF = {"memory": "cmp"}


def layer_of(span: str) -> str:
    head = span.split(".", 1)[0]
    return _LAYER_OF.get(head, head)


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module attribute that is ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Span stack, call counters and content-key sets of one traced sweep."""

    def __init__(self):
        self.pid = os.getpid()
        #: Set while the tracer computes its own keys, so the library
        #: calls it makes for that are not recorded.
        self.paused = False
        self.stack: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        #: (monotonic time, key, state, worker) of every journaled cell
        #: transition, stamped in this process.
        self.cell_records: list[tuple] = []
        self.run_jobs_spans: list[dict] = []
        self._image_hash: dict[int, tuple] = {}

    # Wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, span: bool = True):
        """Wrapper of ``fn``: a span named ``name`` (or a plain counter
        when ``span`` is False); ``after(args, kwargs, result)`` runs
        outside every span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused or os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            started = time.perf_counter()
            if span:
                tracer.stack.append(0.0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    inner = tracer.stack.pop()
                    tracer.self_s[name] += \
                        time.perf_counter() - started - inner
            else:
                # A counter: the call's time stays with the enclosing span.
                result = fn(*args, **kwargs)
                started = time.perf_counter()
            tracer.calls[name] += 1
            if after is not None:
                after(args, kwargs, result)
            if tracer.stack:
                tracer.stack[-1] += time.perf_counter() - started
            return result

        return wrapper

    # A traced call the library no longer has is skipped (its metrics read
    # 0), so a change that removes one can still be traced.

    def _function(self, module, attr: str, name: str, after=None,
                  span: bool = True) -> None:
        original = getattr(module, attr, None)
        if original is not None:
            _replace_everywhere(original,
                                self._wrap(name, original, after, span))

    def _method(self, cls, attr: str, name: str, after=None,
                span: bool = True) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__, after, span))
        else:
            wrapped = self._wrap(name, raw, after, span)
        setattr(cls, attr, wrapped)

    # Content keys -----------------------------------------------------

    def image_hash(self, image) -> str:
        entry = self._image_hash.get(id(image))
        if entry is None or entry[0] is not image:
            entry = (image, image.content_hash())
            self._image_hash[id(image)] = entry
        return entry[1]

    def _after_compile(self, args, kwargs, result) -> None:
        image = result[0]
        self.keys["compiler.images"].add(self.image_hash(image))
        self.counts["compiler.bundles"] += len(image.bundles)

    def _after_wcet(self, args, kwargs, result) -> None:
        image = args[0]
        config = args[1] if len(args) > 1 else kwargs.get("config")
        options = args[2] if len(args) > 2 else kwargs.get("options")
        entry = args[3] if len(args) > 3 else kwargs.get("entry")
        self.keys["wcet.analyze_wcet"].add((
            self.image_hash(image),
            config.content_hash() if config is not None else None,
            repr(sorted(options.to_dict().items()))
            if options is not None else None, entry))

    def _after_ipet(self, args, kwargs, result) -> None:
        names = ("cfg", "block_costs", "loop_bounds", "flow_constraints")
        bound = dict(zip(names, args))
        bound.update(kwargs)
        cfg = bound["cfg"]
        self.paused = True
        try:
            edges = sorted(cfg.edges())
            loop_free = not cfg.natural_loops()
        finally:
            self.paused = False
        key = repr((edges, sorted(bound["block_costs"].items()),
                    sorted((bound.get("loop_bounds") or {}).items()),
                    [repr(c) for c in bound.get("flow_constraints") or ()]))
        self.keys["wcet.solve_ipet"].add(
            hashlib.sha256(key.encode("utf-8")).hexdigest())
        if loop_free:
            self.counts["wcet.solve_ipet.loop_free"] += 1

    def _count_sim(self, result) -> None:
        for cause, cycles in result.stalls.to_dict().items():
            self.counts[f"sim.stall_cycles.{cause}"] += cycles
        for cache in ("method_cache", "static_cache"):
            stats = result.cache_stats.get(cache)
            if stats:
                self.counts[f"caches.{cache}.accesses"] += stats["accesses"]
                self.counts[f"caches.{cache}.misses"] += stats["misses"]

    def _after_sim(self, args, kwargs, result) -> None:
        self.counts["sim.bundles"] += result.bundles
        self.counts["sim.cycles"] += result.cycles
        self._count_sim(result)

    def _after_cmp(self, args, kwargs, result) -> None:
        for core in result.cores:
            self.counts["cmp.bundles"] += core.sim.bundles
            self._count_sim(core.sim)
        totals = result.system_stats()["totals"]
        self.counts["memory.arbitration_cycles"] += \
            totals["arbitration_cycles"]
        self.counts["memory.words_transferred"] += totals["words_transferred"]

    # Installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced call of the (already importable) library."""
        import repro.analysis.facts as facts
        import repro.cmp.system as cmp_system
        import repro.compiler.passes as passes
        import repro.compiler.scheduler as scheduler
        import repro.explore.runner as explore_runner
        import repro.jobs.journal as journal
        import repro.jobs.supervisor as supervisor
        import repro.program.cfg as cfg
        import repro.program.linker as linker
        import repro.rtos.system as rtos_system
        import repro.sim.base as sim_base
        import repro.verify.harness as harness
        import repro.wcet.analyzer as analyzer
        import repro.wcet.cache_analysis as cache_analysis
        import repro.wcet.ipet as ipet
        import repro.workloads.suite as suite

        graph = cfg.ControlFlowGraph

        self._function(suite, "build_kernel", "workloads.build_kernel")
        self._function(passes, "compile_and_link",
                       "compiler.compile_and_link", self._after_compile)
        self._function(passes, "compile_program", "compiler.compile_program")
        self._function(scheduler, "schedule_program",
                       "compiler.schedule_program")
        self._function(linker, "link", "program.link")
        for method in CFG_METHODS:
            name = ("program.cfg.dominates" if method == "dominates"
                    else "program.cfg")
            self._method(graph, method, name)
        self._function(analyzer, "analyze_wcet", "wcet.analyze_wcet",
                       self._after_wcet)
        self._function(ipet, "solve_ipet", "wcet.solve_ipet",
                       self._after_ipet)
        for attr in ("analyse_method_cache", "analyse_conventional_icache",
                     "analyse_static_cache", "analyse_object_cache",
                     "analyse_stack_cache"):
            self._function(cache_analysis, attr, "wcet.cache_analysis")
        self._function(facts, "program_facts", "analysis.program_facts")
        self._function(facts, "analyse_program", "analysis.analyse_program",
                       span=False)
        self._method(sim_base.BaseSimulator, "run", "sim.run",
                     self._after_sim)
        self._method(cmp_system.MulticoreSystem, "run", "cmp.run",
                     self._after_cmp)
        self._method(rtos_system.RtosSystem, "run", "rtos.run")
        harness_cls = harness.ConformanceHarness
        self._method(harness_cls, "run_scenario", "verify.run_scenario")
        self._method(harness_cls, "run_loop_checks", "verify.run_loop_checks")
        self._method(harness_cls, "run_rtos_scenario",
                     "verify.run_rtos_scenario")
        self._install_sim_reuse(harness_cls)
        self._function(explore_runner, "execute_spec", "explore.execute_spec")
        self._install_jobs(journal.Journal, supervisor)

    def _install_sim_reuse(self, harness_cls) -> None:
        original = harness_cls.__dict__.get("_simulate")
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def simulate(harness, kernel, variant, arbiter):
            if os.getpid() == tracer.pid:
                tracer.calls["verify.simulate"] += 1
                memo = getattr(harness, "_sims", {})
                if (kernel, variant.hardware, arbiter) in memo:
                    tracer.counts["verify.sim_reused"] += 1
            return original(harness, kernel, variant, arbiter)

        harness_cls._simulate = simulate

    def _install_jobs(self, journal_cls, supervisor) -> None:
        tracer = self
        cell = journal_cls.__dict__["cell"]

        @functools.wraps(cell)
        def stamped_cell(journal, key, state, attempt, worker=None,
                         payload=None):
            if os.getpid() == tracer.pid:
                tracer.cell_records.append(
                    (time.monotonic(), key, state, worker))
            return cell(journal, key, state, attempt, worker=worker,
                        payload=payload)

        journal_cls.cell = stamped_cell
        self._method(journal_cls, "append", "jobs.journal.append",
                     span=False)
        self._method(journal_cls, "commit", "jobs.journal.commit")

        original = supervisor.run_jobs
        run_jobs_span = self._wrap("jobs.run_jobs", original)

        @functools.wraps(original)
        def run_jobs(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return original(*args, **kwargs)
            parent, children = _cpu_s(resource.RUSAGE_SELF), \
                _cpu_s(resource.RUSAGE_CHILDREN)
            wall = time.monotonic()
            try:
                return run_jobs_span(*args, **kwargs)
            finally:
                tracer.run_jobs_spans.append({
                    "start": wall, "end": time.monotonic(),
                    "jobs": kwargs.get("jobs", 1),
                    "parent_cpu": _cpu_s(resource.RUSAGE_SELF) - parent,
                    "children_cpu":
                        _cpu_s(resource.RUSAGE_CHILDREN) - children})

        _replace_everywhere(original, run_jobs)

    # Results ----------------------------------------------------------

    def jobs_metrics(self) -> dict[str, float]:
        """``jobs.*`` figures from the parent's journal timestamps."""
        overhead = supervisor_cpu = worker_cpu = tail = 0.0
        lost = sum(1 for record in self.cell_records if record[2] == "lost")
        for span in self.run_jobs_spans:
            inside = [r for r in self.cell_records
                      if span["start"] <= r[0] <= span["end"]]
            started: dict[str, tuple] = {}
            busy = 0.0
            last_done: dict = {}
            for stamp, key, state, worker in inside:
                if state == "running":
                    started[key] = (stamp, worker)
                elif state in ("done", "failed") and key in started:
                    began, slot = started.pop(key)
                    busy += stamp - began
                    last_done[slot] = stamp
            width = max(1, min(span["jobs"], len(last_done) or 1))
            overhead += (span["end"] - span["start"]) - busy / width
            supervisor_cpu += span["parent_cpu"]
            worker_cpu += span["children_cpu"]
            finishes = sorted(last_done.values())
            if len(finishes) > 1:
                tail += finishes[-1] - finishes[-2]
        return {"jobs.run_jobs.overhead_s": overhead,
                "jobs.journal.records": self.calls["jobs.journal.append"],
                "jobs.journal.commit.s": self.self_s["jobs.journal.commit"],
                "jobs.supervisor_cpu_s": supervisor_cpu,
                "jobs.worker_cpu_s": worker_cpu,
                "jobs.tail_s": tail,
                "jobs.lost_workers": lost}

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer over every recorded span."""
        totals: dict[str, float] = defaultdict(float)
        for span, seconds in self.self_s.items():
            totals[layer_of(span)] += seconds
        return dict(totals)

    def metrics(self, cells: int) -> dict[str, float]:
        """Every per-layer metric of a sweep of ``cells`` cells (0 where
        a layer is not used)."""
        s, calls, counts = self.self_s, self.calls, self.counts

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        def rate(work: float, seconds: float) -> float:
            return work / seconds if seconds else 0.0

        compiles = calls["compiler.compile_and_link"]
        ipet_calls = calls["wcet.solve_ipet"]
        explore_calls = calls["explore.execute_spec"]
        metrics = {
            "workloads.build_kernel.s": s["workloads.build_kernel"],
            "compiler.compile_program.calls":
                calls["compiler.compile_program"],
            "compiler.compile_program.s": s["compiler.compile_program"],
            "compiler.schedule_program.s": s["compiler.schedule_program"],
            "compiler.unique_share":
                share(len(self.keys["compiler.images"]), compiles),
            "compiler.bundles": counts["compiler.bundles"],
            "program.link.s": s["program.link"],
            "program.cfg.s": s["program.cfg"] + s["program.cfg.dominates"],
            "program.cfg.dominates.calls": calls["program.cfg.dominates"],
            "wcet.analyze_wcet.calls": calls["wcet.analyze_wcet"],
            "wcet.analyze_wcet.s": s["wcet.analyze_wcet"],
            "wcet.analyze_wcet.unique_share":
                share(len(self.keys["wcet.analyze_wcet"]),
                      calls["wcet.analyze_wcet"]),
            "wcet.solve_ipet.calls": ipet_calls,
            "wcet.solve_ipet.s": s["wcet.solve_ipet"],
            "wcet.solve_ipet.unique_share":
                share(len(self.keys["wcet.solve_ipet"]), ipet_calls),
            "wcet.solve_ipet.loop_free_share":
                share(counts["wcet.solve_ipet.loop_free"], ipet_calls),
            "wcet.cache_analysis.s": s["wcet.cache_analysis"],
            "analysis.program_facts.s": s["analysis.program_facts"],
            "analysis.analyse_program.calls":
                calls["analysis.analyse_program"],
            "sim.run.calls": calls["sim.run"],
            "sim.run.s": s["sim.run"],
            "sim.bundles": counts["sim.bundles"],
            "sim.bundles_per_s": rate(counts["sim.bundles"], s["sim.run"]),
            "sim.cycles": counts["sim.cycles"],
        }
        for cause in STALL_CAUSES:
            metrics[f"sim.stall_cycles.{cause}"] = \
                counts[f"sim.stall_cycles.{cause}"]
        metrics.update({
            "cmp.run.calls": calls["cmp.run"],
            "cmp.run.s": s["cmp.run"],
            "cmp.bundles": counts["cmp.bundles"],
            "cmp.bundles_per_s": rate(counts["cmp.bundles"], s["cmp.run"]),
            "memory.arbitration_cycles": counts["memory.arbitration_cycles"],
            "memory.words_transferred": counts["memory.words_transferred"],
            "caches.method_cache.miss_share":
                share(counts["caches.method_cache.misses"],
                      counts["caches.method_cache.accesses"]),
            "caches.static_cache.miss_share":
                share(counts["caches.static_cache.misses"],
                      counts["caches.static_cache.accesses"]),
            "rtos.run.s": s["rtos.run"],
            "verify.run_scenario.s": s["verify.run_scenario"],
            "verify.run_loop_checks.s": s["verify.run_loop_checks"],
            "verify.sim_reuse_share":
                share(counts["verify.sim_reused"], calls["verify.simulate"]),
            "explore.execute_spec.s": s["explore.execute_spec"],
            "explore.duplicate_share":
                1.0 - share(explore_calls, cells) if explore_calls else 0.0,
        })
        metrics.update(self.jobs_metrics())
        return metrics
