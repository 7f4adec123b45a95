"""Tests of the WCET analysis: IPET, cache analyses and whole-program bounds."""

import copy
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.wcet.analyzer as analyzer
import repro.wcet.block_timing as block_timing
import repro.wcet.ipet as ipet
from repro import (
    CompileOptions,
    CycleSimulator,
    PatmosConfig,
    ProgramBuilder,
    compile_and_link,
)
from repro.config import MethodCacheConfig
from repro.errors import WcetError
from repro.memory import TdmaSchedule
from repro.analysis import program_facts
from repro.program import BasicBlock, ControlFlowGraph, Function
from repro.wcet import (
    WcetOptions,
    analyse_method_cache,
    analyse_stack_cache,
    analyse_static_cache,
    analyze_wcet,
    longest_path_dag,
    solve_ipet,
    summarise_function,
)
from repro.wcet.ipet import SINK, SOURCE, FlowConstraint, _solve_milp
from repro.workloads import (
    build_kernel,
    build_call_tree,
    build_fir_filter,
    build_linear_search,
    build_matmul,
    build_mixed_access,
    build_saturate,
    build_stack_chain,
    build_vector_sum,
)


def _compiled(kernel, config=None, options=CompileOptions()):
    config = config or PatmosConfig()
    image, _ = compile_and_link(kernel.program, config, options)
    return image


class TestIpet:
    def _cfg(self, build):
        b = ProgramBuilder("p")
        f = b.function("main")
        build(f)
        program = b.build()
        return ControlFlowGraph.build(program.function("main"))

    def test_straight_line(self):
        cfg = self._cfg(lambda f: (f.li("r1", 1), f.halt()))
        result = solve_ipet(cfg, {label: 5 for label in cfg.function.block_labels()})
        assert result.wcet == 5 * len(cfg.function.blocks)

    def test_if_else_takes_longer_side(self):
        def build(f):
            f.emit("cmpineq", "p1", "r1", 0)
            f.br("else_side", pred="p1")
            f.li("r2", 1)
            f.br("join")
            f.label("else_side")
            f.li("r3", 1)
            f.label("join")
            f.halt()
        cfg = self._cfg(build)
        costs = {label: 1 for label in cfg.function.block_labels()}
        costs["else_side"] = 50
        result = solve_ipet(cfg, costs)
        assert result.wcet >= 50
        assert result.block_counts["else_side"] == 1

    def test_loop_bound_respected(self):
        def build(f):
            f.li("r1", 10)
            f.label("loop")
            f.emit("subi", "r1", "r1", 1)
            f.emit("cmpineq", "p1", "r1", 0)
            f.br("loop", pred="p1")
            f.loop_bound("loop", 10)
            f.halt()
        cfg = self._cfg(build)
        costs = {label: 1 for label in cfg.function.block_labels()}
        costs["loop"] = 7
        result = solve_ipet(cfg, costs)
        assert result.block_counts["loop"] == 10
        assert result.wcet == 10 * 7 + (len(cfg.function.blocks) - 1)

    def test_missing_loop_bound_rejected(self):
        def build(f):
            f.label("loop")
            f.emit("subi", "r1", "r1", 1)
            f.emit("cmpineq", "p1", "r1", 0)
            f.br("loop", pred="p1")
            f.halt()
        cfg = self._cfg(build)
        with pytest.raises(WcetError):
            solve_ipet(cfg, {label: 1 for label in cfg.function.block_labels()})

    def test_explicit_bound_overrides(self):
        def build(f):
            f.label("loop")
            f.emit("subi", "r1", "r1", 1)
            f.emit("cmpineq", "p1", "r1", 0)
            f.br("loop", pred="p1")
            f.halt()
        cfg = self._cfg(build)
        result = solve_ipet(cfg, {label: 1 for label in cfg.function.block_labels()},
                            loop_bounds={"loop": 4})
        assert result.block_counts["loop"] == 4

    def test_dag_longest_path_matches_ipet(self):
        def build(f):
            f.emit("cmpineq", "p1", "r1", 0)
            f.br("other", pred="p1")
            f.li("r2", 1)
            f.br("join")
            f.label("other")
            f.li("r3", 1)
            f.label("join")
            f.halt()
        cfg = self._cfg(build)
        costs = {label: 3 for label in cfg.function.block_labels()}
        assert longest_path_dag(cfg, costs) == _solve_milp(cfg, costs).wcet

    def test_flow_facts_on_loop_free_flow_go_to_the_ilp(self, monkeypatch):
        """A flow constraint on an existing edge of a loop-free CFG is not
        dropped by the longest-path shortcut: the ILP solves it and the
        constraint tightens the bound."""
        def build(f):
            f.emit("cmpineq", "p1", "r1", 0)
            f.br("other", pred="p1")
            f.li("r2", 1)
            f.br("join")
            f.label("other")
            f.li("r3", 1)
            f.label("join")
            f.halt()
        cfg = self._cfg(build)
        costs = {label: 1 for label in cfg.function.block_labels()}
        costs["other"] = 50
        into_other = next(edge for edge in cfg.edges() if edge[1] == "other")
        never = [FlowConstraint(terms=((into_other, 1.0),), upper=0.0)]
        milp_calls = []

        def recording_milp(*args, **kwargs):
            milp_calls.append(args[0])
            return _solve_milp(*args, **kwargs)

        monkeypatch.setattr(ipet, "_solve_milp", recording_milp)
        free = solve_ipet(cfg, costs)
        assert milp_calls == []
        pruned = solve_ipet(cfg, costs, flow_constraints=never)
        assert milp_calls == [cfg]
        assert pruned.wcet < free.wcet
        assert pruned.block_counts["other"] == 0
        assert pruned == _solve_milp(cfg, costs, flow_constraints=never)


@st.composite
def _dags(draw):
    """A loop-free CFG over ``b0..bN-1`` (entry ``b0``, layout shuffled)
    and costs for some of its blocks.

    Edges run from lower to higher rank only; blocks no path from the
    entry reaches, some with edges into reachable ones, occur.
    """
    n = draw(st.integers(min_value=1, max_value=9))
    rest = draw(st.permutations(range(1, n)))
    layout = [f"b{i}" for i in (0, *rest)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=3 * n))
    succs = {label: [] for label in layout}
    for a, b in pairs:
        if a != b:
            succs[f"b{min(a, b)}"].append(f"b{max(a, b)}")
    costs = draw(st.dictionaries(st.sampled_from(layout),
                                 st.integers(0, 50)))
    function = Function("dag", blocks=[BasicBlock(label)
                                       for label in layout])
    return ControlFlowGraph(function, succs), costs


class TestLongestPath:
    """The longest-path solver against the ILP oracle on random DAGs."""

    @given(_dags())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_ilp_and_returns_one_path(self, dag):
        cfg, costs = dag
        result = ipet._longest_path(cfg, costs)
        oracle = _solve_milp(cfg, costs)
        assert result.wcet == oracle.wcet
        assert solve_ipet(cfg, costs) == result
        assert longest_path_dag(cfg, costs) == result.wcet
        # Same keys as the ILP: every reachable block, every edge.
        assert result.block_counts.keys() == oracle.block_counts.keys()
        assert result.edge_counts.keys() == oracle.edge_counts.keys()
        # The taken edges chain into one source-to-sink path...
        assert set(result.edge_counts.values()) <= {0, 1}
        following = {src: dst for (src, dst), count
                     in result.edge_counts.items() if count}
        assert len(following) == sum(result.edge_counts.values())
        path = [following.pop(SOURCE)]
        while path[-1] != SINK:
            path.append(following.pop(path[-1]))
        assert not following
        path.pop()
        assert path[0] == cfg.entry and path[-1] in cfg.exits
        # ...whose blocks are the ones counted, and whose costs sum to wcet.
        assert result.block_counts == {label: int(label in path)
                                       for label in result.block_counts}
        assert sum(costs.get(label, 0) for label in path) == result.wcet


class TestCacheAnalyses:
    def test_method_cache_persistence_when_everything_fits(self, config):
        kernel = build_call_tree(num_functions=3, pad_instructions=8)
        image = _compiled(kernel, config)
        analysis = analyse_method_cache(image, config, mode="persistence")
        assert analysis.fits_all
        assert all(cost == 0 for cost in analysis.per_target_cost.values())
        assert analysis.one_off_cycles > 0

    def test_method_cache_always_miss_when_too_small(self):
        config = PatmosConfig(method_cache=MethodCacheConfig(size_bytes=512,
                                                             num_blocks=4))
        kernel = build_call_tree(num_functions=6, pad_instructions=40)
        image = _compiled(kernel, config)
        analysis = analyse_method_cache(image, config, mode="persistence")
        assert not analysis.fits_all
        assert any(cost > 0 for cost in analysis.per_target_cost.values())

    def test_static_cache_persistence_checks_conflicts(self, config):
        kernel = build_vector_sum(16)
        image = _compiled(kernel, config)
        analysis = analyse_static_cache(image, config, mode="persistence")
        assert analysis.persistent
        assert analysis.per_read_cost == 0
        assert analysis.one_off_cycles > 0

    def test_unified_cache_analysis_is_pessimistic(self, config):
        kernel = build_vector_sum(16)
        image = _compiled(kernel, config)
        unified = analyse_static_cache(image, config, unified=True)
        assert not unified.persistent
        assert unified.per_read_cost > 0

    def test_stack_cache_refined_beats_naive(self, config):
        kernel = build_stack_chain(depth=8, frame_words=40)
        image = _compiled(kernel, config)
        frames = {name: 42 for name in image.program.functions}
        frames["main"] = 2
        refined = analyse_stack_cache(image.program, config, frames,
                                      mode="refined")
        naive = analyse_stack_cache(image.program, config, frames, mode="naive")
        assert sum(refined.spill_words.values()) <= sum(naive.spill_words.values())
        # The first levels fit in the cache, so their sres never spills.
        assert refined.spill_words["level0"] == 0

    def test_stack_cache_rejects_recursion(self, config):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.call("main")
        f.halt()
        with pytest.raises(WcetError):
            analyse_stack_cache(b.build(), config, {"main": 2})


class TestBlockSummaries:
    def test_summary_counts_events(self, config):
        kernel = build_mixed_access(8)
        image = _compiled(kernel, config)
        summaries = summarise_function(image.program.function("main"))
        from repro.isa import MemType
        reads = {mem_type: 0 for mem_type in MemType}
        for summary in summaries.values():
            for mem_type in MemType:
                reads[mem_type] += summary.read_count(mem_type)
        assert reads[MemType.STATIC] >= 1
        assert reads[MemType.OBJECT] >= 1
        assert reads[MemType.STACK] >= 1
        assert reads[MemType.LOCAL] >= 1


KERNEL_BUILDERS = [
    ("vector_sum", build_vector_sum, {}),
    ("fir_filter", build_fir_filter, {}),
    ("matmul", build_matmul, {}),
    ("saturate", build_saturate, {}),
    ("linear_search", build_linear_search, {}),
    ("call_tree", build_call_tree, {}),
    ("stack_chain", build_stack_chain, {}),
    ("mixed_access", build_mixed_access, {}),
]


class TestWholeProgramBounds:
    @pytest.mark.parametrize("name,builder,kwargs", KERNEL_BUILDERS,
                             ids=[k[0] for k in KERNEL_BUILDERS])
    def test_bound_is_sound_and_reasonably_tight(self, config, name, builder,
                                                 kwargs):
        kernel = builder(**kwargs)
        image = _compiled(kernel, config)
        observed = CycleSimulator(image, strict=True).run()
        assert observed.output == kernel.expected_output
        result = analyze_wcet(image, config)
        assert result.wcet_cycles >= observed.cycles, name
        # The exposed-delay pipeline and analysable caches keep the bound
        # within a small factor of the observation for these kernels.
        assert result.tightness(observed.cycles) < 6.0, name

    def test_conventional_icache_analysis_is_more_pessimistic(self, config):
        # With a cache smaller than the program, the conventional-I$ analysis
        # has to assume every fetch misses, while the method-cache analysis
        # still only pays at call/return — the paper's analysability argument.
        kernel = build_call_tree(num_functions=4, iterations=4)
        small = config.with_(method_cache=MethodCacheConfig(size_bytes=512,
                                                            num_blocks=4))
        image = _compiled(kernel, small)
        method = analyze_wcet(image, small)
        conventional = analyze_wcet(
            image, small, options=WcetOptions(conventional_icache=True))
        assert conventional.wcet_cycles > method.wcet_cycles
        assert conventional.icache is not None
        assert not conventional.icache.fits_whole_program

    def test_unified_cache_bound_larger_than_split(self, config):
        kernel = build_mixed_access(16)
        image = _compiled(kernel, config)
        split = analyze_wcet(image, config)
        unified = analyze_wcet(image, config,
                               options=WcetOptions(unified_data_cache=True))
        assert unified.wcet_cycles > split.wcet_cycles

    def test_tdma_increases_bound(self, config):
        kernel = build_vector_sum(16)
        image = _compiled(kernel, config)
        alone = analyze_wcet(image, config)
        shared = analyze_wcet(image, config, options=WcetOptions(
            tdma=TdmaSchedule(num_cores=4,
                              slot_cycles=config.memory.burst_cycles())))
        assert shared.wcet_cycles > alone.wcet_cycles

    def test_round_robin_interference_model(self, config):
        kernel = build_vector_sum(16)
        image = _compiled(kernel, config)
        alone = analyze_wcet(image, config)
        two = analyze_wcet(image, config, options=WcetOptions(
            arbiter="round_robin", arbiter_cores=2))
        four = analyze_wcet(image, config, options=WcetOptions(
            arbiter="round_robin", arbiter_cores=4))
        # (N - 1) maximal transfers per access: grows with the core count.
        assert alone.wcet_cycles < two.wcet_cycles < four.wcet_cycles
        # The four-core round-robin bound beats the four-core TDMA bound
        # (period - 1 > 3 bursts), which is the paper's point: round-robin
        # *bounds* are not the problem, their co-runner dependence is.
        tdma = analyze_wcet(image, config, options=WcetOptions(
            tdma=TdmaSchedule(num_cores=4,
                              slot_cycles=config.memory.burst_cycles())))
        assert four.wcet_cycles <= tdma.wcet_cycles

    def test_priority_interference_model(self, config):
        kernel = build_vector_sum(16)
        image = _compiled(kernel, config)
        alone = analyze_wcet(image, config)
        top = analyze_wcet(image, config, options=WcetOptions(
            arbiter="priority", arbiter_cores=4))
        assert alone.wcet_cycles < top.wcet_cycles
        with pytest.raises(WcetError, match="priority"):
            analyze_wcet(image, config, options=WcetOptions(
                arbiter="priority", arbiter_cores=4, priority_rank=1))

    def test_unknown_arbiter_model_rejected(self, config):
        kernel = build_vector_sum(16)
        image = _compiled(kernel, config)
        with pytest.raises(WcetError, match="unknown arbiter"):
            analyze_wcet(image, config, options=WcetOptions(
                arbiter="lottery", arbiter_cores=2))

    def test_indirect_calls_rejected(self, config):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.li("r1", 0x10000)
        f.emit("callr", "r1")
        f.halt()
        image, _ = compile_and_link(b.build(), config)
        with pytest.raises(WcetError):
            analyze_wcet(image, config)

    def test_summary_and_per_function_breakdown(self, config):
        kernel = build_call_tree(num_functions=3)
        image = _compiled(kernel, config)
        result = analyze_wcet(image, config)
        assert "main" in result.per_function
        assert "work0" in result.per_function
        assert "main" in result.summary()

    def test_single_path_bound_equals_observation(self, config):
        # Single-path code over scratchpad data: the WCET bound and the
        # observation coincide apart from the one-off cache fills.
        kernel = build_linear_search(24, key_index=3)
        image = _compiled(kernel, config, CompileOptions(single_path=True))
        observed = CycleSimulator(image, strict=True).run()
        result = analyze_wcet(image, config)
        assert result.wcet_cycles >= observed.cycles
        assert result.tightness(observed.cycles) < 1.2


def _option_sets(program):
    """Analysis options that change block costs and loop bounds, with a
    repeat of the default."""
    header = program_facts(program).functions["main"].cfg.natural_loops()[0]
    return (WcetOptions(),
            WcetOptions(method_cache="always_miss"),
            WcetOptions(stack_cache="naive"),
            WcetOptions(tdma=TdmaSchedule(num_cores=2, slot_cycles=20)),
            WcetOptions(loop_bounds={("main", header.header): 40}),
            WcetOptions())


class TestPerCfgMemo:
    """Block summaries and IPET solutions are shared by every analysis of
    one program, without changing any bound."""

    KERNELS = ("call_tree", "large_function")

    def _images(self):
        return [_compiled(build_kernel(name)) for name in self.KERNELS]

    def test_bounds_equal_direct_solves(self):
        for image in self._images():
            facts = program_facts(image.program)
            for options in _option_sets(image.program):
                result = analyze_wcet(image, options=options)
                for name, func in result.per_function.items():
                    func_facts = facts.functions[name]
                    bounds = func_facts.effective_bounds()
                    bounds.update({
                        label: bound for (owner, label), bound
                        in options.loop_bounds.items() if owner == name})
                    args = (func_facts.cfg, func.block_costs, bounds,
                            func_facts.flow_constraints())
                    assert func.ipet == solve_ipet(*args)
                    assert func.wcet_cycles == _solve_milp(*args).wcet

    def test_one_solve_per_distinct_instance(self, monkeypatch):
        solved = []

        def recording_solve(cfg, block_costs, loop_bounds=None,
                            flow_constraints=None):
            solved.append((cfg, tuple(block_costs.items()),
                           tuple(sorted((loop_bounds or {}).items())),
                           tuple(flow_constraints or ())))
            return solve_ipet(cfg, block_costs, loop_bounds,
                              flow_constraints=flow_constraints)

        monkeypatch.setattr(analyzer, "solve_ipet", recording_solve)
        for image in self._images():
            for options in _option_sets(image.program):
                analyze_wcet(image, options=options)
        assert solved
        assert len(solved) == len(set(solved))

    def test_results_are_copies(self):
        image = self._images()[0]
        first = analyze_wcet(image)
        expected = copy.deepcopy(first.per_function)
        for func in first.per_function.values():
            func.ipet.wcet = -1
            func.ipet.block_counts.clear()
            for edge in func.ipet.edge_counts:
                func.ipet.edge_counts[edge] = 99
        again = analyze_wcet(image)
        assert again.per_function == expected

    def test_blocks_summarised_once_per_program(self, monkeypatch):
        summarised = Counter()
        summarise = block_timing.summarise_block

        def counting_summarise(function, block):
            summarised[(function.name, block.label)] += 1
            return summarise(function, block)

        monkeypatch.setattr(block_timing, "summarise_block",
                            counting_summarise)
        for image in self._images():
            summarised.clear()
            for options in _option_sets(image.program):
                analyze_wcet(image, options=options)
            blocks = sum(len(function.blocks)
                         for function in image.program.functions.values())
            assert 0 < sum(summarised.values()) <= blocks
            assert max(summarised.values()) == 1
