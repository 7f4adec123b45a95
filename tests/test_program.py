"""Tests for the builder, CFG, call graph and linker."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PatmosConfig
from repro.errors import CompilerError, IsaError, LinkError, WcetError
from repro.isa import Opcode
from repro.program import (
    BasicBlock,
    CallGraph,
    ControlFlowGraph,
    DataSpace,
    Function,
    ProgramBuilder,
    link,
    parse_guard,
)
from repro.compiler import compile_program


def _branchy_function():
    b = ProgramBuilder("p")
    f = b.function("main")
    f.li("r1", 3)
    f.label("loop")
    f.emit("subi", "r1", "r1", 1)
    f.emit("cmpineq", "p1", "r1", 0)
    f.br("loop", pred="p1")
    f.loop_bound("loop", 3)
    f.halt()
    return b.build()


class TestBuilder:
    def test_blocks_split_at_labels_and_branches(self):
        program = _branchy_function()
        main = program.function("main")
        labels = main.block_labels()
        assert "loop" in labels
        assert labels[0].startswith(".L")  # auto-generated entry block
        loop_block = main.block("loop")
        assert loop_block.terminator().opcode is Opcode.BR

    def test_loop_bound_attached(self):
        program = _branchy_function()
        assert program.function("main").block("loop").loop_bound == 3

    def test_loop_bound_for_unknown_label_rejected(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.halt()
        f.loop_bound("nowhere", 5)
        with pytest.raises(CompilerError):
            b.build()

    def test_duplicate_function_rejected(self):
        b = ProgramBuilder("p")
        b.function("main")
        with pytest.raises(CompilerError):
            b.function("main")

    def test_duplicate_data_rejected(self):
        b = ProgramBuilder("p")
        b.data("x", [1])
        with pytest.raises(CompilerError):
            b.data("x", [2])

    def test_unknown_call_target_rejected(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.call("missing")
        f.halt()
        with pytest.raises(LinkError):
            b.build()

    def test_li_small_uses_lil(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.li("r1", 100)
        f.li("r2", 1 << 20)
        f.li("r3", "symbol")
        f.halt()
        b.data("symbol", [0])
        program = b.build()
        opcodes = [i.opcode for i in program.function("main").instructions()]
        assert opcodes[0] is Opcode.LIL
        assert opcodes[1] is Opcode.ADDL
        assert opcodes[2] is Opcode.ADDL

    def test_parse_guard(self):
        assert parse_guard(None).is_always
        assert parse_guard("p3").pred == 3
        assert parse_guard("!p2").negate
        with pytest.raises(IsaError):
            parse_guard("p9")

    def test_emit_operand_count_checked(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        with pytest.raises(IsaError):
            f.emit("add", "r1", "r2")


class TestControlFlowGraph:
    def test_simple_loop_cfg(self):
        program = _branchy_function()
        cfg = ControlFlowGraph.build(program.function("main"))
        loops = cfg.natural_loops()
        assert len(loops) == 1
        assert loops[0].header == "loop"
        assert loops[0].bound == 3
        assert cfg.is_reducible()

    def test_successors_of_conditional_branch(self):
        program = _branchy_function()
        cfg = ControlFlowGraph.build(program.function("main"))
        succs = cfg.successors("loop")
        assert "loop" in succs
        assert len(succs) == 2  # back edge and fall-through

    def test_nested_loops_detected(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.li("r1", 3)
        f.label("outer")
        f.li("r2", 4)
        f.label("inner")
        f.emit("subi", "r2", "r2", 1)
        f.emit("cmpineq", "p1", "r2", 0)
        f.br("inner", pred="p1")
        f.loop_bound("inner", 4)
        f.emit("subi", "r1", "r1", 1)
        f.emit("cmpineq", "p2", "r1", 0)
        f.br("outer", pred="p2")
        f.loop_bound("outer", 3)
        f.halt()
        cfg = ControlFlowGraph.build(b.build().function("main"))
        headers = {loop.header for loop in cfg.natural_loops()}
        assert headers == {"outer", "inner"}
        assert cfg.loop_nest_depth("inner") == 2
        assert cfg.loop_nest_depth("outer") == 1

    def test_dominators(self):
        program = _branchy_function()
        main = program.function("main")
        cfg = ControlFlowGraph.build(main)
        entry = main.entry_block().label
        assert cfg.dominates(entry, "loop")
        assert not cfg.dominates("loop", entry)

    def test_branch_to_unknown_label_rejected(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.br("nowhere")
        f.halt()
        program = b.build()
        with pytest.raises(WcetError):
            ControlFlowGraph.build(program.function("main"))


@st.composite
def _digraphs(draw):
    """Successor lists over ``b0..bN-1`` (entry ``b0``), in draw order.

    Duplicate edges, self-loops, unreachable blocks and irreducible
    regions all occur.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    labels = [f"b{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=3 * n))
    succs = {label: [] for label in labels}
    for src, dst in pairs:
        succs[labels[src]].append(labels[dst])
    return succs


def _cfg_of(succs):
    function = Function("g", blocks=[BasicBlock(label) for label in succs])
    return ControlFlowGraph(function, succs)


def _oracle_dominators(succs, entry):
    """Reachable set and full dominator sets, by the textbook iteration."""
    reach = {entry}
    stack = [entry]
    while stack:
        for succ in succs[stack.pop()]:
            if succ not in reach:
                reach.add(succ)
                stack.append(succ)
    preds = {node: {p for p in reach if node in succs[p]} for node in reach}
    dom = {node: set(reach) for node in reach}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for node in reach - {entry}:
            new = {node} | set.intersection(*(dom[p] for p in preds[node]))
            if new != dom[node]:
                dom[node] = new
                changed = True
    return reach, dom


class TestControlFlowGraphProperties:
    """The one-pass CFG analysis against naive set-based definitions."""

    @given(_digraphs())
    @settings(max_examples=300, deadline=None)
    def test_analysis_matches_definitions(self, succs):
        cfg = _cfg_of(succs)
        labels = list(succs)
        reach, dom = _oracle_dominators(succs, "b0")
        edges = [(src, dst) for src in labels
                 for dst in dict.fromkeys(succs[src])]
        assert cfg.edges() == edges
        assert cfg.reachable() == reach

        # Dominance: a dominates b iff a is in b's dominator set (every
        # block dominates itself, reachable or not).
        for a in labels:
            for b in labels:
                expected = a == b or (b in reach and a in dom[b])
                assert cfg.dominates(a, b) == expected, (a, b)
        # The immediate dominator is the strict dominator with the most
        # dominators of its own.
        assert cfg.dominators() == {
            node: max(dom[node] - {node}, key=lambda d: len(dom[d]))
            for node in reach - {"b0"}}

        # Back edges: edges whose head dominates their tail, in edge order.
        back = [(tail, head) for tail, head in edges
                if tail in reach and head in dom[tail]]
        assert cfg.back_edges() == back

        # Natural loops: per header, the header plus every block that
        # reaches a back-edge tail without passing through the header.
        expected_loops = {}
        for tail, head in back:
            body = expected_loops.setdefault(head, {head})
            stack = [tail]
            while stack:
                node = stack.pop()
                if node not in body:
                    body.add(node)
                    stack.extend(p for p in labels
                                 if node in succs[p] and p != head)
        loops = cfg.natural_loops()
        assert [loop.header for loop in loops] == list(expected_loops)
        for loop in loops:
            assert loop.body == expected_loops[loop.header]
            assert loop.back_edges == {e for e in back if e[1] == loop.header}
        for label in labels:
            containing = [loop for loop in loops if label in loop.body]
            assert cfg.loop_nest_depth(label) == len(containing)
            assert cfg.loop_of(label) == min(
                containing, key=lambda loop: len(loop.body), default=None)

        # Topological order of the forward-edge DAG, generation by
        # generation (Kahn); none exists if forward edges close a cycle.
        forward = [(src, dst) for src, dst in edges
                   if src in reach and (src, dst) not in back]
        generation = {}
        remaining = set(reach)
        level = 0
        while True:
            sources = {node for node in remaining
                       if not any(dst == node and src in remaining
                                  for src, dst in forward)}
            if not sources:
                break
            generation.update(dict.fromkeys(sources, level))
            remaining -= sources
            level += 1
        assert cfg.is_reducible() == (not remaining)
        if remaining:
            with pytest.raises(WcetError):
                cfg.topological_order()
            return
        order = cfg.topological_order()
        assert sorted(order) == sorted(reach)
        position = {node: index for index, node in enumerate(order)}
        assert all(position[src] < position[dst] for src, dst in forward)
        levels = [generation[node] for node in order]
        assert levels == sorted(levels)
        # The first generation keeps block order.
        assert order[:levels.count(0)] == [
            label for label in labels if generation.get(label) == 0]

    def test_two_entry_loop_is_irreducible(self):
        cfg = _cfg_of({"entry": ["a", "b"], "a": ["b"], "b": ["a", "exit"],
                       "exit": []})
        assert not cfg.is_reducible()
        assert cfg.back_edges() == []
        assert cfg.natural_loops() == []
        with pytest.raises(WcetError):
            cfg.topological_order()

    def test_queries_return_copies(self):
        cfg = _cfg_of({"entry": ["loop"], "loop": ["loop", "exit"],
                       "exit": []})
        for query in (cfg.edges(), cfg.back_edges(), cfg.natural_loops(),
                      cfg.topological_order(), cfg.successors("loop"),
                      cfg.predecessors("loop")):
            query.clear()
        cfg.dominators().clear()
        assert cfg.edges() == [("entry", "loop"), ("loop", "loop"),
                               ("loop", "exit")]
        assert cfg.back_edges() == [("loop", "loop")]
        assert [loop.header for loop in cfg.natural_loops()] == ["loop"]
        assert cfg.topological_order() == ["entry", "loop", "exit"]
        assert cfg.successors("loop") == ["loop", "exit"]
        assert cfg.predecessors("loop") == ["entry", "loop"]
        assert cfg.dominators() == {"loop": "entry", "exit": "loop"}
        assert isinstance(cfg.reachable(), frozenset)


class TestCallGraph:
    def _call_chain(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.call("middle")
        f.halt()
        g = b.function("middle")
        g.call("leaf")
        g.ret()
        h = b.function("leaf")
        h.ret()
        return b.build()

    def test_callees_and_depth(self):
        cg = CallGraph.build(self._call_chain())
        assert cg.callees("main") == ["middle"]
        assert cg.callers("leaf") == ["middle"]
        assert not cg.is_recursive()
        assert cg.max_call_depth() == 3

    def test_call_paths(self):
        cg = CallGraph.build(self._call_chain())
        assert cg.call_paths() == [["main", "middle", "leaf"]]

    def test_recursion_detected(self):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.call("main")
        f.halt()
        cg = CallGraph.build(b.build())
        assert cg.is_recursive()
        with pytest.raises(WcetError):
            cg.max_call_depth()

    def test_topological_order_callees_first(self):
        cg = CallGraph.build(self._call_chain())
        order = cg.topological_order(root="main")
        assert order.index("leaf") < order.index("middle") < order.index("main")


    def test_recursion_order_and_reachability_from_other_roots(self):
        b = ProgramBuilder("p")
        for name, callees in (("main", ["a", "b"]), ("a", ["c"]),
                              ("b", ["c"]), ("c", []), ("d", ["a"])):
            f = b.function(name)
            for callee in callees:
                f.call(callee)
            if name == "main":
                f.halt()
            else:
                f.ret()
        cg = CallGraph.build(b.build())
        assert not cg.is_recursive()
        # Kahn generations (main, d), (b, a), (c), reversed: callees first.
        assert cg.topological_order() == ["c", "a", "b", "d", "main"]
        assert cg.topological_order(root="a") == ["c", "a"]
        assert cg.topological_order(root="d") == ["c", "a", "d"]
        assert cg.reachable_from("d") == {"d", "a", "c"}
        assert cg.reachable_from("b") == {"b", "c"}
        assert cg.reachable_from("nowhere") == set()
        assert cg.callers("c") == ["a", "b"]

        b = ProgramBuilder("q")
        for name, callee in (("main", "x"), ("x", "y"), ("y", "x")):
            f = b.function(name)
            f.call(callee)
            if name == "main":
                f.halt()
            else:
                f.ret()
        cg = CallGraph.build(b.build())
        assert cg.is_recursive()
        assert cg.reachable_from("y") == {"x", "y"}
        with pytest.raises(WcetError):
            cg.topological_order()

class TestLinker:
    def test_linking_requires_scheduling(self):
        program = _branchy_function()
        with pytest.raises(LinkError):
            link(program)

    def test_layout_and_symbols(self, config: PatmosConfig):
        b = ProgramBuilder("p")
        b.data("table", [1, 2, 3], space=DataSpace.CONST)
        b.data("buffer", [0, 0], space=DataSpace.DATA)
        b.data("heap_obj", [7], space=DataSpace.HEAP)
        b.data("local_buf", [0], space=DataSpace.LOCAL)
        f = b.function("main")
        f.li("r1", "table")
        f.halt()
        g = b.function("helper")
        g.ret()
        compiled = compile_program(b.build(), config).program
        image = link(compiled, config)

        mm = config.memory_map
        assert image.symbol("table") == mm.const_base
        assert image.symbol("buffer") == mm.data_base
        assert image.symbol("heap_obj") == mm.heap_base
        assert image.symbol("local_buf") == 0
        assert image.entry_addr == mm.code_base
        helper = image.function_record("helper")
        main = image.function_record("main")
        assert helper.entry_addr == main.entry_addr + main.size_bytes
        assert image.initial_memory[mm.const_base + 4] == 2
        assert image.initial_scratchpad[0] == 0

    def test_function_containing(self, config):
        b = ProgramBuilder("p")
        f = b.function("main")
        f.li("r1", 1)
        f.halt()
        compiled = compile_program(b.build(), config).program
        image = link(compiled, config)
        record = image.function_containing(image.entry_addr + 4)
        assert record.name == "main"
        with pytest.raises(LinkError):
            image.function_containing(0x5)

    def test_symbolic_targets_resolved(self, config):
        b = ProgramBuilder("p")
        b.data("value", [42], space=DataSpace.CONST)
        f = b.function("main")
        f.li("r1", "value")
        f.call("helper")
        f.halt()
        g = b.function("helper")
        g.ret()
        compiled = compile_program(b.build(), config).program
        image = link(compiled, config)
        call_targets = [
            instr.target
            for bundle in image.bundles.values()
            for instr in bundle
            if instr.opcode is Opcode.CALL
        ]
        assert call_targets == [image.function_record("helper").entry_addr]

    def test_block_records(self, config):
        program = _branchy_function()
        compiled = compile_program(program, config).program
        image = link(compiled, config)
        record = image.block_record("main", "loop")
        assert image.block_at(record.addr) is record
        assert record.num_bundles >= 1
