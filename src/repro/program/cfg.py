"""Control-flow graph construction and loop analysis for a function.

The CFG is built from the unscheduled instruction view of a function's basic
blocks.  Everything the analyses ask of it is computed once, when the graph
is built: the reachable blocks, immediate dominators (the iterative pass of
Cooper, Harvey and Kennedy, "A Simple, Fast Dominance Algorithm", 2001),
back edges, natural loops and a topological order of the forward edges.
The query methods return copies or immutable values, so the value analysis
and the WCET analyzer can share one CFG.  Loop bounds attached to header
blocks feed the IPET-based WCET analysis.

:func:`analysis_cfg` is the one place that merges a function with its
method-cache sub-functions into the CFG both analyses work on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from ..errors import WcetError
from ..isa.opcodes import Opcode
from .function import Function
from .program import Program


@dataclass(frozen=True)
class Loop:
    """A natural loop: header block plus the set of blocks in the loop body."""

    header: str
    body: frozenset[str]
    back_edges: frozenset[tuple[str, str]]
    bound: Optional[int] = None

    def contains(self, label: str) -> bool:
        return label in self.body


def topological_sort(nodes: Iterable[str],
                     successors: Mapping[str, Sequence[str]]
                     ) -> Optional[list[str]]:
    """Kahn's algorithm by generations; ``None`` if the graph has a cycle.

    The first generation holds the nodes without predecessors in ``nodes``
    order; each later one holds the nodes whose last incoming edge the
    previous generation removed, in the order that happened.  ``successors``
    must only name nodes of ``nodes``.
    """
    nodes = list(nodes)
    indegree = dict.fromkeys(nodes, 0)
    for node in nodes:
        for succ in successors[node]:
            indegree[succ] += 1
    generation = [node for node in nodes if indegree[node] == 0]
    order: list[str] = []
    while generation:
        order.extend(generation)
        following = []
        for node in generation:
            for succ in successors[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    following.append(succ)
        generation = following
    return order if len(order) == len(nodes) else None


def postorder(successors: Mapping[str, Sequence[str]], root: str) -> list[str]:
    """Depth-first post-order of the nodes reachable from ``root``.

    Children are visited in successor order.
    """
    order: list[str] = []
    seen = {root}
    stack = [(root, iter(successors[root]))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(successors[child])))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def _immediate_dominators(successors: Mapping[str, Sequence[str]],
                          predecessors: Mapping[str, Sequence[str]],
                          entry: str) -> tuple[list[str], dict[str, str]]:
    """Cooper–Harvey–Kennedy dominators over reverse post-order.

    Returns the post-order (the reachable nodes) and the immediate dominator
    of every reachable node but the entry, keyed in reverse post-order.
    """
    post = postorder(successors, entry)
    number = {node: index for index, node in enumerate(post)}
    rpo = post[-2::-1]  # reverse post-order without the entry
    idom = {entry: entry}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while number[a] < number[b]:
                a = idom[a]
            while number[b] < number[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in rpo:
            new = None
            for pred in predecessors[node]:
                if pred in idom:
                    new = pred if new is None else intersect(pred, new)
            if idom.get(node) != new:
                idom[node] = new
                changed = True
    del idom[entry]
    return post, idom


def _dominated(idom: Mapping[str, str], node: str, by: str) -> bool:
    """True if ``by`` is on ``node``'s dominator-tree path to the entry."""
    while node != by:
        node = idom.get(node)
        if node is None:
            return False
    return True


class ControlFlowGraph:
    """Control-flow graph of one function, analysed once at construction.

    ``successors`` maps every block label, in layout order, to its successor
    labels; :meth:`build` derives it from the function's blocks.  The first
    label is the entry.  Blocks without successors are the exits (the last
    block if there are none, e.g. for an endless loop).
    """

    def __init__(self, function: Function,
                 successors: Mapping[str, Sequence[str]]):
        self.function = function
        labels = list(successors)
        succ = {label: tuple(dict.fromkeys(successors[label]))
                for label in labels}
        pred: dict[str, list[str]] = {label: [] for label in labels}
        for label in labels:
            for target in succ[label]:
                if target not in pred:
                    raise WcetError(
                        f"block {label} of {function.name} branches to "
                        f"unknown label {target!r}")
                pred[target].append(label)
        self.entry = labels[0] if labels else ""
        exits = [label for label in labels if not succ[label]]
        if not exits and labels:
            # Function with no return/halt (e.g. an endless loop): treat the
            # last block as the structural exit for analysis purposes.
            exits.append(labels[-1])
        self.exits = tuple(exits)
        self._succ = succ
        self._pred = {label: tuple(preds) for label, preds in pred.items()}
        self._edges = tuple((label, target)
                            for label in labels for target in succ[label])

        post, idom = (_immediate_dominators(succ, self._pred, self.entry)
                      if labels else ([], {}))
        self._reachable = frozenset(post)
        self._idom = idom
        self._back_edges = tuple(
            (tail, head) for tail, head in self._edges
            if tail in self._reachable and _dominated(idom, tail, head))
        self._loops = tuple(self._find_loops())

        back = set(self._back_edges)
        reachable = [label for label in labels if label in self._reachable]
        forward = {label: [target for target in succ[label]
                           if (label, target) not in back]
                   for label in reachable}
        self._topological = topological_sort(reachable, forward)

    @classmethod
    def build(cls, function: Function) -> "ControlFlowGraph":
        """Construct the CFG of ``function`` from its basic blocks."""
        labels = function.block_labels()
        successors = {}
        for index, block in enumerate(function.blocks):
            fallthrough = labels[index + 1] if index + 1 < len(labels) else None
            successors[block.label] = block.successors(fallthrough)
        return cls(function, successors)

    def _find_loops(self) -> list[Loop]:
        """Natural loops, one per header, in the order of their back edges."""
        bodies: dict[str, set[str]] = {}
        edges: dict[str, set[tuple[str, str]]] = {}
        for tail, head in self._back_edges:
            body = bodies.setdefault(head, {head})
            edges.setdefault(head, set()).add((tail, head))
            # Collect all nodes that can reach `tail` without passing `head`.
            stack = [tail]
            while stack:
                node = stack.pop()
                if node in body:
                    continue
                body.add(node)
                stack.extend(p for p in self._pred[node] if p != head)
        return [Loop(header=header, body=frozenset(body),
                     back_edges=frozenset(edges[header]),
                     bound=self.function.block(header).loop_bound)
                for header, body in bodies.items()]

    # -- basic queries -----------------------------------------------------------

    def successors(self, label: str) -> list[str]:
        return list(self._succ[label])

    def predecessors(self, label: str) -> list[str]:
        return list(self._pred[label])

    def edges(self) -> list[tuple[str, str]]:
        return list(self._edges)

    def reachable(self) -> frozenset[str]:
        """Labels reachable from the entry block."""
        return self._reachable

    # -- dominators and loops ------------------------------------------------------

    def dominators(self) -> dict[str, str]:
        """Immediate dominator of every reachable block except the entry."""
        return dict(self._idom)

    def dominates(self, a: str, b: str) -> bool:
        """True if block ``a`` dominates block ``b``."""
        return _dominated(self._idom, b, a)

    def back_edges(self) -> list[tuple[str, str]]:
        """Edges ``(tail, head)`` where ``head`` dominates ``tail``."""
        return list(self._back_edges)

    def natural_loops(self) -> list[Loop]:
        """Natural loops of the function, one per loop header.

        Back edges sharing a header are merged into a single loop.  The loop
        bound annotation of the header block (if any) is attached.
        """
        return list(self._loops)

    def loop_of(self, label: str) -> Optional[Loop]:
        """Return the innermost loop containing ``label`` (smallest body)."""
        containing = [loop for loop in self._loops if loop.contains(label)]
        return min(containing, key=lambda loop: len(loop.body), default=None)

    def loop_nest_depth(self, label: str) -> int:
        """Number of loops containing ``label``."""
        return sum(1 for loop in self._loops if loop.contains(label))

    def is_reducible(self) -> bool:
        """True if every cycle of the CFG is part of a natural loop."""
        return self._topological is not None

    def topological_order(self) -> list[str]:
        """Topological order of the reachable blocks without back edges.

        Kahn's order by generations (see :func:`topological_sort`); an
        irreducible CFG has none and raises :class:`WcetError`.
        """
        if self._topological is None:
            raise WcetError(
                f"CFG of {self.function.name} is irreducible; no topological "
                "order exists")
        return list(self._topological)


def analysis_cfg(program: Program, function: Function) -> ControlFlowGraph:
    """CFG of ``function`` merged with its method-cache sub-functions.

    The sub-functions' blocks are appended to a copy of ``function`` and
    every ``brcf`` into one of them becomes a plain branch to its entry
    label, so the CFG sees the transfers as ordinary edges.  The blocks keep
    their schedules, whose ``brcf`` still names the sub-function, so the
    WCET analyzer charges each transfer's method-cache cost from the merged
    blocks.
    """
    subfunctions = program.subfunctions(function.name)
    if not subfunctions:
        return ControlFlowGraph.build(function)
    merged = function.copy()
    entry_labels = {sub.name: sub.entry_block().label for sub in subfunctions}
    for sub in subfunctions:
        merged.blocks.extend(block.copy() for block in sub.blocks)
    for block in merged.blocks:
        block.instrs = [
            instr.with_target(entry_labels[instr.target])
            if instr.opcode is Opcode.BRCF and instr.target in entry_labels
            else instr
            for instr in block.instrs]
    return ControlFlowGraph.build(merged)
