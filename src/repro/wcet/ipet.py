"""Implicit path enumeration (IPET) over a function's control-flow graph.

The classic IPET formulation bounds the WCET of a function by maximising
``sum(cost_b * x_b)`` over all block execution-count vectors ``x`` that
satisfy flow conservation and loop-bound constraints.  :func:`solve_ipet`
answers a loop-free function whose flow facts name none of its edges by
the longest entry-to-exit path, which is the exact optimum there and needs
no solver.  Every other instance (loops, irreducible flow, flow facts) is
an integer linear program solved with :func:`scipy.optimize.milp`.  The
integer program on loop-free graphs is kept as the test-suite's oracle for
the longest-path solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, sparse

from ..errors import WcetError
from ..program.cfg import ControlFlowGraph

#: Virtual source/sink node names used in the edge-based formulation.
SOURCE = "__source__"
SINK = "__sink__"


@dataclass
class IpetResult:
    """Solution of one IPET instance."""

    wcet: int
    block_counts: dict[str, int] = field(default_factory=dict)
    edge_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    status: str = "optimal"


@dataclass(frozen=True)
class FlowConstraint:
    """Extra linear flow fact ``sum(coeff * x_edge) <= upper``.

    Produced by the static analysis (infeasible-path detection); terms
    reference CFG edges ``(src, dst)``.  Terms whose edge does not exist in
    the solved CFG are silently dropped — the constraint is a statement
    about executions of those edges, and a missing edge executes zero
    times.
    """

    terms: tuple[tuple[tuple[str, str], float], ...]
    upper: float
    reason: str = ""


def _edges_with_virtuals(cfg: ControlFlowGraph) -> list[tuple[str, str]]:
    edges = [(SOURCE, cfg.entry)]
    reachable = cfg.reachable()
    for src, dst in cfg.edges():
        if src in reachable and dst in reachable:
            edges.append((src, dst))
    for label in cfg.exits:
        if label in reachable:
            edges.append((label, SINK))
    return edges


def _result(cfg: ControlFlowGraph, edge_counts: dict[tuple[str, str], int],
            wcet: int) -> IpetResult:
    """An :class:`IpetResult` whose block counts sum each block's in-edges."""
    reachable = cfg.reachable()
    block_counts: dict[str, int] = {}
    for (_, dst), count in edge_counts.items():
        if dst in reachable:
            block_counts[dst] = block_counts.get(dst, 0) + count
    return IpetResult(wcet=wcet, block_counts=block_counts,
                      edge_counts=edge_counts)


def _constrains(cfg: ControlFlowGraph,
                flow_constraints: list[FlowConstraint] | None) -> bool:
    """True if a flow constraint names an edge the formulation contains."""
    if not flow_constraints:
        return False
    edges = set(_edges_with_virtuals(cfg))
    return any(edge in edges
               for fact in flow_constraints for edge, _ in fact.terms)


def solve_ipet(cfg: ControlFlowGraph, block_costs: dict[str, int],
               loop_bounds: dict[str, int] | None = None,
               flow_constraints: list[FlowConstraint] | None = None
               ) -> IpetResult:
    """Solve the IPET problem for one function.

    ``block_costs`` maps block labels to their worst-case cost in cycles.
    ``loop_bounds`` maps loop-header labels to the maximum number of header
    executions per loop entry; loops found in the CFG without a bound (either
    here or as a block annotation) are an error, because the ILP would be
    unbounded.  ``flow_constraints`` adds analysis-derived linear facts over
    edge counts (e.g. infeasible-path exclusions).

    Loop-free control flow that no flow constraint touches is answered by
    the longest entry-to-exit path, which is the exact optimum there; every
    other instance is solved as an integer program.
    """
    if (not cfg.back_edges() and cfg.is_reducible()
            and not _constrains(cfg, flow_constraints)):
        return _longest_path(cfg, block_costs)
    return _solve_milp(cfg, block_costs, loop_bounds, flow_constraints)


def _solve_milp(cfg: ControlFlowGraph, block_costs: dict[str, int],
                loop_bounds: dict[str, int] | None = None,
                flow_constraints: list[FlowConstraint] | None = None
                ) -> IpetResult:
    """The IPET integer program, solved with :func:`scipy.optimize.milp`."""
    loop_bounds = dict(loop_bounds or {})
    for loop in cfg.natural_loops():
        if loop.header not in loop_bounds:
            if loop.bound is None:
                raise WcetError(
                    f"loop at {loop.header!r} in {cfg.function.name} has no "
                    "bound annotation; WCET is unbounded")
            loop_bounds[loop.header] = loop.bound

    edges = _edges_with_virtuals(cfg)
    edge_index = {edge: i for i, edge in enumerate(edges)}
    num_edges = len(edges)
    reachable = cfg.reachable()

    # Objective: maximise sum over blocks of cost * (sum of incoming edges).
    objective = np.zeros(num_edges)
    for (src, dst), index in edge_index.items():
        if dst in block_costs:
            objective[index] += block_costs[dst]

    rows: list[np.ndarray] = []
    lower: list[float] = []
    upper: list[float] = []

    def add_constraint(coeffs: dict[int, float], lo: float, hi: float) -> None:
        row = np.zeros(num_edges)
        for index, value in coeffs.items():
            row[index] = value
        rows.append(row)
        lower.append(lo)
        upper.append(hi)

    # Source emits exactly one execution; sink absorbs exactly one.
    add_constraint({edge_index[(SOURCE, cfg.entry)]: 1.0}, 1.0, 1.0)
    sink_edges = {edge_index[e]: 1.0 for e in edges if e[1] == SINK}
    if not sink_edges:
        raise WcetError(f"function {cfg.function.name} has no exit block")
    add_constraint(sink_edges, 1.0, 1.0)

    # Flow conservation per block: sum(in) - sum(out) == 0.
    for label in reachable:
        coeffs: dict[int, float] = {}
        for edge, index in edge_index.items():
            if edge[1] == label:
                coeffs[index] = coeffs.get(index, 0.0) + 1.0
            if edge[0] == label:
                coeffs[index] = coeffs.get(index, 0.0) - 1.0
        add_constraint(coeffs, 0.0, 0.0)

    # Loop bounds: header executions <= bound * entries from outside the loop.
    for loop in cfg.natural_loops():
        bound = loop_bounds[loop.header]
        coeffs: dict[int, float] = {}
        for edge, index in edge_index.items():
            src, dst = edge
            if dst == loop.header and (src, dst) in loop.back_edges:
                coeffs[index] = coeffs.get(index, 0.0) + 1.0
            elif dst == loop.header:
                coeffs[index] = coeffs.get(index, 0.0) - float(bound - 1)
        add_constraint(coeffs, -np.inf, 0.0)

    # Analysis-derived flow facts (infeasible paths, exclusive branches).
    for fact in flow_constraints or ():
        coeffs = {}
        for edge, coeff in fact.terms:
            index = edge_index.get(edge)
            if index is not None:
                coeffs[index] = coeffs.get(index, 0.0) + coeff
        if coeffs:
            add_constraint(coeffs, -np.inf, fact.upper)

    constraints = optimize.LinearConstraint(
        sparse.csr_matrix(np.vstack(rows)), np.array(lower), np.array(upper))
    bounds = optimize.Bounds(lb=np.zeros(num_edges), ub=np.full(num_edges, np.inf))
    result = optimize.milp(
        c=-objective, constraints=constraints, bounds=bounds,
        integrality=np.ones(num_edges))
    if not result.success:
        raise WcetError(
            f"IPET ILP for {cfg.function.name} failed: {result.message}")

    edge_counts = {
        edge: int(round(result.x[index])) for edge, index in edge_index.items()
    }
    return _result(cfg, edge_counts, int(round(-result.fun)))


def _longest_path(cfg: ControlFlowGraph,
                  block_costs: dict[str, int]) -> IpetResult:
    """The IPET optimum of loop-free control flow: one longest path.

    The path runs from the entry to the costliest reachable exit.  Ties go
    to the first predecessor, and the first exit, in CFG order.  The counts
    have the integer program's keys (every reachable block, every edge of
    the formulation) and are 1 on the path, 0 elsewhere.
    """
    best: dict[str, int] = {}
    via: dict[str, str] = {}
    for label in cfg.topological_order():
        for pred in cfg.predecessors(label):
            if pred in best and (label not in via
                                 or best[pred] > best[via[label]]):
                via[label] = pred
        incoming = best[via[label]] if label in via else 0
        best[label] = incoming + block_costs.get(label, 0)
    exits = [label for label in cfg.exits if label in best]
    if not exits:
        raise WcetError(f"function {cfg.function.name} has no exit block")
    last = max(exits, key=best.__getitem__)

    path = [last]
    while path[-1] in via:
        path.append(via[path[-1]])
    path.reverse()
    taken = {(SOURCE, path[0]), (last, SINK), *zip(path, path[1:])}
    edge_counts = {edge: int(edge in taken)
                   for edge in _edges_with_virtuals(cfg)}
    return _result(cfg, edge_counts, best[last])


def longest_path_dag(cfg: ControlFlowGraph, block_costs: dict[str, int]) -> int:
    """Longest-path WCET of loop-free control flow (``solve_ipet``'s DAG
    solver, returning only the bound)."""
    if cfg.back_edges():
        raise WcetError("longest_path_dag requires loop-free control flow")
    return _longest_path(cfg, block_costs).wcet
