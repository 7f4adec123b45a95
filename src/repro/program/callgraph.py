"""Call-graph construction and queries.

The call graph drives the method-cache analyses: function sizes, reachable
sets within loops/scopes and maximum call-chain depth (also used by the
stack-cache analysis).
"""

from __future__ import annotations

from ..errors import WcetError
from .cfg import postorder, topological_sort
from .program import Program


class CallGraph:
    """Static call graph of a program (``call`` edges between functions).

    ``edges`` are ``(caller, callee)`` pairs over the program's functions;
    callee and caller lists keep their first-seen order.  The topological
    order is computed once, at construction (``None`` when recursive).
    """

    def __init__(self, program: Program, edges: list[tuple[str, str]]):
        self.program = program
        callees: dict[str, dict[str, None]] = {
            name: {} for name in program.functions}
        callers: dict[str, dict[str, None]] = {
            name: {} for name in program.functions}
        for caller, callee in edges:
            callees[caller][callee] = None
            callers[callee][caller] = None
        self._callees = {name: tuple(names) for name, names in callees.items()}
        self._callers = {name: tuple(names) for name, names in callers.items()}
        self._topological = topological_sort(self._callees, self._callees)

    @classmethod
    def build(cls, program: Program) -> "CallGraph":
        edges = []
        for func in program.functions.values():
            # Sub-functions created by the method-cache splitter share their
            # parent's frame and context; their calls are attributed to the
            # parent so that reachability, depth and stack analyses see the
            # logical call structure.
            caller = func.name
            if func.is_subfunction and func.parent in program.functions:
                caller = func.parent
            for callee in func.callees():
                if callee not in program.functions:
                    raise WcetError(
                        f"{func.name} calls unknown function {callee!r}")
                edges.append((caller, callee))
        return cls(program, edges)

    def callees(self, name: str) -> list[str]:
        return list(self._callees[name])

    def callers(self, name: str) -> list[str]:
        return list(self._callers[name])

    def is_recursive(self) -> bool:
        """True if the call graph contains a cycle (direct or indirect recursion)."""
        return self._topological is None

    def reachable_from(self, name: str) -> set[str]:
        """Functions reachable from ``name``, including itself."""
        if name not in self._callees:
            return set()
        return set(postorder(self._callees, name))

    def topological_order(self, root: str | None = None) -> list[str]:
        """Callees-first order of functions (bottom-up over the call graph)."""
        if self._topological is None:
            raise WcetError("call graph is recursive; no topological order exists")
        order = self._topological[::-1]
        if root is not None:
            reachable = self.reachable_from(root)
            order = [name for name in order if name in reachable]
        return order

    def max_call_depth(self, root: str | None = None) -> int:
        """Length of the longest call chain starting at ``root`` (default entry).

        A leaf function has depth 1.  Raises :class:`WcetError` for recursive
        programs, where the depth is unbounded without extra annotations.
        """
        if self.is_recursive():
            raise WcetError("recursive call graph: call depth is unbounded")
        root = root or self.program.entry

        depths: dict[str, int] = {}

        def depth(name: str) -> int:
            if name in depths:
                return depths[name]
            callees = self.callees(name)
            value = 1 + (max((depth(c) for c in callees), default=0))
            depths[name] = value
            return value

        return depth(root)

    def call_paths(self, root: str | None = None) -> list[list[str]]:
        """All call chains from ``root`` to leaf functions."""
        if self.is_recursive():
            raise WcetError("recursive call graph: call paths are unbounded")
        root = root or self.program.entry
        paths: list[list[str]] = []

        def walk(name: str, path: list[str]) -> None:
            path = path + [name]
            callees = self.callees(name)
            if not callees:
                paths.append(path)
                return
            for callee in callees:
                walk(callee, path)

        walk(root, [])
        return paths
