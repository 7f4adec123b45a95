"""Whole-program container: functions, data items and the entry point."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from ..errors import CompilerError, LinkError
from .function import Function


class DataSpace(Enum):
    """Data area in which a data item is placed by the linker.

    The space determines both the address region and which typed load/store
    instructions (and hence which cache) should be used to access the item.
    """

    #: Constants and static data, accessed through the static/constant cache.
    CONST = "const"
    #: Mutable static data, accessed through the static/constant cache.
    DATA = "data"
    #: Heap-allocated objects, accessed through the object/heap cache.
    HEAP = "heap"
    #: Compiler-managed scratchpad memory.
    LOCAL = "local"


@dataclass
class DataItem:
    """A named, word-aligned data object placed in main memory (or scratchpad)."""

    name: str
    words: list[int]
    space: DataSpace = DataSpace.DATA

    @property
    def size_bytes(self) -> int:
        return 4 * len(self.words)


@dataclass
class Program:
    """A complete Patmos program.

    ``functions`` preserves insertion order, which the linker uses as the code
    layout order.  ``entry`` names the function where execution starts.
    """

    name: str = "program"
    functions: dict[str, Function] = field(default_factory=dict)
    data: dict[str, DataItem] = field(default_factory=dict)
    entry: str = "main"

    # -- construction ------------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise CompilerError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    def add_data(self, item: DataItem) -> DataItem:
        if item.name in self.data:
            raise CompilerError(f"duplicate data item {item.name!r}")
        self.data[item.name] = item
        return item

    # -- access ------------------------------------------------------------------

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError as exc:
            raise LinkError(f"unknown function {name!r}") from exc

    def entry_function(self) -> Function:
        return self.function(self.entry)

    def subfunctions(self, name: str) -> list[Function]:
        """Method-cache sub-functions split off function ``name``."""
        return [func for func in self.functions.values()
                if func.is_subfunction and func.parent == name]

    def data_item(self, name: str) -> DataItem:
        try:
            return self.data[name]
        except KeyError as exc:
            raise LinkError(f"unknown data item {name!r}") from exc

    def functions_in_order(self) -> list[Function]:
        return list(self.functions.values())

    def data_in_order(self) -> list[DataItem]:
        return list(self.data.values())

    # -- whole-program queries -----------------------------------------------------

    @property
    def is_scheduled(self) -> bool:
        return all(func.is_scheduled for func in self.functions.values())

    def instruction_count(self) -> int:
        return sum(func.instruction_count() for func in self.functions.values())

    def loop_bounds(self) -> dict[tuple[str, str], int]:
        """All known loop bounds as ``(function, header label) -> bound``."""
        bounds: dict[tuple[str, str], int] = {}
        for func in self.functions.values():
            for label, bound in func.loop_bounds().items():
                bounds[(func.name, label)] = bound
        return bounds

    def validate_call_targets(self) -> None:
        """Check that every symbolic call target names a known function."""
        for func in self.functions.values():
            for callee in func.callees():
                if callee not in self.functions:
                    raise LinkError(
                        f"function {func.name!r} calls unknown function {callee!r}")

    def copy(self) -> "Program":
        clone = Program(name=self.name, entry=self.entry)
        for func in self.functions.values():
            clone.functions[func.name] = func.copy()
        for item in self.data.values():
            clone.data[item.name] = DataItem(item.name, list(item.words), item.space)
        return clone

    def __str__(self) -> str:
        parts: Iterable[str] = (str(func) for func in self.functions.values())
        return "\n\n".join(parts)
