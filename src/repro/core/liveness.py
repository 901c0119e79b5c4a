"""Live-range computation for low-level C variables.

The paper computes live ranges "globally during the template identification
process" (§3.1) and uses them to decide when a register can be released and
removed from the global ``reg_table``.

We assign every statement (including :class:`TaggedRegion` nodes) a position
in a flattened pre-order walk and record, per variable, the first and last
positions mentioning it.  A mention inside a loop extends the range to the
loop's end marker, making ranges conservative for loop-carried values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..poet import cast as C


@dataclass
class LiveRange:
    start: int
    end: int


class Liveness:
    """Flattened-position live ranges over a function body."""

    def __init__(self, fn: C.FuncDef) -> None:
        self._pos: Dict[int, int] = {}  # id(stmt) -> position
        self._range: Dict[str, LiveRange] = {}
        self._counter = 0
        for p in fn.params:
            self._mention(p.name, 0)
        self._walk_block(fn.body, [])

    # -- construction ----------------------------------------------------
    def _next(self) -> int:
        self._counter += 1
        return self._counter

    def _mention(self, var: str, pos: int) -> None:
        r = self._range.get(var)
        if r is None:
            self._range[var] = LiveRange(pos, pos)
        else:
            r.start = min(r.start, pos)
            r.end = max(r.end, pos)

    def _mention_all(self, node: C.Node, pos: int, loop_ends: List[int]) -> None:
        for n in node.walk():
            if isinstance(n, C.Id):
                self._mention(n.name, pos)
            elif isinstance(n, C.Decl):
                self._mention(n.name, pos)

    def _extend_loop_vars(self, node: C.Node, end_pos: int) -> None:
        for n in node.walk():
            name = None
            if isinstance(n, C.Id):
                name = n.name
            elif isinstance(n, C.Decl):
                name = n.name
            if name is not None:
                r = self._range.get(name)
                if r is not None:
                    r.end = max(r.end, end_pos)

    def _walk_block(self, block: C.Block, loop_stack: List[C.For]) -> None:
        for s in block.stmts:
            pos = self._next()
            self._pos[id(s)] = pos
            if isinstance(s, C.For):
                for part in (s.init, s.cond, s.step):
                    if part is not None:
                        self._mention_all(part, pos, [])
                self._walk_block(s.body, loop_stack + [s])
                end_pos = self._next()
                # everything mentioned inside the loop lives to its end
                self._extend_loop_vars(s, end_pos)
            elif isinstance(s, C.If):
                self._mention_all(s.cond, pos, [])
                self._walk_block(s.then, loop_stack)
                if s.els is not None:
                    self._walk_block(s.els, loop_stack)
            elif isinstance(s, C.Block):
                self._walk_block(s, loop_stack)
            elif isinstance(s, C.TaggedRegion):
                for inner in s.stmts:
                    self._mention_all(inner, pos, [])
            else:
                self._mention_all(s, pos, [])

    # -- queries -----------------------------------------------------------
    def position_of(self, stmt: C.Node) -> int:
        """Flattened position of a top-level statement (or region)."""
        return self._pos.get(id(stmt), 0)

    def last_use(self, var: str) -> int:
        r = self._range.get(var)
        return r.end if r is not None else -1

    def first_use(self, var: str) -> int:
        r = self._range.get(var)
        return r.start if r is not None else -1

    def dead_after(self, var: str, pos: int) -> bool:
        """True when ``var`` has no mention after position ``pos``."""
        return self.last_use(var) <= pos

    def live_out(self, stmt: C.Node) -> Set[str]:
        """Variables whose range extends beyond ``stmt``'s position."""
        pos = self.position_of(stmt)
        return {v for v, r in self._range.items() if r.start <= pos < r.end}
