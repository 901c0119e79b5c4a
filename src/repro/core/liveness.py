"""Live-range computation for low-level C variables.

The paper computes live ranges "globally during the template identification
process" (§3.1) and uses them to decide when a register can be released and
removed from the global ``reg_table``.

We assign every statement (including :class:`TaggedRegion` nodes) a position
in a flattened pre-order walk and record, per variable, the first and last
positions mentioning it.  A mention inside a loop extends the range to the
loop's end marker, making ranges conservative for loop-carried values.

The same walk counts every variable's uses weighted by loop depth
(``use_weight``), which the Assembly Kernel Generator ranks variables by
for the general-purpose registers.
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
        #: uses per variable (identifier references, not declarations),
        #: each weighted 4^loop_depth (depth capped at 8)
        self.use_weight: Dict[str, int] = {}
        for p in fn.params:
            self._mention(p.name, 0)
        self._walk_block(fn.body, 0)

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

    def _mention_all(self, node: C.Node, pos: int, depth: int) -> List[str]:
        """Mention every variable ``node`` names at ``pos`` (uses at loop
        depth ``depth``); return them."""
        names = []
        weight = 4 ** min(depth, 8)
        uses = self.use_weight
        for n in node.walk():
            if isinstance(n, C.Id):
                uses[n.name] = uses.get(n.name, 0) + weight
            elif not isinstance(n, C.Decl):
                continue
            names.append(n.name)
            self._mention(n.name, pos)
        return names

    def _walk_block(self, block: C.Block, depth: int) -> Set[str]:
        """Number ``block``'s statements; return the names they mention."""
        names: Set[str] = set()
        for s in block.stmts:
            pos = self._next()
            self._pos[id(s)] = pos
            if isinstance(s, C.For):
                inner: Set[str] = set()
                for part in (s.init, s.cond, s.step):
                    if part is not None:
                        inner.update(self._mention_all(part, pos, depth + 1))
                inner |= self._walk_block(s.body, depth + 1)
                end_pos = self._next()
                # everything mentioned inside the loop lives to its end
                for name in inner:
                    r = self._range[name]
                    r.end = max(r.end, end_pos)
                names |= inner
            elif isinstance(s, C.If):
                names.update(self._mention_all(s.cond, pos, depth))
                names |= self._walk_block(s.then, depth)
                if s.els is not None:
                    names |= self._walk_block(s.els, depth)
            elif isinstance(s, C.Block):
                names |= self._walk_block(s, depth)
            elif isinstance(s, C.TaggedRegion):
                for inner_stmt in s.stmts:
                    names.update(self._mention_all(inner_stmt, pos, depth))
            else:
                names.update(self._mention_all(s, pos, depth))
        return names

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
