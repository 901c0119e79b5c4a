"""The Assembly Kernel Generator (paper §2.4).

Translates a template-tagged low-level C kernel into a complete x86-64
assembly function:

- tagged regions are dispatched through the ``Optimizer[...]`` table
  (:mod:`repro.core.optimizers`), sharing one vector register allocator and
  its global ``reg_table`` so register assignments stay consistent between
  template regions and the surrounding code (paper Fig. 2);
- the remaining low-level C — loop control, pointer arithmetic, scalar
  float glue — is translated "in a straightforward fashion" by this module;
- integer/pointer variables get a small static general-purpose register
  assignment (hot variables by loop-depth-weighted use count; the rest live
  in stack slots, accessed through two reserved scratch registers);
- the System V AMD64 prologue/epilogue is emitted around the body.

The output is a stream of :class:`~repro.isa.instructions.Item` that both
the GAS emitter (native path) and the emulator (validation path) consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..isa.arch import ArchSpec
from ..isa.instructions import Comment, Instr, Item, Label, instr
from ..isa.mapping import MappingRules
from ..isa.operands import Imm, LabelRef, Mem
from ..isa.registers import (
    ALLOCATABLE_GP,
    R11,
    RAX,
    RSP,
    Register,
    SysVABI,
    xmm,
)
from ..poet import cast as C
from ..poet.errors import PoetError
from ..poet.symtab import SymbolTable
from ..transforms.prefetch import PREFETCH_FUNCS
from .liveness import Liveness
from .optimizers import OPTIMIZERS
from .regalloc import VectorAllocator, array_root
from .scheduler import schedule_items
from .vectorize import VectorPlan

_PREFETCH_MNEMONIC = {
    "prefetch_t0": "prefetcht0",
    "prefetch_t1": "prefetcht1",
    "prefetch_t2": "prefetcht2",
    "prefetch_nta": "prefetchnta",
}

_CMP_JCC = {"<": "jl", "<=": "jle", ">": "jg", ">=": "jge",
            "==": "je", "!=": "jne"}


class CodegenError(PoetError):
    """Raised when a construct reaches codegen that it cannot translate."""


def _usage_weights(fn: C.FuncDef) -> Dict[str, int]:
    """Use count per variable, weighted 4^loop_depth."""
    weights: Dict[str, int] = {}

    def walk(node: C.Node, depth: int) -> None:
        if isinstance(node, C.For):
            for part in (node.init, node.cond, node.step):
                if part is not None:
                    walk(part, depth + 1)
            walk(node.body, depth + 1)
            return
        if isinstance(node, C.Id):
            weights[node.name] = weights.get(node.name, 0) + 4 ** min(depth, 8)
        if isinstance(node, C.TaggedRegion):
            for s in node.stmts:
                walk(s, depth)
            return
        for child in node.children():
            walk(child, depth)

    walk(fn.body, 0)
    for p in fn.params:  # params always count at least once
        weights.setdefault(p.name, 1)
    return weights


class KernelCodeGen:
    """Code generation context shared with the template optimizers."""

    def __init__(self, fn: C.FuncDef, arch: ArchSpec, plan: VectorPlan,
                 schedule: bool = True, unified_regalloc: bool = False) -> None:
        self.fn = fn
        self.arch = arch
        self.plan = plan
        self.schedule = schedule
        self.map = MappingRules(arch)
        self.symtab = SymbolTable.of_function(fn)
        self.liveness = Liveness(fn)
        self.items: List[Item] = []
        self._label_counter = 0
        self._epilogue_label = f".L_{fn.name}_epilogue"
        self._used_epilogue_label = False

        # ---- vector side: per-array queues (paper §3.1) -------------------
        arrays = sorted(
            {array_root(n) for n in self.symtab.pointers()}
        )
        self.alloc = VectorAllocator(arch, arrays, unified=unified_regalloc)

        # ---- GP side: static assignment by weighted use count -------------
        int_vars = [
            name for name in self.symtab
            if self.symtab.type_of(name).is_pointer
            or self.symtab.is_integer(name)
        ]
        weights = _usage_weights(fn)
        int_vars.sort(key=lambda v: -weights.get(v, 0))
        self.gp_home: Dict[str, Register] = {}
        for var, reg in zip(int_vars, ALLOCATABLE_GP):
            self.gp_home[var] = reg

        # stack slots: every parameter (for arg staging / float
        # rematerialization) plus every spilled int/pointer variable
        self.slot: Dict[str, int] = {}
        offset = 0
        for p in fn.params:
            self.slot[p.name] = offset
            offset += 8
        for var in int_vars:
            if var not in self.gp_home and var not in self.slot:
                self.slot[var] = offset
                offset += 8
        self._expr_scratch_base = offset
        self._expr_scratch_slots = 4
        offset += 8 * self._expr_scratch_slots
        self._float_const_slot = offset  # bounce slot for float literals
        offset += 8
        self.frame_size = (offset + 15) & ~15

        self.float_params = {
            p.name for p in fn.params if p.ctype.is_float
        }

    # ------------------------------------------------------------------
    # emission primitives
    # ------------------------------------------------------------------
    def emit(self, ins) -> None:
        if isinstance(ins, list):
            self.items.extend(ins)
        else:
            self.items.append(ins)

    def comment(self, text: str) -> None:
        self.items.append(Comment(text))

    def new_label(self, hint: str) -> str:
        self._label_counter += 1
        return f".L_{self.fn.name}_{hint}{self._label_counter}"

    # ------------------------------------------------------------------
    # GP variable access
    # ------------------------------------------------------------------
    def _slot_mem(self, var: str) -> Mem:
        return Mem(base=RSP, disp=self.slot[var])

    def gp_read(self, var: str, scratch: Register = R11) -> Register:
        """Register holding ``var``'s value (loads spilled vars to scratch)."""
        home = self.gp_home.get(var)
        if home is not None:
            return home
        if var not in self.slot:
            raise CodegenError(f"integer variable {var!r} has no storage")
        self.emit(instr("mov", self._slot_mem(var), scratch,
                        comment=f"reload {var}"))
        return scratch

    # ------------------------------------------------------------------
    # integer / pointer expression evaluation
    # ------------------------------------------------------------------
    def _expr_scratch(self, depth: int) -> Mem:
        """Stack slot used to park intermediate values of nested integer
        expressions (one per nesting depth, so recursion is clobber-free)."""
        if depth >= self._expr_scratch_slots:
            raise CodegenError("integer expression too deeply nested")
        return Mem(base=RSP, disp=self._expr_scratch_base + 8 * depth)

    def eval_int(self, e: C.Node, dest: Register, depth: int = 0) -> None:
        """Emit code computing integer expression ``e`` into ``dest``.

        Uses only ``dest`` plus stack scratch slots — no other registers are
        clobbered, so callers may hold live values in any other register.
        """
        e = C.const_fold(e)
        if isinstance(e, C.IntLit):
            self.emit(instr("mov", Imm(e.value), dest))
            return
        if isinstance(e, C.Id):
            home = self.gp_home.get(e.name)
            if home is not None:
                if home.name != dest.name:
                    self.emit(instr("mov", home, dest))
            else:
                self.emit(instr("mov", self._slot_mem(e.name), dest))
            return
        if isinstance(e, C.UnaryOp) and e.op == "-":
            self.eval_int(e.operand, dest, depth)
            self.emit(instr("neg", dest))
            return
        if isinstance(e, C.BinOp) and e.op in ("+", "-", "*", "<<"):
            self.eval_int(e.left, dest, depth)
            mn = {"+": "add", "-": "sub", "*": "imul", "<<": "sal"}[e.op]
            right = C.const_fold(e.right)
            if isinstance(right, C.IntLit):
                self.emit(instr(mn, Imm(right.value), dest))
            elif isinstance(right, C.Id):
                src = self.gp_home.get(right.name)
                if src is None:
                    if e.op == "<<":
                        raise CodegenError("variable shift amounts unsupported")
                    self.emit(instr(mn, self._slot_mem(right.name), dest))
                else:
                    self.emit(instr(mn, src, dest))
            else:
                # both sides compound: park the left value on the stack
                slot = self._expr_scratch(depth)
                self.emit(instr("mov", dest, slot))
                self.eval_int(right, dest, depth + 1)
                if e.op == "+":
                    self.emit(instr("add", slot, dest))
                elif e.op == "*":
                    self.emit(instr("imul", slot, dest))
                elif e.op == "-":
                    self.emit(instr("neg", dest))
                    self.emit(instr("add", slot, dest))
                else:
                    raise CodegenError("variable shift amounts unsupported")
            return
        raise CodegenError(f"cannot evaluate integer expression: {e}")

    def eval_ptr(self, e: C.Node, dest: Register) -> None:
        """Emit code computing pointer expression ``e`` (element-scaled)."""
        e = C.const_fold(e)
        if isinstance(e, C.Id):
            home = self.gp_home.get(e.name)
            if home is not None:
                if home.name != dest.name:
                    self.emit(instr("mov", home, dest))
            else:
                self.emit(instr("mov", self._slot_mem(e.name), dest))
            return
        if isinstance(e, C.BinOp) and e.op in ("+", "-"):
            left_t = self.symtab.expr_type(e.left)
            if left_t.is_pointer:
                ptr_side, int_side = e.left, e.right
            else:
                ptr_side, int_side = e.right, e.left
                if e.op == "-":
                    raise CodegenError("int - pointer is not a pointer")
            elem = self.symtab.expr_type(ptr_side).pointee().sizeof
            self.eval_ptr(ptr_side, dest)
            int_side = C.const_fold(int_side)
            if isinstance(int_side, C.IntLit):
                disp = int_side.value * elem
                if disp:
                    self.emit(instr("add" if e.op == "+" else "sub",
                                    Imm(disp), dest))
                return
            self.eval_int(int_side, RAX)
            if e.op == "-":
                self.emit(instr("neg", RAX))
            if elem in (1, 2, 4, 8):
                self.emit(instr("lea", Mem(base=dest, index=RAX, scale=elem), dest))
            else:
                self.emit(instr("imul", Imm(elem), RAX))
                self.emit(instr("add", RAX, dest))
            return
        raise CodegenError(f"cannot evaluate pointer expression: {e}")

    # ------------------------------------------------------------------
    # addressing for the template optimizers
    # ------------------------------------------------------------------
    def addr(self, ptr: str, off: Optional[int],
             idx_expr: Optional[C.Node] = None) -> Mem:
        """Memory operand for ``ptr[off]`` (literal) or ``ptr[idx_expr]``.

        May emit scratch loads; the caller must use the returned operand in
        the *next* instruction it emits.
        """
        elem = self.symtab.type_of(ptr).pointee().sizeof
        base = self.gp_read(ptr, scratch=R11)
        if off is not None:
            return Mem(base=base, disp=off * elem)
        idx = C.const_fold(idx_expr)
        if isinstance(idx, C.IntLit):
            return Mem(base=base, disp=idx.value * elem)
        if isinstance(idx, C.Id) and idx.name in self.gp_home:
            return Mem(base=base, index=self.gp_home[idx.name], scale=elem)
        self.eval_int(idx, RAX)
        return Mem(base=base, index=RAX, scale=elem)

    # ------------------------------------------------------------------
    # float scalar access
    # ------------------------------------------------------------------
    def scalar_reg(self, var: str) -> Register:
        """Whole register holding ``var`` (materializes float params)."""
        loc = self.alloc.loc(var)
        if loc is not None:
            if loc.is_lane:
                raise CodegenError(
                    f"{var!r} lives in a vector lane; use read_scalar_value"
                )
            return loc.reg
        if var in self.float_params:
            cls = "tmp"
            loc = self.alloc.alloc(var, cls)
            slot = self._slot_mem(var)
            if var in self.plan.broadcast_vars:
                self.emit(self.map.vdup(slot, loc.reg,
                                        comment=f"broadcast param {var}"))
            else:
                self.emit(self.map.load_scalar(slot, loc.reg,
                                               comment=f"load param {var}"))
            return loc.reg
        raise CodegenError(f"float variable {var!r} used before definition")

    def read_scalar_value(self, var: str) -> Tuple[Register, Callable[[], None]]:
        """Register containing ``var``'s scalar value plus a cleanup thunk.

        For pack lanes a fresh temp holding the extracted lane is returned
        (safe to clobber); for plain scalars the live register itself is
        returned (mutations update the variable, by design).
        """
        loc = self.alloc.loc(var)
        if loc is None:
            return self.scalar_reg(var), (lambda: None)
        if not loc.is_lane:
            return loc.reg, (lambda: None)
        tmp = self.alloc.alloc_temp_reg()
        self._extract_lane(loc.reg, loc.lane, tmp)
        return tmp, (lambda: self.alloc.free_reg(tmp))

    def _extract_lane(self, src: Register, lane: int, dst: Register) -> None:
        avx = self.arch.simd == "avx"
        wide = self.arch.vector_bytes == 32
        if lane >= 2 and not wide:
            raise CodegenError("lane >= 2 requires 256-bit registers")
        if wide and lane >= 2:
            self.emit(instr("vextractf128", Imm(1), src.ymm, dst.xmm))
            if lane == 3:
                self.emit(instr("vunpckhpd", dst.xmm, dst.xmm, dst.xmm))
            return
        if avx:
            if lane == 0:
                self.emit(instr("vmovapd", src.xmm, dst.xmm))
            else:
                self.emit(instr("vunpckhpd", src.xmm, src.xmm, dst.xmm))
            return
        self.emit(instr("movapd", src.xmm, dst.xmm))
        if lane == 1:
            self.emit(instr("unpckhpd", dst.xmm, dst.xmm))

    def pack_reg(self, members: List[str]) -> Register:
        """Register of the realized pack holding exactly ``members``."""
        loc = self.alloc.loc(members[0])
        if loc is None or loc.pack is None:
            raise CodegenError(f"{members[0]!r} is not in a realized pack")
        if loc.pack.members != list(members):
            raise CodegenError(
                f"pack mismatch: have {loc.pack.members}, need {members}"
            )
        return loc.pack.reg

    # ------------------------------------------------------------------
    # float statements outside template regions
    # ------------------------------------------------------------------
    def float_assign(self, stmt: C.Assign) -> None:
        lhs, rhs = stmt.lhs, stmt.rhs
        if stmt.op in ("+=", "-=", "*="):
            binop = {"+=": "+", "-=": "-", "*=": "*"}[stmt.op]
            stmt = C.Assign(lhs, "=", C.BinOp(binop, lhs.clone(), rhs))
            lhs, rhs = stmt.lhs, stmt.rhs

        # store: ptr[off] = value
        if isinstance(lhs, C.Index):
            src, cleanup = self._eval_float(rhs)
            ptr, off, idx = self._index_parts(lhs)
            self.emit(self.map.store_scalar(src, self.addr(ptr, off, idx),
                                            comment=f"store {ptr}[{off}]"))
            cleanup()
            return

        assert isinstance(lhs, C.Id)
        var = lhs.name

        # zero-initialization: realizes packs
        if isinstance(rhs, C.FloatLit) and rhs.value == 0.0:
            planned = self.plan.pack_of.get(var)
            if planned is not None:
                loc = self.alloc.loc(var)
                if loc is None:
                    pack = self.alloc.alloc_pack(
                        planned.members, planned.cls, planned.layout
                    )
                    self.emit(self.map.vzero(pack.reg))
                    pack.zeroed = True
                else:
                    if not loc.pack.zeroed:
                        self.emit(self.map.vzero(loc.pack.reg))
                        loc.pack.zeroed = True
                return
            loc = self.alloc.alloc(var)
            self.emit(self.map.vzero(loc.reg)
                      if var in self.plan.broadcast_vars
                      else self.map.zero_scalar(loc.reg))
            return
        # load: var = ptr[off]
        if isinstance(rhs, C.Index):
            ptr, off, idx = self._index_parts(rhs)
            cls = array_root(ptr)
            loc = self.alloc.loc(var) or self.alloc.alloc(var, cls)
            if var in self.plan.broadcast_vars:
                self.emit(self.map.vdup(self.addr(ptr, off, idx), loc.reg,
                                        comment=f"{var} = Vdup {ptr}[{off}]"))
            else:
                self.emit(self.map.load_scalar(self.addr(ptr, off, idx), loc.reg,
                                               comment=f"{var} = {ptr}[{off}]"))
            return

        # general float expression
        src, cleanup = self._eval_float(rhs)
        loc = self.alloc.loc(var)
        if loc is None:
            loc = self.alloc.alloc(var)
        if loc.is_lane:
            raise CodegenError(f"cannot assign to vector lane {var!r}")
        if loc.reg.index != src.index:
            self.emit(self.map.mov_scalar(src, loc.reg))
        cleanup()

    def _index_parts(self, e: C.Index):
        if not isinstance(e.base, C.Id):
            raise CodegenError(f"indirect array base unsupported: {e}")
        idx = C.const_fold(e.index)
        off = idx.value if isinstance(idx, C.IntLit) else None
        return e.base.name, off, idx

    def _eval_float(self, e: C.Node) -> Tuple[Register, Callable[[], None]]:
        """Evaluate a float expression tree; returns (reg, cleanup)."""
        if isinstance(e, C.Id):
            return self.read_scalar_value(e.name)
        if isinstance(e, C.FloatLit):
            # materialize via a 64-bit immediate bounced through the stack
            # (keeps both the native path and the emulator constant-pool-free)
            import struct

            tmp = self.alloc.alloc_temp_reg()
            if e.value == 0.0:
                self.emit(self.map.zero_scalar(tmp))
            else:
                bits = struct.unpack("<q", struct.pack("<d", e.value))[0]
                slot = Mem(base=RSP, disp=self._float_const_slot)
                self.emit(instr("mov", Imm(bits), RAX,
                                comment=f"double {e.value}"))
                self.emit(instr("mov", RAX, slot))
                self.emit(self.map.load_scalar(slot, tmp))
            return tmp, (lambda: self.alloc.free_reg(tmp))
        if isinstance(e, C.Index):
            ptr, off, idx = self._index_parts(e)
            tmp = self.alloc.alloc_temp_reg(array_root(ptr))
            self.emit(self.map.load_scalar(self.addr(ptr, off, idx), tmp))
            return tmp, (lambda: self.alloc.free_reg(tmp))
        if isinstance(e, C.BinOp) and e.op in ("+", "-", "*"):
            left, clean_l = self._eval_float(e.left)
            # copy left into a fresh temp so we never clobber a live value
            acc = self.alloc.alloc_temp_reg()
            self.emit(self.map.mov_scalar(left, acc))
            clean_l()
            right, clean_r = self._eval_float(e.right)
            if e.op == "+":
                self.emit(self.map.add_scalar(right, acc))
            elif e.op == "*":
                self.emit(self.map.mul_scalar(right, acc))
            else:
                if self.arch.simd == "avx":
                    self.emit(instr("vsubsd", right.xmm, acc.xmm, acc.xmm))
                else:
                    self.emit(instr("subsd", right.xmm, acc.xmm))
            clean_r()
            return acc, (lambda: self.alloc.free_reg(acc))
        raise CodegenError(f"cannot evaluate float expression: {e}")

    # ------------------------------------------------------------------
    # statement translation
    # ------------------------------------------------------------------
    def gen_function(self) -> List[Item]:
        self._prologue()
        self._gen_block(self.fn.body)
        self._epilogue()
        items = self.items
        if self.schedule:
            items = schedule_items(items)
        return items

    def _prologue(self) -> None:
        used_callee = sorted(
            {r.name for r in self.gp_home.values() if SysVABI.is_callee_saved(r)}
        )
        self._saved = used_callee
        for name in used_callee:
            from ..isa.registers import GP
            self.emit(instr("push", GP[name]))
        if self.frame_size:
            self.emit(instr("sub", Imm(self.frame_size), RSP))
        # stage every argument to its stack slot (clobber-free), then load
        # register-homed variables from the slots
        arg_locs = SysVABI.classify_args(
            ["float" if p.ctype.is_float else "int" for p in self.fn.params]
        )
        # stack-passed args sit above the saved registers and our frame
        entry_disp = self.frame_size + 8 * len(used_callee)
        for p, loc in zip(self.fn.params, arg_locs):
            if isinstance(loc, int):
                self.emit(instr("mov", Mem(base=RSP, disp=entry_disp + loc),
                                RAX, comment=f"stack arg {p.name}"))
                self.emit(instr("mov", RAX, self._slot_mem(p.name)))
            elif loc.kind == "vec":
                self.emit(self.map.store_scalar(loc, self._slot_mem(p.name),
                                                comment=f"arg {p.name}"))
            else:
                self.emit(instr("mov", loc, self._slot_mem(p.name),
                                comment=f"arg {p.name}"))
        for p in self.fn.params:
            home = self.gp_home.get(p.name)
            if home is not None:
                self.emit(instr("mov", self._slot_mem(p.name), home,
                                comment=f"home {p.name}"))

    def _epilogue(self) -> None:
        if self._used_epilogue_label:
            self.items.append(Label(self._epilogue_label))
        if self.arch.simd == "avx" and self.arch.vector_bytes == 32:
            self.emit(instr("vzeroupper"))
        if self.frame_size:
            self.emit(instr("add", Imm(self.frame_size), RSP))
        from ..isa.registers import GP
        for name in reversed(self._saved):
            self.emit(instr("pop", GP[name]))
        self.emit(instr("ret"))

    def _gen_block(self, block: C.Block) -> None:
        for stmt in block.stmts:
            self._gen_stmt(stmt)
            pos = self.liveness.position_of(stmt)
            if pos:
                self.alloc.release_dead(self.liveness, pos)

    def _gen_stmt(self, stmt: C.Node) -> None:
        if isinstance(stmt, C.TaggedRegion):
            self.comment(f"--- {stmt.template} ---")
            payload = stmt.binding["payload"]
            OPTIMIZERS[stmt.template](self, stmt, payload)
            return
        if isinstance(stmt, C.Decl):
            return  # storage decided statically; initializers were hoisted
        if isinstance(stmt, C.For):
            self._gen_for(stmt)
            return
        if isinstance(stmt, C.If):
            self._gen_if(stmt)
            return
        if isinstance(stmt, C.Block):
            self._gen_block(stmt)
            return
        if isinstance(stmt, C.Return):
            self._gen_return(stmt)
            return
        if isinstance(stmt, C.ExprStmt):
            self._gen_expr_stmt(stmt)
            return
        if isinstance(stmt, C.Assign):
            self._gen_assign(stmt)
            return
        raise CodegenError(f"cannot translate statement {type(stmt).__name__}")

    def _gen_assign(self, stmt: C.Assign) -> None:
        # float side?
        lhs_t = self.symtab.expr_type(stmt.lhs)
        if lhs_t.is_float:
            self.float_assign(stmt)
            return

        if not isinstance(stmt.lhs, C.Id):
            raise CodegenError(f"integer store through {stmt.lhs} unsupported")
        var = stmt.lhs.name
        is_ptr = lhs_t.is_pointer

        if stmt.op == "=":
            home = self.gp_home.get(var)
            # eval_ptr uses RAX internally for the integer part, so a
            # spilled pointer destination must evaluate into R11
            dest = home if home is not None else (R11 if is_ptr else RAX)
            if is_ptr:
                self.eval_ptr(stmt.rhs, dest)
            else:
                self.eval_int(stmt.rhs, dest)
            if home is None:
                self.emit(instr("mov", dest, self._slot_mem(var)))
            return

        if stmt.op in ("+=", "-="):
            rhs = C.const_fold(stmt.rhs)
            home = self.gp_home.get(var)
            if is_ptr:
                elem = lhs_t.pointee().sizeof
                if isinstance(rhs, C.IntLit):
                    disp = rhs.value * elem
                    target = home if home is not None else self._slot_mem(var)
                    self.emit(instr("add" if stmt.op == "+=" else "sub",
                                    Imm(disp), target,
                                    comment=f"{var} {stmt.op} {rhs.value}"))
                    return
                self.eval_int(rhs, RAX)
                if stmt.op == "-=":
                    self.emit(instr("neg", RAX))
                if home is not None:
                    self.emit(instr("lea", Mem(base=home, index=RAX, scale=elem),
                                    home, comment=f"{var} += ..."))
                else:
                    self.emit(instr("mov", self._slot_mem(var), R11))
                    self.emit(instr("lea", Mem(base=R11, index=RAX, scale=elem), R11))
                    self.emit(instr("mov", R11, self._slot_mem(var)))
                return
            # integer compound
            if isinstance(rhs, C.IntLit):
                target = home if home is not None else self._slot_mem(var)
                self.emit(instr("add" if stmt.op == "+=" else "sub",
                                Imm(rhs.value), target))
                return
            self.eval_int(rhs, RAX)
            target = home if home is not None else self._slot_mem(var)
            self.emit(instr("add" if stmt.op == "+=" else "sub", RAX, target))
            return

        if stmt.op == "*=":
            home = self.gp_home.get(var)
            self.eval_int(C.BinOp("*", stmt.lhs.clone(), stmt.rhs),
                          home if home is not None else RAX)
            if home is None:
                self.emit(instr("mov", RAX, self._slot_mem(var)))
            return
        raise CodegenError(f"unsupported assignment operator {stmt.op!r}")

    def _gen_expr_stmt(self, stmt: C.ExprStmt) -> None:
        e = stmt.expr
        if isinstance(e, C.Call) and e.func in PREFETCH_FUNCS:
            (arg,) = e.args
            mem_op = self._prefetch_addr(arg)
            self.emit(instr(_PREFETCH_MNEMONIC[e.func], mem_op))
            return
        raise CodegenError(f"cannot translate expression statement {e}")

    def _prefetch_addr(self, e: C.Node) -> Mem:
        e = C.const_fold(e)
        if isinstance(e, C.Id):
            return Mem(base=self.gp_read(e.name))
        if (
            isinstance(e, C.BinOp)
            and e.op in ("+", "-")
            and isinstance(e.left, C.Id)
            and isinstance(C.const_fold(e.right), C.IntLit)
        ):
            elem = self.symtab.expr_type(e.left).pointee().sizeof
            off = C.const_fold(e.right).value * elem
            if e.op == "-":
                off = -off
            return Mem(base=self.gp_read(e.left.name), disp=off)
        self.eval_ptr(e, RAX)
        return Mem(base=RAX)

    def _gen_for(self, loop: C.For) -> None:
        body_label = self.new_label("body")
        check_label = self.new_label("check")
        if loop.init is not None:
            self._gen_stmt(loop.init)
        self.emit(instr("jmp", LabelRef(check_label)))
        self.items.append(Label(body_label))
        self._gen_block(loop.body)
        if loop.step is not None:
            self._gen_stmt(loop.step)
        self.items.append(Label(check_label))
        self._gen_cond_branch(loop.cond, body_label)

    def _gen_cond_branch(self, cond: Optional[C.Node], target: str,
                         negate: bool = False) -> None:
        if cond is None:
            self.emit(instr("jmp", LabelRef(target)))
            return
        if not (isinstance(cond, C.BinOp) and cond.op in _CMP_JCC):
            raise CodegenError(f"unsupported loop condition {cond}")
        jcc = _CMP_JCC[cond.op]
        if negate:
            jcc = {"jl": "jge", "jle": "jg", "jg": "jle", "jge": "jl",
                   "je": "jne", "jne": "je"}[jcc]
        left = cond.left
        right = C.const_fold(cond.right)
        if not isinstance(left, C.Id):
            raise CodegenError("condition LHS must be a variable")
        lreg = self.gp_read(left.name, scratch=R11)
        if isinstance(right, C.IntLit):
            self.emit(instr("cmp", Imm(right.value), lreg))
        elif isinstance(right, C.Id) and right.name in self.gp_home:
            self.emit(instr("cmp", self.gp_home[right.name], lreg))
        else:
            self.eval_int(right, RAX)
            self.emit(instr("cmp", RAX, lreg))
        self.emit(instr(jcc, LabelRef(target)))

    def _gen_if(self, stmt: C.If) -> None:
        else_label = self.new_label("else")
        end_label = self.new_label("endif")
        target = else_label if stmt.els is not None else end_label
        self._gen_cond_branch(stmt.cond, target, negate=True)
        self._gen_block(stmt.then)
        if stmt.els is not None:
            self.emit(instr("jmp", LabelRef(end_label)))
            self.items.append(Label(else_label))
            self._gen_block(stmt.els)
        self.items.append(Label(end_label))

    def _gen_return(self, stmt: C.Return) -> None:
        if stmt.value is not None:
            t = self.symtab.expr_type(stmt.value)
            if t.is_float:
                src, cleanup = self._eval_float(stmt.value)
                if src.index != 0:
                    self.emit(self.map.mov_scalar(src, xmm(0)))
                cleanup()
            else:
                self.eval_int(stmt.value, RAX)
        # single trailing return is the common case; otherwise jump
        # to the shared epilogue
        last_stmt = self.fn.body.stmts[-1] if self.fn.body.stmts else None
        if last_stmt is not stmt:
            self._used_epilogue_label = True
            self.emit(instr("jmp", LabelRef(self._epilogue_label)))


def generate_assembly_items(fn: C.FuncDef, arch: ArchSpec, plan: VectorPlan,
                            schedule: bool = True,
                            unified_regalloc: bool = False) -> List[Item]:
    """Full Assembly Kernel Generator pass over a tagged function."""
    return KernelCodeGen(fn, arch, plan, schedule=schedule,
                         unified_regalloc=unified_regalloc).gen_function()
