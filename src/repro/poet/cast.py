"""Typed AST for the C subset handled by the mini-POET engine.

The AUGEM pipeline operates on *simple C* kernels (paper Figs. 12, 15, 16,
17) and on the *low-level C* produced by the source-to-source transforms.
This module defines the node types shared by the lexer/parser, the
pretty-printer, the pattern matcher, and every transformation.

Nodes are small frozen-ish dataclasses with ``__slots__`` (a 24x8 GEMM
tile is tens of thousands of nodes; mutable on purpose: rewriters build
new trees, but a few passes annotate nodes in place).  Every node supports
``children()``, structural equality, and ``clone()`` (deep copy).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

_BASE_TYPES = ("void", "char", "int", "long", "float", "double")


@dataclass(eq=True)
class CType:
    """A C type: a base type plus a pointer depth (``double*`` etc.)."""

    base: str
    ptr: int = 0

    def __post_init__(self) -> None:
        if self.base not in _BASE_TYPES:
            raise ValueError(f"unsupported base type: {self.base!r}")
        if self.ptr < 0:
            raise ValueError("pointer depth must be >= 0")

    # -- convenience ---------------------------------------------------
    @property
    def is_pointer(self) -> bool:
        return self.ptr > 0

    @property
    def is_float(self) -> bool:
        return self.ptr == 0 and self.base in ("float", "double")

    @property
    def is_integer(self) -> bool:
        return self.ptr == 0 and self.base in ("char", "int", "long")

    def pointee(self) -> "CType":
        if not self.is_pointer:
            raise ValueError(f"{self} is not a pointer type")
        return CType(self.base, self.ptr - 1)

    def pointer_to(self) -> "CType":
        return CType(self.base, self.ptr + 1)

    @property
    def sizeof(self) -> int:
        """Size in bytes (LP64 model)."""
        if self.ptr:
            return 8
        return {"void": 1, "char": 1, "int": 4, "long": 8,
                "float": 4, "double": 8}[self.base]

    def __str__(self) -> str:  # C syntax
        return self.base + "*" * self.ptr

    def __hash__(self) -> int:
        return hash((self.base, self.ptr))


DOUBLE = CType("double")
FLOAT = CType("float")
INT = CType("int")
LONG = CType("long")
VOID = CType("void")
DOUBLE_P = CType("double", 1)
FLOAT_P = CType("float", 1)


# ---------------------------------------------------------------------------
# Base node
# ---------------------------------------------------------------------------


_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}
_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {}

#: field annotations that never hold a child node
_LEAF_ANNOTATIONS = frozenset({"str", "int", "float", "CType", "dict",
                               "frozenset"})


def field_names(cls: type) -> Tuple[str, ...]:
    """The dataclass field names of node class ``cls`` (computed once)."""
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return names


def child_fields(cls: type) -> Tuple[str, ...]:
    """The fields of node class ``cls`` that may hold child nodes."""
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        names = _CHILD_FIELDS[cls] = tuple(
            f.name for f in fields(cls) if f.type not in _LEAF_ANNOTATIONS)
    return names


@dataclass(slots=True)
class Node:
    """Base class of every AST node."""

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (skips None / non-node fields)."""
        for name in child_fields(type(self)):
            v = getattr(self, name)
            if isinstance(v, Node):
                yield v
            elif isinstance(v, (list, tuple)):
                for item in v:
                    if isinstance(item, Node):
                        yield item

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order (iteratively:
        the children are gathered inline, without a generator per node)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            kids = []
            for name in child_fields(type(node)):
                v = getattr(node, name)
                if isinstance(v, Node):
                    kids.append(v)
                elif isinstance(v, (list, tuple)):
                    kids.extend(item for item in v if isinstance(item, Node))
            kids.reverse()
            stack.extend(kids)

    def clone(self) -> "Node":
        """Deep copy of the subtree."""
        return copy_tree(self)

    # Printed form doubles as a readable repr for debugging/tests.
    def __str__(self) -> str:
        from .printer import to_c

        return to_c(self)


Expr = Node  # semantic aliases used in annotations below
Stmt = Node


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Id(Node):
    """A variable reference."""

    name: str


@dataclass(slots=True)
class IntLit(Node):
    """Integer literal."""

    value: int


@dataclass(slots=True)
class FloatLit(Node):
    """Floating-point literal."""

    value: float


@dataclass(slots=True)
class BinOp(Node):
    """Binary expression ``left op right``; op in + - * / % << >> < <= > >= == !=."""

    op: str
    left: Expr
    right: Expr


@dataclass(slots=True)
class UnaryOp(Node):
    """Unary expression; op in ``- ! * &``."""

    op: str
    operand: Expr


@dataclass(slots=True)
class Index(Node):
    """Array subscript ``base[index]``."""

    base: Expr
    index: Expr


@dataclass(slots=True)
class Call(Node):
    """Function (or intrinsic) call.  AUGEM uses ``prefetch*(addr)``."""

    func: str
    args: list = field(default_factory=list)


@dataclass(slots=True)
class Cast(Node):
    """C cast ``(type) expr``."""

    ctype: CType
    operand: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Assign(Node):
    """Assignment statement ``lhs op rhs``; op in = += -= *=."""

    lhs: Expr
    op: str
    rhs: Expr


@dataclass(slots=True)
class Decl(Node):
    """Declaration ``type name [= init];``."""

    name: str
    ctype: CType
    init: Optional[Expr] = None


@dataclass(slots=True)
class ExprStmt(Node):
    """Expression used as a statement (e.g. a call, ``ptr++``)."""

    expr: Expr


@dataclass(slots=True)
class Block(Node):
    """A ``{ ... }`` statement list."""

    stmts: list = field(default_factory=list)


@dataclass(slots=True)
class For(Node):
    """A C for-loop.  ``init``/``step`` are statements (or None); ``cond`` an expr."""

    init: Optional[Stmt]
    cond: Optional[Expr]
    step: Optional[Stmt]
    body: Block


@dataclass(slots=True)
class If(Node):
    cond: Expr
    then: Block
    els: Optional[Block] = None


@dataclass(slots=True)
class Return(Node):
    value: Optional[Expr] = None


@dataclass(slots=True)
class Param(Node):
    name: str
    ctype: CType


@dataclass(slots=True)
class FuncDef(Node):
    """A function definition."""

    name: str
    ret_type: CType
    params: list
    body: Block


@dataclass(slots=True)
class Program(Node):
    """A translation unit: a list of function definitions."""

    funcs: list = field(default_factory=list)

    def func(self, name: str) -> FuncDef:
        for f in self.funcs:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")


# ---------------------------------------------------------------------------
# Region annotation (attached by the Template Identifier)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TaggedRegion(Node):
    """A statement region tagged with a matching template annotation.

    The Template Identifier replaces the matched statement run with one of
    these; the Template Optimizer dispatches on ``template`` (paper Fig. 2:
    ``r_annot = template_annotation(r)``).
    """

    template: str  # template name, e.g. "mmUnrolledCOMP"
    stmts: list  # the original low-level C statements
    binding: dict = field(default_factory=dict)  # template parameters
    live_out: frozenset = frozenset()  # scalars live after the region


# ---------------------------------------------------------------------------
# Helpers used throughout the code base
# ---------------------------------------------------------------------------

#: field values a copy may share with the original (immutable, or never
#: mutated in place: a :class:`CType` is replaced, not edited)
_SHARED = (str, int, float, type(None), frozenset, CType)


def _copy_value(v, ids):
    if isinstance(v, Node):
        return copy_tree(v, ids)
    if isinstance(v, _SHARED):
        return v
    if isinstance(v, list):
        return [_copy_value(item, ids) for item in v]
    return copy.deepcopy(v)


def copy_tree(node: Node, ids: Optional[dict] = None) -> Node:
    """Deep copy of ``node``, substituting identifiers named in ``ids``.

    ``ids`` maps a name to a new name (a string) or to an expression that
    is copied in place of each reference.  One pass: the substitution is
    made while copying, not by rewriting a copy.
    """
    cls = type(node)
    if ids is not None and cls is Id and node.name in ids:
        v = ids[node.name]
        return Id(v) if isinstance(v, str) else copy_tree(v)
    out = object.__new__(cls)
    for name in field_names(cls):
        setattr(out, name, _copy_value(getattr(node, name), ids))
    return out


def const_fold(e: Expr) -> Expr:
    """Fold integer-constant arithmetic; returns a new (or the same) expr."""
    if isinstance(e, BinOp):
        left = const_fold(e.left)
        right = const_fold(e.right)
        if isinstance(left, IntLit) and isinstance(right, IntLit):
            a, b = left.value, right.value
            table = {
                "+": lambda: a + b,
                "-": lambda: a - b,
                "*": lambda: a * b,
                "/": lambda: a // b if b else None,
                "%": lambda: a % b if b else None,
                "<<": lambda: a << b,
                ">>": lambda: a >> b,
            }
            if e.op in table:
                v = table[e.op]()
                if v is not None:
                    return IntLit(v)
        # identity simplifications
        if e.op == "+" and isinstance(right, IntLit) and right.value == 0:
            return left
        if e.op == "+" and isinstance(left, IntLit) and left.value == 0:
            return right
        if e.op == "-" and isinstance(right, IntLit) and right.value == 0:
            return left
        if e.op == "*" and isinstance(right, IntLit) and right.value == 1:
            return left
        if e.op == "*" and isinstance(left, IntLit) and left.value == 1:
            return right
        if e.op == "*" and (
            (isinstance(right, IntLit) and right.value == 0)
            or (isinstance(left, IntLit) and left.value == 0)
        ):
            return IntLit(0)
        return BinOp(e.op, left, right)
    if isinstance(e, UnaryOp):
        operand = const_fold(e.operand)
        if e.op == "-" and isinstance(operand, IntLit):
            return IntLit(-operand.value)
        return UnaryOp(e.op, operand)
    if isinstance(e, Index):
        return Index(const_fold(e.base), const_fold(e.index))
    return e


def add(a: Expr, b: Expr) -> Expr:
    return const_fold(BinOp("+", a, b))


def mul(a: Expr, b: Expr) -> Expr:
    return const_fold(BinOp("*", a, b))


def statements(root: Node) -> Iterator[Node]:
    """Yield ``root`` and every statement under it, pre-order, without
    entering expressions (which hold no declarations or statements)."""
    stack = [root]
    pop = stack.pop
    while stack:
        node = pop()
        yield node
        cls = type(node)
        if cls is Block or cls is TaggedRegion:
            kids = node.stmts
        elif cls is For:
            kids = [k for k in (node.init, node.step, node.body)
                    if k is not None]
        elif cls is If:
            kids = [node.then] if node.els is None else [node.then, node.els]
        elif cls is FuncDef:
            kids = [node.body]
        elif cls is Program:
            kids = node.funcs
        else:
            continue
        stack.extend(reversed(kids))


def ident_names(e: Node) -> set:
    """Set of identifier names referenced anywhere under ``e``."""
    return {n.name for n in e.walk() if isinstance(n, Id)}
