"""Abstract syntax for the mini-Argus language.

Type *expressions* are resolved to :mod:`repro.types` descriptors during
parsing (equates must be declared before use, as in the paper's examples),
so AST nodes carry real :class:`~repro.types.signatures.Type` objects.
The type checker annotates expression nodes in place with
``inferred_type`` and a ``resolution`` tag the interpreter dispatches on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.lang.errors import SourcePosition
from repro.types.signatures import HandlerType, PromiseType, Type

__all__ = [
    "QueueType",
    "Module",
    "GuardianDecl",
    "HandlerDecl",
    "ProcDecl",
    "ProgramDecl",
    "Block",
    "VarDecl",
    "Assign",
    "ExprStmt",
    "StreamStmt",
    "SendStmt",
    "FlushStmt",
    "SynchStmt",
    "SignalStmt",
    "ReturnStmt",
    "IfStmt",
    "WhileStmt",
    "ForStmt",
    "BeginStmt",
    "CoenterArm",
    "CoenterStmt",
    "ExceptStmt",
    "WhenArm",
    "Expr",
    "IntLit",
    "RealLit",
    "BoolLit",
    "StringLit",
    "CharLit",
    "NilLit",
    "VarRef",
    "BinOp",
    "UnOp",
    "CallExpr",
    "StreamExpr",
    "ForkExpr",
    "TypeOpExpr",
    "RecordConstruct",
    "ArrayLit",
    "IndexExpr",
    "FieldAccess",
]


class QueueType(Type):
    """``queue[pt]`` — the shared promise queue of Figures 4-1/4-2.

    A language-level type only: queues are not transmissible.
    """

    def __init__(self, element: Type) -> None:
        self.element = element

    def _key(self) -> Tuple:
        return (self.element,)

    def name(self) -> str:
        return "queue[%s]" % self.element.name()


class _Node:
    """Base for all AST nodes: carries a source position."""

    def __init__(self, pos: SourcePosition) -> None:
        self.pos = pos

    def __repr__(self) -> str:
        return "<%s at %s>" % (type(self).__name__, self.pos)


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
class Module(_Node):
    def __init__(
        self,
        equates: Dict[str, Type],
        guardians: List["GuardianDecl"],
        procs: List["ProcDecl"],
        programs: List["ProgramDecl"],
        pos: SourcePosition,
    ) -> None:
        super().__init__(pos)
        self.equates = equates
        self.guardians = guardians
        self.procs = procs
        self.programs = programs

    def guardian(self, name: str) -> "GuardianDecl":
        """The guardian declaration named *name* (KeyError if absent)."""
        for decl in self.guardians:
            if decl.name == name:
                return decl
        raise KeyError(name)

    def program(self, name: str) -> "ProgramDecl":
        """The program declaration named *name* (KeyError if absent)."""
        for decl in self.programs:
            if decl.name == name:
                return decl
        raise KeyError(name)

    def proc(self, name: str) -> "ProcDecl":
        """The procedure declaration named *name* (KeyError if absent)."""
        for decl in self.procs:
            if decl.name == name:
                return decl
        raise KeyError(name)


class GuardianDecl(_Node):
    def __init__(self, name: str, handlers: List["HandlerDecl"], pos: SourcePosition) -> None:
        super().__init__(pos)
        self.name = name
        self.handlers = handlers

    def handler(self, name: str) -> "HandlerDecl":
        """The handler declaration named *name* (KeyError if absent)."""
        for decl in self.handlers:
            if decl.name == name:
                return decl
        raise KeyError(name)


class HandlerDecl(_Node):
    def __init__(
        self,
        name: str,
        params: List[Tuple[str, Type]],
        handler_type: HandlerType,
        body: "Block",
        pos: SourcePosition,
    ) -> None:
        super().__init__(pos)
        self.name = name
        self.params = params
        self.handler_type = handler_type
        self.body = body


class ProcDecl(_Node):
    """A local procedure (usable with ``fork``)."""

    def __init__(
        self,
        name: str,
        params: List[Tuple[str, Type]],
        returns: Tuple[Type, ...],
        signals: Dict[str, Tuple[Type, ...]],
        body: "Block",
        pos: SourcePosition,
    ) -> None:
        super().__init__(pos)
        self.name = name
        self.params = params
        self.returns = returns
        self.signals = signals
        self.body = body
        self._promise_type: Optional[PromiseType] = None

    def promise_type(self) -> PromiseType:
        """The promise type of forks of this procedure (ht -> pt), derived
        once so every fork's promise shares its compiled checkers."""
        if self._promise_type is None:
            self._promise_type = PromiseType(returns=self.returns, signals=self.signals)
        return self._promise_type


class ProgramDecl(_Node):
    """A client program run inside a guardian process."""

    def __init__(
        self,
        name: str,
        params: List[Tuple[str, Type]],
        body: "Block",
        pos: SourcePosition,
    ) -> None:
        super().__init__(pos)
        self.name = name
        self.params = params
        self.body = body


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
class Block(_Node):
    def __init__(self, statements: List[_Node], pos: SourcePosition) -> None:
        super().__init__(pos)
        self.statements = statements


class VarDecl(_Node):
    def __init__(self, name: str, var_type: Type, expr: "Expr", pos: SourcePosition) -> None:
        super().__init__(pos)
        self.name = name
        self.var_type = var_type
        self.expr = expr


class Assign(_Node):
    def __init__(self, target: "Expr", expr: "Expr", pos: SourcePosition) -> None:
        super().__init__(pos)
        self.target = target
        self.expr = expr


class ExprStmt(_Node):
    def __init__(self, expr: "Expr", pos: SourcePosition) -> None:
        super().__init__(pos)
        self.expr = expr


class StreamStmt(_Node):
    """``stream h(args)`` in statement form: reply decoded and discarded."""

    def __init__(self, call: "CallExpr", pos: SourcePosition) -> None:
        super().__init__(pos)
        self.call = call


class SendStmt(_Node):
    def __init__(self, call: "CallExpr", pos: SourcePosition) -> None:
        super().__init__(pos)
        self.call = call


class FlushStmt(_Node):
    def __init__(self, handler: "Expr", pos: SourcePosition) -> None:
        super().__init__(pos)
        self.handler = handler


class SynchStmt(_Node):
    def __init__(self, handler: "Expr", pos: SourcePosition) -> None:
        super().__init__(pos)
        self.handler = handler


class SignalStmt(_Node):
    def __init__(self, name: str, args: List["Expr"], pos: SourcePosition) -> None:
        super().__init__(pos)
        self.name = name
        self.args = args


class ReturnStmt(_Node):
    def __init__(self, exprs: List["Expr"], pos: SourcePosition) -> None:
        super().__init__(pos)
        self.exprs = exprs


class IfStmt(_Node):
    def __init__(
        self,
        arms: List[Tuple["Expr", Block]],
        else_block: Optional[Block],
        pos: SourcePosition,
    ) -> None:
        super().__init__(pos)
        self.arms = arms
        self.else_block = else_block


class WhileStmt(_Node):
    def __init__(self, cond: "Expr", body: Block, pos: SourcePosition) -> None:
        super().__init__(pos)
        self.cond = cond
        self.body = body


class ForStmt(_Node):
    """``for x: t in expr do ... end`` — iterate an array's elements."""

    def __init__(
        self,
        var: str,
        var_type: Type,
        iterable: "Expr",
        body: Block,
        pos: SourcePosition,
    ) -> None:
        super().__init__(pos)
        self.var = var
        self.var_type = var_type
        self.iterable = iterable
        self.body = body


class BeginStmt(_Node):
    def __init__(self, body: Block, pos: SourcePosition) -> None:
        super().__init__(pos)
        self.body = body


class CoenterArm(_Node):
    """One arm of a coenter: a plain ``action`` or a dynamic ``foreach``.

    ``foreach x: t in expr`` spawns one subprocess per element of the
    array *expr* — "Argus provides such a mechanism, which extends the
    coenter to allow a dynamic number of processes" (§4.3).
    """

    def __init__(
        self,
        body: Block,
        pos: SourcePosition,
        var: Optional[str] = None,
        var_type: Optional[Type] = None,
        iterable: Optional["Expr"] = None,
    ) -> None:
        super().__init__(pos)
        self.body = body
        self.var = var
        self.var_type = var_type
        self.iterable = iterable

    @property
    def is_foreach(self) -> bool:
        return self.var is not None


class CoenterStmt(_Node):
    def __init__(self, arms: List["CoenterArm"], pos: SourcePosition) -> None:
        super().__init__(pos)
        self.arms = arms


class WhenArm(_Node):
    """``when name(params): body`` or ``when others(param): body``."""

    def __init__(
        self,
        names: Optional[List[str]],  # None = others
        params: List[Tuple[str, Type]],
        body: Block,
        pos: SourcePosition,
    ) -> None:
        super().__init__(pos)
        self.names = names
        self.params = params
        self.body = body

    @property
    def is_others(self) -> bool:
        return self.names is None


class ExceptStmt(_Node):
    """A statement with an attached ``except when ... end``."""

    def __init__(self, body: _Node, arms: List[WhenArm], pos: SourcePosition) -> None:
        super().__init__(pos)
        self.body = body
        self.arms = arms


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
class Expr(_Node):
    def __init__(self, pos: SourcePosition) -> None:
        super().__init__(pos)
        #: Filled in by the type checker.
        self.inferred_type: Optional[Type] = None
        #: Resolution tag for the interpreter (e.g. "builtin", "handler").
        self.resolution: Optional[str] = None
        #: Extra resolution payload (e.g. the handler decl).
        self.resolved: Any = None


class IntLit(Expr):
    def __init__(self, value: int, pos: SourcePosition) -> None:
        super().__init__(pos)
        self.value = value


class RealLit(Expr):
    def __init__(self, value: float, pos: SourcePosition) -> None:
        super().__init__(pos)
        self.value = value


class BoolLit(Expr):
    def __init__(self, value: bool, pos: SourcePosition) -> None:
        super().__init__(pos)
        self.value = value


class StringLit(Expr):
    def __init__(self, value: str, pos: SourcePosition) -> None:
        super().__init__(pos)
        self.value = value


class CharLit(Expr):
    def __init__(self, value: str, pos: SourcePosition) -> None:
        super().__init__(pos)
        self.value = value


class NilLit(Expr):
    pass


class VarRef(Expr):
    def __init__(self, name: str, pos: SourcePosition) -> None:
        super().__init__(pos)
        self.name = name


class BinOp(Expr):
    def __init__(self, op: str, left: Expr, right: Expr, pos: SourcePosition) -> None:
        super().__init__(pos)
        self.op = op
        self.left = left
        self.right = right


class UnOp(Expr):
    def __init__(self, op: str, operand: Expr, pos: SourcePosition) -> None:
        super().__init__(pos)
        self.op = op
        self.operand = operand


class CallExpr(Expr):
    """``callee(args)`` — an RPC, a builtin, or a local call form."""

    def __init__(self, callee: Expr, args: List[Expr], pos: SourcePosition) -> None:
        super().__init__(pos)
        self.callee = callee
        self.args = args


class StreamExpr(Expr):
    """``stream h(args)`` in expression form: evaluates to a promise."""

    def __init__(self, call: CallExpr, pos: SourcePosition) -> None:
        super().__init__(pos)
        self.call = call


class ForkExpr(Expr):
    """``fork foo(args)`` — a promise for a local procedure call."""

    def __init__(self, proc_name: str, args: List[Expr], pos: SourcePosition) -> None:
        super().__init__(pos)
        self.proc_name = proc_name
        self.args = args


class TypeOpExpr(Expr):
    """``T$op(args)`` — CLU-style type operation (``pt$claim(x)``)."""

    def __init__(self, on_type: Type, op: str, args: List[Expr], pos: SourcePosition) -> None:
        super().__init__(pos)
        self.on_type = on_type
        self.op = op
        self.args = args


class RecordConstruct(Expr):
    """``T${f1: e1, f2: e2}`` — record construction."""

    def __init__(
        self,
        on_type: Type,
        fields: List[Tuple[str, Expr]],
        pos: SourcePosition,
    ) -> None:
        super().__init__(pos)
        self.on_type = on_type
        self.fields = fields


class ArrayLit(Expr):
    """``#[e1, e2, ...]`` — array literal (element type inferred)."""

    def __init__(self, elements: List[Expr], pos: SourcePosition) -> None:
        super().__init__(pos)
        self.elements = elements


class IndexExpr(Expr):
    def __init__(self, base: Expr, index: Expr, pos: SourcePosition) -> None:
        super().__init__(pos)
        self.base = base
        self.index = index


class FieldAccess(Expr):
    """``base.field`` — record field, or ``guardian.handler``."""

    def __init__(self, base: Expr, field: str, pos: SourcePosition) -> None:
        super().__init__(pos)
        self.base = base
        self.field = field
