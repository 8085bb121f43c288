"""Tree-walking interpreter for the mini-Argus language.

Runs type-checked modules on the guardian runtime, simulated or over real
sockets: guardians declared in the source become real guardians whose
handler bodies are interpreted; programs run as client processes.  All
blocking operations (RPCs, ``claim``, ``synch``, queue operations,
``sleep``) suspend the underlying simulated process, so interpreted code
interoperates freely with handlers written directly in Python.

Because the type checker has already verified every call, claim and except
arm, the interpreter performs **no** future-tag checks on ordinary values —
the promise-vs-future efficiency argument of §3.3 in action.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.concurrency.promise_queue import PromiseQueue
from repro.core.exceptions import ArgusError, Failure, Signal
from repro.entities.system import ArgusSystem
from repro.lang import ast as A
from repro.lang.errors import LangError
from repro.lang.parser import parse_module
from repro.lang.typecheck import check_module
from repro.types.signatures import PromiseType

__all__ = ["Interpreter", "load_module", "run_source"]


def load_module(source: str) -> A.Module:
    """Parse and type-check *source*."""
    module = parse_module(source)
    check_module(module)
    return module


def run_source(
    source: str,
    *args: Any,
    system: Optional[ArgusSystem] = None,
    program: str = "main",
    **system_kwargs,
):
    """One-shot convenience: build a system, instantiate the module's
    guardians, run *program* on *args* in a ``client`` guardian.

    Returns ``(result, system)``.
    """
    if system is None:
        system = ArgusSystem(**system_kwargs)
    interp = Interpreter(load_module(source))
    interp.instantiate(system)
    client = system.guardians.get("client")
    if client is None:
        client = system.create_guardian("client")
    process = client.spawn(interp.program(program, *args))
    return system.run(until=process), system


class _Return(Exception):
    """Non-local exit for ``return`` statements."""

    def __init__(self, values: Tuple[Any, ...]) -> None:
        super().__init__(values)
        self.values = values


class _Scope:
    """Chained variable scope."""

    __slots__ = ("parent", "names")

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.names: Dict[str, Any] = {}

    def declare(self, name: str, value: Any) -> None:
        self.names[name] = value

    def assign(self, name: str, value: Any) -> None:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                scope.names[name] = value
                return
            scope = scope.parent
        raise KeyError(name)

    def lookup(self, name: str) -> Any:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        raise KeyError(name)

    def child(self) -> "_Scope":
        return _Scope(self)


class _Frame:
    """Per-activity interpreter state (one frame per process)."""

    __slots__ = ("ctx", "handler_cache")

    def __init__(self, ctx: Any) -> None:
        self.ctx = ctx
        self.handler_cache: Dict[Tuple[str, str], Any] = {}

    def handler_ref(self, guardian_name: str, handler_name: str):
        key = (guardian_name, handler_name)
        ref = self.handler_cache.get(key)
        if ref is None:
            ref = self.ctx.lookup(guardian_name, handler_name)
            self.handler_cache[key] = ref
        return ref


def _to_text(value: Any) -> str:
    """``make_string``/``to_string`` formatting."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%g" % value
    if value is None:
        return "nil"
    return str(value)


class Interpreter:
    """Executes one module on any owner of guardians.

    The owner is whatever has ``create_guardian``: a simulated
    :class:`~repro.entities.system.ArgusSystem` or one
    :class:`~repro.rt.host.RtHost` process of a real-socket world.
    """

    def __init__(self, module: A.Module) -> None:
        self.module = module

    # ------------------------------------------------------------------
    # World building
    # ------------------------------------------------------------------
    def guardian(self, owner: Any, name: str):
        """Create the guardian declared as *name* on *owner*."""
        decl = self.module.guardian(name)
        guardian = owner.create_guardian(name)
        for handler in decl.handlers:
            guardian.create_handler(
                handler.name, handler.handler_type, self._procedure(handler, "handler")
            )
        return guardian

    def instantiate(self, owner: Any) -> Dict[str, Any]:
        """Create every declared guardian on *owner*."""
        return {decl.name: self.guardian(owner, decl.name) for decl in self.module.guardians}

    def program(self, name: str, *args: Any):
        """Program *name* applied to *args*, as a ``(ctx)`` procedure any
        guardian can ``spawn``."""
        return self._procedure(self.module.program(name), "program", args)

    def _procedure(self, decl, kind: str, bound: Tuple[Any, ...] = ()):
        interp = self

        def run(ctx, *args):
            return (yield from interp._activate(decl, _Frame(ctx), bound + args))

        run.__name__ = "argus_%s_%s" % (kind, decl.name)
        return run

    def _activate(self, decl, frame: _Frame, args):
        """Run a handler, program or procedure body on *args*."""
        scope = _Scope()
        for (name, _tp), value in zip(decl.params, args):
            scope.declare(name, value)
        try:
            yield from self._exec_block(decl.body, scope.child(), frame)
        except _Return as ret:
            return _collapse(ret.values)
        return None

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _exec_block(self, block: A.Block, scope: _Scope, frame: _Frame):
        for stmt in block.statements:
            yield from self._exec_stmt(stmt, scope, frame)

    def _exec_stmt(self, stmt: A._Node, scope: _Scope, frame: _Frame):
        if isinstance(stmt, A.VarDecl):
            value = yield from self._eval(stmt.expr, scope, frame)
            scope.declare(stmt.name, value)
            return
        if isinstance(stmt, A.Assign):
            value = yield from self._eval(stmt.expr, scope, frame)
            yield from self._assign(stmt.target, value, scope, frame)
            return
        if isinstance(stmt, A.ExprStmt):
            yield from self._eval(stmt.expr, scope, frame)
            return
        if isinstance(stmt, A.StreamStmt):
            ref, args = yield from self._remote_parts(stmt.call, scope, frame)
            ref.stream_statement(*args)
            return
        if isinstance(stmt, A.SendStmt):
            ref, args = yield from self._remote_parts(stmt.call, scope, frame)
            ref.send(*args)
            return
        if isinstance(stmt, A.FlushStmt):
            ref = yield from self._eval(stmt.handler, scope, frame)
            ref.flush()
            return
        if isinstance(stmt, A.SynchStmt):
            ref = yield from self._eval(stmt.handler, scope, frame)
            yield ref.synch()
            return
        if isinstance(stmt, A.SignalStmt):
            values = []
            for arg in stmt.args:
                values.append((yield from self._eval(arg, scope, frame)))
            raise Signal(stmt.name, *values)
        if isinstance(stmt, A.ReturnStmt):
            values = []
            for expr in stmt.exprs:
                values.append((yield from self._eval(expr, scope, frame)))
            raise _Return(tuple(values))
        if isinstance(stmt, A.IfStmt):
            for cond, block in stmt.arms:
                test = yield from self._eval(cond, scope, frame)
                if test:
                    yield from self._exec_block(block, scope.child(), frame)
                    return
            if stmt.else_block is not None:
                yield from self._exec_block(stmt.else_block, scope.child(), frame)
            return
        if isinstance(stmt, A.WhileStmt):
            while True:
                test = yield from self._eval(stmt.cond, scope, frame)
                if not test:
                    return
                yield from self._exec_block(stmt.body, scope.child(), frame)
        if isinstance(stmt, A.ForStmt):
            items = yield from self._eval(stmt.iterable, scope, frame)
            for item in list(items):
                body_scope = scope.child()
                body_scope.declare(stmt.var, item)
                yield from self._exec_block(stmt.body, body_scope, frame)
            return
        if isinstance(stmt, A.BeginStmt):
            yield from self._exec_block(stmt.body, scope.child(), frame)
            return
        if isinstance(stmt, A.CoenterStmt):
            yield from self._exec_coenter(stmt, scope, frame)
            return
        if isinstance(stmt, A.ExceptStmt):
            yield from self._exec_except(stmt, scope, frame)
            return
        raise LangError("unknown statement %r" % (stmt,), stmt.pos)

    def _exec_coenter(self, stmt: A.CoenterStmt, scope: _Scope, frame: _Frame):
        interp = self
        co = frame.ctx.coenter()
        # Queues created in the enclosing scope are guarded automatically.
        for value in _scope_values(scope):
            if isinstance(value, PromiseQueue):
                co.guard_queue(value.raw)

        def make_arm(arm_block: A.Block, bindings=None):
            def arm(actx):
                arm_scope = scope.child()
                for name, value in (bindings or {}).items():
                    arm_scope.declare(name, value)
                arm_frame = _Frame(actx)
                try:
                    yield from interp._exec_block(arm_block, arm_scope, arm_frame)
                except _Return:
                    raise LangError(
                        "return inside a coenter arm", arm_block.pos
                    ) from None

            return arm

        for coenter_arm in stmt.arms:
            if coenter_arm.is_foreach:
                # Dynamic arms: one subprocess per element (§4.3).
                items = yield from self._eval(coenter_arm.iterable, scope, frame)
                for item in list(items):
                    co.arm(
                        make_arm(coenter_arm.body, {coenter_arm.var: item}),
                        label="foreach:%s" % coenter_arm.var,
                    )
            else:
                co.arm(make_arm(coenter_arm.body))
        yield co.run()

    def _exec_except(self, stmt: A.ExceptStmt, scope: _Scope, frame: _Frame):
        try:
            yield from self._exec_stmt(stmt.body, scope, frame)
        except ArgusError as exc:
            arm = self._find_arm(stmt.arms, exc)
            if arm is None:
                raise
            arm_scope = scope.child()
            if arm.is_others:
                if arm.params:
                    arm_scope.declare(arm.params[0][0], str(exc))
            elif arm.params:
                values = exc.exception_args()
                for (pname, _tp), value in zip(arm.params, values):
                    arm_scope.declare(pname, value)
            yield from self._exec_block(arm.body, arm_scope, frame)

    @staticmethod
    def _find_arm(arms: List[A.WhenArm], exc: ArgusError) -> Optional[A.WhenArm]:
        others: Optional[A.WhenArm] = None
        for arm in arms:
            if arm.is_others:
                if others is None:
                    others = arm
            elif exc.condition in arm.names:
                return arm
        return others

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _assign(self, target: A.Expr, value: Any, scope: _Scope, frame: _Frame):
        if isinstance(target, A.VarRef):
            scope.assign(target.name, value)
            return
        if isinstance(target, A.IndexExpr):
            base = yield from self._eval(target.base, scope, frame)
            index = yield from self._eval(target.index, scope, frame)
            self._bounds(base, index, target)
            base[index] = value
            return
        if isinstance(target, A.FieldAccess):
            base = yield from self._eval(target.base, scope, frame)
            base[target.field] = value
            return
        raise LangError("invalid assignment target", target.pos)

    @staticmethod
    def _bounds(base: List[Any], index: Any, node: A._Node) -> None:
        if not isinstance(index, int) or index < 0 or index >= len(base):
            raise Failure("array index out of bounds: %r" % (index,))

    def _remote_parts(self, call: A.CallExpr, scope: _Scope, frame: _Frame):
        ref = yield from self._eval(call.callee, scope, frame)
        args = []
        for arg in call.args:
            args.append((yield from self._eval(arg, scope, frame)))
        return ref, args

    def _eval(self, expr: A.Expr, scope: _Scope, frame: _Frame):
        if isinstance(expr, (A.IntLit, A.RealLit, A.BoolLit, A.StringLit, A.CharLit)):
            return expr.value
        if isinstance(expr, A.NilLit):
            return None
        if isinstance(expr, A.VarRef):
            return scope.lookup(expr.name)
        if isinstance(expr, A.FieldAccess):
            if expr.resolution == "handler":
                guardian_name, handler_name, _ht = expr.resolved
                return frame.handler_ref(guardian_name, handler_name)
            base = yield from self._eval(expr.base, scope, frame)
            return base[expr.field]
        if isinstance(expr, A.IndexExpr):
            base = yield from self._eval(expr.base, scope, frame)
            index = yield from self._eval(expr.index, scope, frame)
            self._bounds(base, index, expr)
            return base[index]
        if isinstance(expr, A.ArrayLit):
            values = []
            for element in expr.elements:
                values.append((yield from self._eval(element, scope, frame)))
            return values
        if isinstance(expr, A.RecordConstruct):
            record = {}
            for fname, fexpr in expr.fields:
                record[fname] = yield from self._eval(fexpr, scope, frame)
            return record
        if isinstance(expr, A.BinOp):
            return (yield from self._eval_binop(expr, scope, frame))
        if isinstance(expr, A.UnOp):
            operand = yield from self._eval(expr.operand, scope, frame)
            if expr.op == "-":
                return -operand
            return not operand
        if isinstance(expr, A.StreamExpr):
            ref, args = yield from self._remote_parts(expr.call, scope, frame)
            return ref.stream(*args)
        if isinstance(expr, A.ForkExpr):
            proc: A.ProcDecl = expr.resolved
            args = []
            for arg in expr.args:
                args.append((yield from self._eval(arg, scope, frame)))
            return frame.ctx.fork(
                self._procedure(proc, "proc"),
                *args,
                ptype=proc.promise_type(),
                label=proc.name,
            )
        if isinstance(expr, A.CallExpr):
            return (yield from self._eval_call(expr, scope, frame))
        if isinstance(expr, A.TypeOpExpr):
            return (yield from self._eval_typeop(expr, scope, frame))
        raise LangError("unknown expression %r" % (expr,), expr.pos)

    def _eval_binop(self, expr: A.BinOp, scope: _Scope, frame: _Frame):
        op = expr.op
        left = yield from self._eval(expr.left, scope, frame)
        if op == "and":
            if not left:
                return False
            return bool((yield from self._eval(expr.right, scope, frame)))
        if op == "or":
            if left:
                return True
            return bool((yield from self._eval(expr.right, scope, frame)))
        right = yield from self._eval(expr.right, scope, frame)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise Failure("division by zero")
            return left / right
        if op == "=":
            return left == right
        if op == "~=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        raise LangError("unknown operator %r" % op, expr.pos)

    def _eval_call(self, expr: A.CallExpr, scope: _Scope, frame: _Frame):
        if expr.resolution == "builtin":
            return (yield from self._eval_builtin(expr, scope, frame))
        if expr.resolution == "proc":
            args = []
            for arg in expr.args:
                args.append((yield from self._eval(arg, scope, frame)))
            return (yield from self._activate(expr.resolved, frame, args))
        # RPC
        ref, args = yield from self._remote_parts(expr, scope, frame)
        result = yield ref.call(*args)
        return result

    def _eval_builtin(self, expr: A.CallExpr, scope: _Scope, frame: _Frame):
        name = expr.callee.name  # type: ignore[attr-defined]
        args = []
        for arg in expr.args:
            args.append((yield from self._eval(arg, scope, frame)))
        if name == "make_string":
            return " ".join(_to_text(value) for value in args)
        if name == "to_string":
            return _to_text(args[0])
        if name == "sleep":
            yield frame.ctx.sleep(float(args[0]))
            return None
        if name == "trunc":
            return int(args[0])
        if name == "float":
            return float(args[0])
        raise LangError("unknown builtin %r" % name, expr.pos)

    def _eval_typeop(self, expr: A.TypeOpExpr, scope: _Scope, frame: _Frame):
        args = []
        for arg in expr.args:
            args.append((yield from self._eval(arg, scope, frame)))
        resolution = expr.resolution
        if resolution == "claim":
            result = yield args[0].claim()
            return result
        if resolution == "ready":
            return args[0].ready()
        if resolution == "array_new":
            return []
        if resolution == "array_addh":
            args[0].append(args[1])
            return None
        if resolution == "array_len":
            return len(args[0])
        if resolution == "array_elements":
            return args[0]
        if resolution == "array_indexes":
            return list(range(len(args[0])))
        if resolution == "queue_new":
            element = expr.on_type.element  # type: ignore[attr-defined]
            return PromiseQueue(
                frame.ctx.env,
                element if isinstance(element, PromiseType) else None,
            )
        if resolution == "queue_enq":
            yield args[0].enq(args[1])
            return None
        if resolution == "queue_deq":
            item = yield args[0].deq()
            return item
        raise LangError("unknown type operation %r" % (expr.op,), expr.pos)


def _collapse(values: Tuple[Any, ...]) -> Any:
    if len(values) == 0:
        return None
    if len(values) == 1:
        return values[0]
    return values


def _scope_values(scope: _Scope):
    seen = set()
    current: Optional[_Scope] = scope
    while current is not None:
        for name, value in current.names.items():
            if name not in seen:
                seen.add(name)
                yield value
        current = current.parent
