"""An interpreting abstract machine for the checkpointing IR.

:class:`MeteredMachine` *executes* the checkpointing algorithms — the same
IR templates the specializer consumes, and the residual IR it produces —
against live object structures, writing real checkpoint bytes while
counting every abstract operation. Tests verify that its output is
byte-identical to the production drivers and to the compiled specialized
functions, which makes the op counts trustworthy: they are measurements of
an actual execution, not an analytical estimate.

Accounting conventions (see :mod:`repro.vm.ops`):

- In *generic* code, reads of ``_ckpt_info`` / ``modified`` / ``object_id``
  count as accessor calls (``acc``) — in the paper's Java they are
  ``getCheckpointInfo()`` / ``modified()`` / ``getId()`` method calls whose
  price depends on how well the backend inlines accessors.
- In *specialized* code the receiver class is static, so the same reads
  count as plain ``getfield`` — the specializer has proven the access.
- Entering ``checkpoint``/``record``/``fold`` in generic code costs one
  ``vcall``; invoking one compiled specialized routine costs one ``call``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.blocks import BlockTier
from repro.core.checkpointable import Checkpointable
from repro.core.errors import (
    CheckpointError,
    PatternViolationError,
    SpecializationError,
)
from repro.core.streams import DataOutputStream, NullOutputStream
from repro.spec import ir, templates
from repro.vm.ops import OpCounts

_ACCESSOR_FIELDS = ("_ckpt_info", "modified", "object_id")


class _Driver:
    """Sentinel bound to the ``ckpt`` variable during interpretation."""


_DRIVER = _Driver()


class MeteredMachine:
    """Executes checkpointing IR with operation accounting."""

    def __init__(self, out: Optional[DataOutputStream] = None) -> None:
        self.counts = OpCounts()
        self.out = out if out is not None else NullOutputStream()
        self._record_cache: Dict[type, ir.Stmt] = {}
        self._fold_cache: Dict[type, ir.Stmt] = {}
        self._checkpoint_template = templates.checkpoint_ir()
        self._full_template = templates.full_checkpoint_ir()
        self._full_mode = False

    # -- public entry points -------------------------------------------------

    def run_incremental(self, root: Checkpointable) -> None:
        """Execute the generic incremental driver on one structure."""
        self._full_mode = False
        self._visit(root)

    def run_full(self, root: Checkpointable) -> None:
        """Execute the generic full-checkpoint driver on one structure."""
        self._full_mode = True
        self._visit(root)

    def run_residual(self, residual: ir.Seq, root: Checkpointable) -> None:
        """Execute a specialized (residual) program on one structure."""
        self.counts.bump("call")  # direct invocation of the routine
        env: Dict[str, Any] = {"root": root}
        self._exec(residual, env, generic=False)

    def run_differential(self, tier: BlockTier) -> None:
        """Execute one differential commit over a partitioned block tier.

        The block-tier skip decision is one ``test`` per block; only dirty
        blocks pay the generic incremental walk (:meth:`run_incremental`
        on each of their roots), writing into :attr:`out`. The tier must
        already be partitioned and in sync with its roots — the
        (re)partition walk is the caller's baseline commit, modeled by
        running this once right after :meth:`BlockTier.partition` (all
        blocks start dirty, so that commit walks everything).
        """
        if not tier.partitioned:
            raise CheckpointError(
                "run_differential needs a partitioned BlockTier; call "
                "tier.partition(roots) first"
            )
        for block in tier.blocks:
            self.counts.bump("test")  # the per-block generation/dirty check
            if tier.is_clean(block):
                continue
            for root in block.roots:
                self.run_incremental(root)
            tier.mark_committed(block)

    # -- generic interpretation ------------------------------------------------

    def _visit(self, obj: Checkpointable) -> None:
        self.counts.bump("vcall")  # the ckpt.checkpoint(o) dispatch
        template = self._full_template if self._full_mode else self._checkpoint_template
        env: Dict[str, Any] = {"o": obj, "out": self.out, "ckpt": _DRIVER}
        self._exec(template, env, generic=True)

    def _record_ir(self, cls: type) -> ir.Stmt:
        cached = self._record_cache.get(cls)
        if cached is None:
            cached = templates.record_ir(cls)
            self._record_cache[cls] = cached
        return cached

    def _fold_ir(self, cls: type) -> ir.Stmt:
        cached = self._fold_cache.get(cls)
        if cached is None:
            cached = templates.fold_ir(cls)
            self._fold_cache[cls] = cached
        return cached

    # -- execution ------------------------------------------------------------

    def _exec(self, stmt: ir.Stmt, env: Dict[str, Any], generic: bool) -> None:
        counts = self.counts
        if isinstance(stmt, ir.Seq):
            for inner in stmt.stmts:
                self._exec(inner, env, generic)
        elif isinstance(stmt, ir.Assign):
            env[stmt.name] = self._eval(stmt.expr, env, generic)
        elif isinstance(stmt, ir.If):
            counts.bump("test")
            if self._eval(stmt.cond, env, generic):
                self._exec(stmt.then, env, generic)
            elif stmt.orelse is not None:
                self._exec(stmt.orelse, env, generic)
        elif isinstance(stmt, ir.Write):
            value = self._eval(stmt.expr, env, generic)
            self._write(stmt.kind, value, generic)
        elif isinstance(stmt, ir.SetAttr):
            counts.bump("flag_reset")
            base = self._eval(stmt.base, env, generic)
            setattr(base, stmt.field, self._eval(stmt.expr, env, generic))
        elif isinstance(stmt, ir.ExprStmt):
            self._call(stmt.expr, env, generic)
        elif isinstance(stmt, ir.WriteScalarList):
            counts.bump("getfield")
            values = self._eval(stmt.expr, env, generic)._items
            self._write("int", len(values), generic)
            for value in values:
                counts.bump("iter")
                self._write(stmt.kind, value, generic)
        elif isinstance(stmt, ir.RecordChildIds):
            counts.bump("getfield")
            members = self._eval(stmt.expr, env, generic)._items
            self._write("int", len(members), generic)
            for member in members:
                counts.bump("iter")
                counts.bump("acc" if generic else "getfield")
                self._write("int", member._ckpt_info.object_id, generic)
        elif isinstance(stmt, ir.FoldChildren):
            counts.bump("getfield")
            members = self._eval(stmt.expr, env, generic)._items
            for member in members:
                counts.bump("iter")
                self._visit(member)
        elif isinstance(stmt, ir.Guard):
            counts.bump("test")
            if not self._eval(stmt.cond, env, generic):
                raise PatternViolationError(stmt.message)
        else:
            raise SpecializationError(f"machine cannot execute {stmt!r}")

    def _call(self, call: ir.Expr, env: Dict[str, Any], generic: bool) -> None:
        if not isinstance(call, ir.MethodCall):
            raise SpecializationError(f"machine cannot execute expression {call!r}")
        receiver = self._eval(call.base, env, generic)
        if receiver is _DRIVER and call.method == "checkpoint":
            # _visit accounts the vcall at the callee entry.
            self._visit(self._eval(call.args[0], env, generic))
            return
        self.counts.bump("vcall")
        if call.method == "record":
            body = self._record_ir(type(receiver))
            self._exec(body, {"self": receiver, "out": self.out}, generic)
        elif call.method == "fold":
            body = self._fold_ir(type(receiver))
            self._exec(body, {"self": receiver, "ckpt": _DRIVER}, generic)
        else:
            raise SpecializationError(f"machine cannot dispatch {call!r}")

    def _eval(self, expr: ir.Expr, env: Dict[str, Any], generic: bool) -> Any:
        counts = self.counts
        if isinstance(expr, ir.Var):
            return env[expr.name]
        if isinstance(expr, ir.Const):
            return expr.value
        if isinstance(expr, ir.FieldGet):
            base = self._eval(expr.base, env, generic)
            if generic and expr.field in _ACCESSOR_FIELDS:
                counts.bump("acc")
            else:
                counts.bump("getfield")
            return getattr(base, expr.field)
        if isinstance(expr, ir.IndexGet):
            counts.bump("getfield")
            return self._eval(expr.base, env, generic)._items[expr.index]
        if isinstance(expr, ir.ListLen):
            counts.bump("getfield")
            return len(self._eval(expr.base, env, generic)._items)
        if isinstance(expr, ir.IsNone):
            return self._eval(expr.base, env, generic) is None
        if isinstance(expr, ir.Not):
            return not self._eval(expr.operand, env, generic)
        if isinstance(expr, ir.Eq):
            return self._eval(expr.left, env, generic) == self._eval(
                expr.right, env, generic
            )
        if isinstance(expr, ir.ClassIs):
            return type(self._eval(expr.base, env, generic)) is expr.cls
        if isinstance(expr, ir.ClassSerialOf):
            return type(self._eval(expr.base, env, generic))._ckpt_serial
        raise SpecializationError(f"machine cannot evaluate {expr!r}")

    def _write(self, kind: str, value: Any, generic: bool) -> None:
        # Reaching the stream costs a small method call in generic code
        # (``d.writeInt(...)``; an attribute lookup plus call in the
        # Python implementation) — priced in the accessor bucket.
        # Specialized code uses statically pre-bound writers, whose call
        # overhead is folded into the write op price itself.
        if generic:
            self.counts.bump("acc")
        self.counts.bump("write_" + kind)
        out = self.out
        if kind == "int":
            out.write_int32(value)
        elif kind == "float":
            out.write_float64(value)
        elif kind == "bool":
            out.write_bool(value)
        else:
            out.write_str(value)
