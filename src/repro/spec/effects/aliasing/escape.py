"""Escape/alias interpretation over recorded object graphs.

The dirty-flag discipline is sound only when every write to recorded
state flows through a flag-setting site — a field descriptor
(``_FieldDescriptor.__set__``) or a :class:`~repro.core.fields.
TrackedList` mutator. This module interprets function bodies over an
abstract heap that tracks *where recorded references flow*, and reports
the ways a reference can leave the discipline:

``alias-write-bypasses-flag`` (error)
    A write reachable through an alias whose flag-set site cannot be
    proven: raw ``_f_<field>`` slot stores, mutation of the
    ``TrackedList._items`` backing list, ``__dict__``/``vars()`` stores,
    ``setattr(obj, "_f_...", v)``.
``shared-subtree-alias`` (error / warning)
    One mutable object attached under two distinct recorded parents —
    its flag clears when either root commits, silently staling the
    other's delta. Attaching a *fresh* object twice is an error;
    re-attaching a reference loaded out of the recorded graph is a
    warning (the load site may have detached it first).
``reference-escapes-recorded-graph`` (warning / info)
    A recorded reference stored where the commit discipline cannot see
    it: ``global`` stores, class-attribute stores, module-level
    container mutation (warnings); arguments handed to callees the
    analysis cannot resolve (info).
``alias-captured-by-thread`` (warning)
    A recorded reference captured by ``threading.Thread`` arguments or a
    closure handed to ``target=`` — concurrent mutation feeds the
    lockset pass. When the thread target resolves in-module, its body is
    interpreted with the captured references bound, so bypass writes
    inside the worker surface as errors.

Abstract values form a small lattice: ``RECORDED`` (a checkpointable
instance, with class and freshness), ``TRACKED`` (a flag-preserving
``TrackedList`` view), ``RAW`` (a flag-bypassing view — ``._items`` or
``__dict__``), plus references to module containers, classes, and
functions. Everything else is ``OTHER``.

The interpreter is the *alias domain* of the shared core
(:mod:`repro.spec.effects.interp`), which walks the AST, binds
arguments, guards recursion and call depth, and caches summaries. This
domain makes one ordered pass with strong updates — the attach history
of a variable depends on statement order — where the effect domain
joins to a fixpoint. In-module calls are summarized in the process-wide
:data:`SUMMARY_CACHE` per ``(file, module-source digest, qualname, def
line, argument signature)``; a hit replays the call's findings, escape
sites and suppressed sites instead of re-walking the body. A call
beyond the core's depth bound gets the unresolved-callee rule: when it
is passed a recorded reference, an info finding and an escape site.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.spec.effects.aliasing.model import AliasModule
from repro.spec.effects.callgraph import SummaryCache
from repro.spec.effects.concurrency.model import MUTATOR_METHODS
from repro.spec.effects.interp import Args, Frame, Interpreter
from repro.spec.effects.suppress import SuppressedSite

#: abstract value kinds
RECORDED = "recorded"
TRACKED = "tracked"
RAW = "raw"
MCONT = "module-container"
CLASSREF = "classref"
FUNCREF = "funcref"
NESTED = "nestedfunc"
OTHER = "other"

#: mutator names that attach their first argument into the receiver
ATTACHING_MUTATORS = {"append", "insert", "add"}

#: builtin callees a recorded reference may flow into without escaping
SAFE_BUILTINS = {
    "len", "print", "repr", "str", "id", "isinstance", "issubclass",
    "type", "sorted", "reversed", "list", "tuple", "set", "dict",
    "enumerate", "zip", "range", "sum", "min", "max", "any", "all",
    "iter", "next", "hash", "hasattr", "getattr", "setattr", "vars",
    "format", "bool", "int", "float", "abs", "round", "map", "filter",
    "frozenset", "super", "object", "Exception", "ValueError",
    "TypeError", "RuntimeError", "AssertionError", "KeyError",
    "IndexError", "AttributeError",
}

class AV:
    """One abstract value."""

    __slots__ = ("kind", "cls", "fresh", "elem_role", "elem_cls", "ref")

    def __init__(
        self,
        kind: str,
        cls: Optional[str] = None,
        fresh: bool = False,
        elem_role: Optional[str] = None,
        elem_cls: Optional[str] = None,
        ref=None,
    ) -> None:
        self.kind = kind
        #: class name for RECORDED / the owner class for a ``__dict__`` RAW
        self.cls = cls
        #: RECORDED only: freshly constructed (never attached anywhere)
        self.fresh = fresh
        #: for list-like views: ``child_list`` / ``scalar_list``
        self.elem_role = elem_role
        self.elem_cls = elem_cls
        #: payload for CLASSREF/FUNCREF/NESTED/MCONT (name or AST node)
        self.ref = ref

    def signature(self) -> Tuple:
        """The summary-cache identity of this value as an argument."""
        ref = self.ref
        if isinstance(ref, ast.AST):  # a nested function: name and line
            ref = (ref.name, ref.lineno)
        return (self.kind, self.cls or "", self.fresh, self.elem_role or "",
                self.elem_cls or "", ref)

    def is_empty(self) -> bool:
        """Nothing the alias rules track (summary keys leave it out)."""
        return self.kind == OTHER and self.elem_role is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f":{self.cls}" if self.cls else ""
        return f"AV({self.kind}{extra}{'+fresh' if self.fresh else ''})"


_OTHER = AV(OTHER)


def _weight(value: AV) -> int:
    """How much a value tells the alias rules (the join keeps the most)."""
    if value.kind == RECORDED:
        return 3
    if value.kind != OTHER:
        return 2
    return 0 if value.is_empty() else 1


class EscapeSite:
    """Provenance of one point where a recorded reference leaves the graph."""

    __slots__ = ("kind", "what", "filename", "lineno")

    def __init__(self, kind: str, what: str, filename: str, lineno: int) -> None:
        self.kind = kind
        self.what = what
        self.filename = filename
        self.lineno = lineno

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "what": self.what,
            "file": self.filename,
            "line": self.lineno,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EscapeSite({self.kind}, {self.filename}:{self.lineno})"


class AliasReport:
    """Everything one analysis run produced.

    ``cache_hits``/``cache_misses`` count this report's own summary
    lookups (the cache itself is process-wide).
    """

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self.escapes: List[EscapeSite] = []
        self.suppressed: List[SuppressedSite] = []
        self.modules = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._seen: Set[Tuple] = set()
        self._seen_escapes: Set[Tuple] = set()
        self._seen_suppressed: Set[Tuple] = set()

    def finding(
        self, severity: str, code: str, message: str, filename: str, lineno: int
    ) -> None:
        # summaries replay from every call site; record each finding once
        key = (code, filename, lineno, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(Finding(severity, code, message, filename, lineno))

    def escape(self, kind: str, what: str, filename: str, lineno: int) -> None:
        key = (kind, what, filename, lineno)
        if key in self._seen_escapes:
            return
        self._seen_escapes.add(key)
        self.escapes.append(EscapeSite(kind, what, filename, lineno))

    def suppressed_site(self, site: SuppressedSite) -> None:
        key = (site.filename, site.lineno, site.what)
        if key in self._seen_suppressed:
            return
        self._seen_suppressed.add(key)
        self.suppressed.append(site)




#: process-wide alias summaries (keys carry the module-source digest, so
#: sharing across analyses and edits is safe)
SUMMARY_CACHE = SummaryCache()


def _src(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return "<expr>"


class _AliasFrame(Frame):
    """A body under interpretation, plus its attach history."""

    __slots__ = ("attached",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: var -> attach sites: (parent description, lineno)
        self.attached: Dict[str, List[Tuple[str, int]]] = {}


class AliasInterpreter(Interpreter):
    """The alias domain: interprets one module's bodies over the abstract heap.

    Records emitted (and replayed from summaries) are ``("finding",
    severity, code, message, filename, lineno)``, ``("escape", kind,
    what, filename, lineno)`` and ``("suppressed", filename, lineno,
    reason, what)``. ``hits``/``misses`` count this run's summary
    lookups.
    """

    frame_type = _AliasFrame
    bottom = _OTHER

    def __init__(
        self,
        module: AliasModule,
        report: AliasReport,
        cache: Optional[SummaryCache] = None,
    ) -> None:
        super().__init__(cache if cache is not None else SUMMARY_CACHE)
        self.module = module
        self.report = report

    def entry(
        self,
        body: List[ast.stmt],
        label: str,
        fdef: Optional[ast.FunctionDef] = None,
        env: Optional[Dict[str, AV]] = None,
    ) -> None:
        """Interpret one entry point: a module body, function or method."""
        frame = _AliasFrame(
            dict(env or {}), _OTHER, label, self.module.filename,
            fdef.lineno if fdef is not None else None,
        )
        self.run(body, frame)

    # -- the domain's update rule: one ordered pass, strong updates --------

    def run(self, body: List[ast.stmt], frame: Frame) -> AV:
        self.block(body, frame)
        return frame.ret

    def join(self, left: AV, right: AV) -> AV:
        """Keep the more telling value: recorded, then tracked, then a
        copy of a list (``OTHER`` with an element role), then left."""
        return right if _weight(right) > _weight(left) else left

    def bind(self, name: str, value: AV, node: ast.expr, frame: Frame) -> None:
        if name in frame.declared and value.kind in (RECORDED, TRACKED, RAW):
            self._emit(
                frame,
                "warning",
                "reference-escapes-recorded-graph",
                f"recorded reference stored to global {name!r}: "
                "writes through it outlive the commit discipline",
                node.lineno,
            )
            self._escape("global-store", name, node.lineno)
        frame.env[name] = value
        # a rebound variable is a new object: its attach history restarts
        frame.attached.pop(name, None)

    def returned(self, value: AV, node: ast.Return, frame: Frame) -> None:
        if value.kind in (RECORDED, TRACKED, RAW):
            self._escape(
                "return", f"{frame.label} returns {value.kind} reference",
                node.lineno,
            )
        super().returned(value, node, frame)

    # -- records -----------------------------------------------------------

    def apply(self, record: Tuple) -> None:
        kind = record[0]
        if kind == "finding":
            self.report.finding(*record[1:])
        elif kind == "escape":
            self.report.escape(*record[1:])
        else:
            self.report.suppressed_site(SuppressedSite(*record[1:]))

    def _emit(
        self, frame: Frame, severity: str, code: str, message: str, lineno: int
    ) -> None:
        """Report one finding, or its ``# alias-ok`` suppression."""
        filename = self.module.filename
        reason = self.module.suppressions.reason_at(lineno, frame.lineno)
        if reason is not None:
            self.emit(("suppressed", filename, lineno, reason, message))
        else:
            self.emit(("finding", severity, code, message, filename, lineno))

    def _escape(self, kind: str, what: str, lineno: int) -> None:
        self.emit(("escape", kind, what, self.module.filename, lineno))

    def _unresolved_callee(
        self, pairs, callee: str, what: str, node: ast.Call, frame: Frame
    ) -> None:
        """Recorded references handed to code the analysis does not walk."""
        recorded = [_src(expr) for expr, av in pairs if av.kind == RECORDED]
        if recorded:
            self._emit(
                frame,
                "info",
                "reference-escapes-recorded-graph",
                f"recorded reference {recorded[0]!r} passed to {callee}: "
                "its writes are not analyzed",
                node.lineno,
            )
            self._escape("unresolved-call", what, node.lineno)

    # -- write targets -----------------------------------------------------

    def store_attribute(self, base: AV, target: ast.Attribute, value: AV,
                        value_expr: Optional[ast.expr], frame: Frame) -> None:
        field = target.attr
        if base.kind == RECORDED and field.startswith("_f_"):
            self._emit(
                frame,
                "error",
                "alias-write-bypasses-flag",
                f"raw slot store {_src(target)} skips the field "
                "descriptor: the modified flag is never set",
                target.lineno,
            )
        elif base.kind == CLASSREF and value.kind in (RECORDED, TRACKED, RAW):
            self._emit(
                frame,
                "warning",
                "reference-escapes-recorded-graph",
                f"recorded reference stored on class "
                f"{base.ref}.{field}: shared across instances, "
                "invisible to per-root commits",
                target.lineno,
            )
            self._escape("class-attr-store", f"{base.ref}.{field}", target.lineno)
        elif base.kind == RECORDED:
            decl = self.module.field_of(base.cls, field)
            if decl is not None and decl.role == "child":
                self._attach(
                    frame, value_expr, value,
                    f"{_src(target.value)}.{field}", target.lineno,
                )

    def store_item(self, base: AV, target: ast.Subscript, value: AV,
                   value_expr: Optional[ast.expr], frame: Frame) -> None:
        if base.kind == RAW:
            self._emit(
                frame,
                "error",
                "alias-write-bypasses-flag",
                f"store into raw view {_src(target.value)}: the "
                "backing list/dict is mutated without touching the "
                "modified flag",
                target.lineno,
            )
        elif base.kind == MCONT:
            if value.kind in (RECORDED, TRACKED, RAW):
                self._emit(
                    frame,
                    "warning",
                    "reference-escapes-recorded-graph",
                    f"recorded reference stored into module-level "
                    f"container {base.ref!r}",
                    target.lineno,
                )
                self._escape("module-container", str(base.ref), target.lineno)
        elif base.kind == TRACKED and base.elem_role == "child_list":
            self._attach(
                frame, value_expr, value,
                f"{_src(target.value)}[...]", target.lineno,
            )

    def update(self, target: ast.expr, value: AV, how: str,
               frame: Frame) -> None:
        if isinstance(target, ast.Attribute):
            base = self.eval(target.value, frame)
            if base.kind == RECORDED and target.attr.startswith("_f_"):
                self._emit(
                    frame,
                    "error",
                    "alias-write-bypasses-flag",
                    f"{how} of raw slot {_src(target)} skips the field "
                    "descriptor: the modified flag is never set",
                    target.lineno,
                )
        elif isinstance(target, ast.Subscript):
            base = self.eval(target.value, frame)
            self.eval(target.slice, frame)
            if base.kind == RAW:
                self._emit(
                    frame,
                    "error",
                    "alias-write-bypasses-flag",
                    f"{how} through raw view {_src(target.value)} mutates "
                    "the backing container without touching the modified "
                    "flag",
                    target.lineno,
                )

    # -- sharing -----------------------------------------------------------

    def _attach(
        self,
        frame: Frame,
        value_expr: Optional[ast.expr],
        value: AV,
        parent_desc: str,
        lineno: int,
    ) -> None:
        """Record ``parent.field = value`` / ``parent.kids.append(value)``."""
        if value.kind != RECORDED:
            return
        if not value.fresh:
            self._emit(
                frame,
                "warning",
                "shared-subtree-alias",
                f"reference loaded from the recorded graph re-attached "
                f"under {parent_desc}: the subtree may now be reachable "
                "from two parents, and one commit clears the other's "
                "dirty flags",
                lineno,
            )
            return
        if not isinstance(value_expr, ast.Name):
            return
        history = frame.attached.setdefault(value_expr.id, [])
        previous = [p for p, _ in history if p != parent_desc]
        if previous:
            self._emit(
                frame,
                "error",
                "shared-subtree-alias",
                f"{value_expr.id!r} attached under {parent_desc} is "
                f"already attached under {previous[0]}: one object "
                "reachable from two recorded parents, so either commit "
                "clears the other's dirty flags",
                lineno,
            )
        history.append((parent_desc, lineno))

    # -- values ------------------------------------------------------------

    def element(self, value: AV) -> AV:
        if value.elem_role == "child_list":
            return AV(RECORDED, cls=value.elem_cls, fresh=False)
        return _OTHER

    def container(self, element: AV) -> AV:
        # a list of recorded references iterates back to them
        if element.kind == RECORDED:
            return AV(OTHER, elem_role="child_list", elem_cls=element.cls)
        return _OTHER

    def subscript(self, base: AV, node: ast.Subscript) -> AV:
        if isinstance(node.slice, ast.Slice):
            # a slice of a child list is a plain copy with the same
            # recorded elements
            return AV(OTHER, elem_role=base.elem_role, elem_cls=base.elem_cls)
        return self.element(base)

    def free_name(self, name: str, frame: Frame) -> AV:
        if name in frame.nested:
            return AV(NESTED, ref=frame.nested[name])
        if name in self.module.module_containers:
            return AV(MCONT, ref=name)
        if name in self.module.classes or name in self.module.all_class_names:
            return AV(CLASSREF, ref=name)
        if name in self.module.functions:
            return AV(FUNCREF, ref=name)
        return _OTHER

    def attribute(self, base: AV, attr: str) -> AV:
        if base.kind == RECORDED:
            if attr == "__dict__":
                return AV(RAW, cls=base.cls, elem_role="dict")
            field = attr[3:] if attr.startswith("_f_") else attr
            decl = self.module.field_of(base.cls, field)
            if decl is None:
                return _OTHER
            if decl.role == "child":
                return AV(RECORDED, cls=decl.child_cls, fresh=False)
            if decl.role == "child_list":
                return AV(
                    TRACKED, elem_role="child_list", elem_cls=decl.child_cls
                )
            if decl.role == "scalar_list":
                return AV(TRACKED, elem_role="scalar_list")
            return _OTHER
        if base.kind == TRACKED and attr == "_items":
            return AV(RAW, elem_role=base.elem_role, elem_cls=base.elem_cls)
        return _OTHER

    # -- calls -------------------------------------------------------------

    def call(self, node: ast.Call, frame: Frame) -> AV:
        func = node.func
        if isinstance(func, ast.Name):
            return self._call_name(node, func.id, frame)
        if isinstance(func, ast.Attribute):
            return self._call_method(node, func, frame)
        self.eval(func, frame)
        self.eval_args(node, frame)
        return _OTHER

    def _call_name(self, call: ast.Call, name: str, frame: Frame) -> AV:
        if name == "Thread":
            return self._thread_call(call, frame)
        args = self.eval_args(call, frame)
        first = args.positional[0][1] if args.positional else _OTHER
        if name in self.module.classes:
            return self._constructor(call, name, args, frame)
        if name == "vars" and len(call.args) == 1:
            if first.kind == RECORDED:
                return AV(RAW, cls=first.cls, elem_role="dict")
            return _OTHER
        attr = call.args[1] if len(call.args) >= 2 else None
        if (
            name in ("getattr", "setattr")
            and isinstance(attr, ast.Constant)
            and isinstance(attr.value, str)
        ):
            if name == "getattr":
                return self.attribute(first, attr.value)
            if (
                len(call.args) >= 3
                and first.kind == RECORDED
                and attr.value.startswith("_f_")
            ):
                self._emit(
                    frame,
                    "error",
                    "alias-write-bypasses-flag",
                    f"setattr(..., {attr.value!r}, ...) stores into the "
                    "raw slot: the modified flag is never set",
                    call.lineno,
                )
            return _OTHER
        if name in ("list", "tuple", "sorted", "reversed") and call.args:
            # a copy: plain container, recorded elements
            return AV(OTHER, elem_role=first.elem_role, elem_cls=first.elem_cls)
        if name in frame.nested:
            # the alias pass does not follow closures: only the
            # arguments are bound
            return self.invoke(
                frame.nested[name], args, call, frame, f"{frame.label}.{name}"
            )
        if name in self.module.functions:
            return self.invoke(self.module.functions[name], args, call, frame, name)
        if name not in SAFE_BUILTINS:
            self._unresolved_callee(
                args.pairs(), f"unresolved callee {name!r}", name, call, frame
            )
        return _OTHER

    def _constructor(
        self, call: ast.Call, cls_name: str, args: Args, frame: Frame
    ) -> AV:
        for name, expr, value in args.keywords:
            if name is None:
                continue
            decl = self.module.field_of(cls_name, name)
            if decl is not None and decl.role == "child":
                self._attach(
                    frame, expr, value, f"{cls_name}(...).{name}", call.lineno
                )
        return AV(RECORDED, cls=cls_name, fresh=True)

    def _call_method(
        self, call: ast.Call, func: ast.Attribute, frame: Frame
    ) -> AV:
        receiver = self.eval(func.value, frame)
        method = func.attr
        if method == "Thread":
            # threading.Thread(...)
            return self._thread_call(call, frame)
        args = self.eval_args(call, frame)
        pairs = list(args.pairs())
        if receiver.kind == RAW and method in MUTATOR_METHODS:
            self._emit(
                frame,
                "error",
                "alias-write-bypasses-flag",
                f"{method}() on raw view {_src(func.value)} mutates the "
                "backing container without touching the modified flag",
                call.lineno,
            )
            return _OTHER
        if receiver.kind == MCONT and method in MUTATOR_METHODS:
            recorded = [
                _src(expr) for expr, av in pairs
                if av.kind in (RECORDED, TRACKED, RAW)
            ]
            if recorded:
                self._emit(
                    frame,
                    "warning",
                    "reference-escapes-recorded-graph",
                    f"recorded reference {recorded[0]!r} stored into "
                    f"module-level container {receiver.ref!r}: it "
                    "outlives the commit discipline",
                    call.lineno,
                )
                self._escape("module-container", str(receiver.ref), call.lineno)
            return _OTHER
        if receiver.kind == TRACKED:
            if (
                method in ATTACHING_MUTATORS
                and receiver.elem_role == "child_list"
                and pairs
            ):
                expr, av = pairs[-1] if method == "insert" else pairs[0]
                self._attach(
                    frame, expr, av, f"{_src(func.value)}.{method}", call.lineno
                )
            if method == "as_list":
                return AV(
                    OTHER,
                    elem_role=receiver.elem_role,
                    elem_cls=receiver.elem_cls,
                )
            return _OTHER
        if receiver.kind == RECORDED:
            if method == "children":
                return AV(OTHER, elem_role="child_list")
            cls = self.module.classes.get(receiver.cls or "")
            target = cls.methods.get(method) if cls is not None else None
            if target is not None:
                return self.invoke(
                    target, args, call, frame, f"{receiver.cls}.{method}",
                    receiver=receiver,
                )
        return _OTHER

    # -- threads -----------------------------------------------------------

    def _thread_call(self, call: ast.Call, frame: Frame) -> AV:
        target: Optional[AV] = None
        args = Args()  # what the worker is called with
        for keyword in call.keywords:
            value = keyword.value
            if keyword.arg == "target":
                target = self.eval(value, frame)
            elif keyword.arg in ("args", "kwargs") and isinstance(
                value, (ast.Tuple, ast.List)
            ):
                for element in value.elts:
                    args.positional.append((element, self.eval(element, frame)))
            elif keyword.arg in ("args", "kwargs") and isinstance(value, ast.Dict):
                for key, item in zip(value.keys, value.values):
                    name = key.value if isinstance(key, ast.Constant) else None
                    args.keywords.append((name, item, self.eval(item, frame)))
            elif keyword.arg in ("args", "kwargs"):
                args.positional.append((value, self.eval(value, frame)))
            else:
                self.eval(value, frame)
        for arg in call.args:
            self.eval(arg, frame)

        captured = [
            (expr, av) for expr, av in args.pairs()
            if av.kind in (RECORDED, TRACKED, RAW)
        ]
        closure_captures: List[str] = []
        fdef: Optional[ast.FunctionDef] = None
        qualname = "<thread-target>"
        if target is not None and target.kind == NESTED:
            fdef = target.ref
            qualname = f"{frame.label}.{fdef.name}"
            bound = {
                arg.arg for arg in fdef.args.args + fdef.args.kwonlyargs
            }
            for node in ast.walk(fdef):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id not in bound
                    and node.id in frame.env
                    and frame.env[node.id].kind in (RECORDED, TRACKED, RAW)
                ):
                    closure_captures.append(node.id)
        elif target is not None and target.kind == FUNCREF:
            fdef = self.module.functions[target.ref]
            qualname = str(target.ref)

        if captured or closure_captures:
            what = _src(captured[0][0]) if captured else closure_captures[0]
            self._emit(
                frame,
                "warning",
                "alias-captured-by-thread",
                f"recorded reference {what!r} captured by a thread: "
                "mutation races the commit path (see the lockset pass)",
                call.lineno,
            )
            self._escape("thread-capture", what, call.lineno)
            if fdef is not None:
                # interpret the worker with the captured references bound,
                # so bypass writes inside the thread body surface as errors
                closure = {name: frame.env[name] for name in closure_captures}
                self.invoke(fdef, args, call, frame, qualname, closure=closure)
        return _OTHER

    # -- the core's refusals ------------------------------------------------

    def summary_key(self, fdef: ast.FunctionDef, label: str) -> Tuple:
        # the module source fixes the class/container facts and the
        # suppression table a summary was computed against
        return (self.module.filename, self.module.digest, label, fdef.lineno)

    def unresolved(self, fdef: ast.FunctionDef, label: str, args: Args,
                   receiver: Optional[AV], node: ast.Call, frame: Frame,
                   recursive: bool) -> AV:
        # a recursive call's writes are those of the walk already running;
        # a call beyond the depth bound is a callee the pass cannot see
        if not recursive:
            pairs = list(args.pairs())
            if receiver is not None and isinstance(node.func, ast.Attribute):
                pairs.insert(0, (node.func.value, receiver))
            self._unresolved_callee(
                pairs,
                f"callee {label!r} beyond the call-depth bound "
                f"({self.MAX_DEPTH})",
                label, node, frame,
            )
        return _OTHER


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _annotation_class(
    module: AliasModule, annotation: Optional[ast.expr]
) -> Optional[str]:
    if isinstance(annotation, ast.Name) and annotation.id in module.classes:
        return annotation.id
    if (
        isinstance(annotation, ast.Attribute)
        and annotation.attr in module.classes
    ):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        name = annotation.value.split(".")[-1]
        if name in module.classes:
            return name
    return None


def entry_env(module: AliasModule, fdef: ast.FunctionDef) -> Dict[str, AV]:
    """Parameter bindings for analyzing ``fdef`` as an entry point.

    Parameters annotated with an in-module checkpointable class are bound
    recorded (non-fresh: the caller may have attached them anywhere);
    everything else is unknown.
    """
    env: Dict[str, AV] = {}
    spec = fdef.args
    for arg in spec.posonlyargs + spec.args + spec.kwonlyargs:
        cls = _annotation_class(module, arg.annotation)
        if cls is not None:
            env[arg.arg] = AV(RECORDED, cls=cls, fresh=False)
    return env


def interpret_module(
    module: AliasModule,
    report: AliasReport,
    cache: Optional[SummaryCache] = None,
) -> None:
    """Run the alias rules over one extracted module.

    Entry points: the module's top-level statements, every module
    function (recorded parameters inferred from annotations), and every
    method of a checkpointable class (``self`` bound recorded).
    """
    interp = AliasInterpreter(module, report, cache)
    interp.entry(module.toplevel, "<module>")
    for name, fdef in module.functions.items():
        interp.entry(fdef.body, name, fdef, entry_env(module, fdef))
    for cls_name, cls in module.classes.items():
        for method_name, fdef in cls.methods.items():
            params = fdef.args.posonlyargs + fdef.args.args
            if not params:
                continue
            env = {params[0].arg: AV(RECORDED, cls=cls_name, fresh=False)}
            env.update(entry_env(module, fdef))
            interp.entry(fdef.body, f"{cls_name}.{method_name}", fdef, env)
    report.modules += 1
    report.cache_hits += interp.hits
    report.cache_misses += interp.misses
