"""May-modify effect analysis over the Python AST of phase functions.

The analysis answers one question: *given a phase of the program, which
positions of a checkpointed structure may be marked modified before the
next checkpoint?* The answer is a sound over-approximation of the dynamic
behaviour, so a :class:`~repro.spec.modpattern.ModificationPattern` built
from it can be compiled **without run-time guards**.

Abstract domain
---------------

A value is abstracted as the set of shape positions it may alias:

- ``objs`` — the object may be the checkpointable at any of these paths;
- ``lists`` — the value may be the tracked list behind ``(path, field)``;
- ``infos`` — the value may be the ``CheckpointInfo`` of these paths.

The empty abstraction means "no shape alias" (plain ints, strings, helper
objects); writes through it are irrelevant to checkpointing.

Transfer functions mirror the framework's flagging semantics exactly: an
attribute assignment through a field descriptor flags the *owner*, and a
mutating call on a :class:`~repro.core.fields.TrackedList` flags the list's
owner. The analysis is flow-insensitive within a function — statements are
re-interpreted, alias sets only ever grow, until a fixpoint — which soundly
covers loops such as the linked-list walk ``node = node.next``.

The analyzer is the *effect domain* of the shared interpreter core
(:mod:`repro.spec.effects.interp`): the core walks the AST, binds
arguments, guards recursion and depth, and caches call summaries; this
module supplies the values above and their transfer functions.

Interprocedural propagation follows the *cross-module call graph*: a call
to a name that resolves (through the phase function's globals) to a pure
Python function with available source is analysed with the abstract
arguments bound to its parameters, and methods invoked on checkpointable
objects are resolved through the receiver's class and analysed the same
way. Function sources are loaded through the process-wide code-hash-keyed
:data:`~repro.spec.effects.callgraph.SOURCE_CACHE`, and each (callee,
argument-signature) pair is summarised once in a
:class:`~repro.spec.effects.callgraph.SummaryCache` — subsequent calls
replay the summary's writes, fallbacks, cautions and call edges instead
of re-walking the body. Any call that cannot be resolved, or that passes
a shape alias to unknown code, triggers the conservative fallback: every
position in the escaping subtree is assumed modifiable, and the report
notes the loss of precision.
"""

from __future__ import annotations

import ast
import builtins
import types
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.errors import EffectAnalysisError
from repro.spec.effects.callgraph import (
    CallGraph,
    SummaryCache,
    load_function_ast,
)
from repro.spec.effects.interp import Args, Frame, Interpreter
from repro.spec.modpattern import ModificationPattern
from repro.spec.shape import Path, Shape, ShapeNode

#: builtins that neither mutate nor retain their arguments
_PURE_BUILTINS = frozenset(
    {
        "len", "range", "print", "min", "max", "sum", "abs", "isinstance",
        "issubclass", "repr", "str", "int", "float", "bool", "id", "hash",
        "format", "ord", "chr", "round", "divmod", "callable", "type",
        "any", "all",
    }
)

#: builtins that return (an iterator over) their arguments unchanged
_ALIAS_BUILTINS = frozenset(
    {"list", "tuple", "sorted", "reversed", "iter", "next", "enumerate",
     "set", "frozenset", "zip", "filter"}
)

#: the mutating subset of the TrackedList API (flags the list's owner)
_LIST_MUTATORS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "clear", "sort",
     "replace", "__setitem__", "__delitem__"}
)

#: Checkpointable methods known not to modify checkpointed state
_PURE_OBJ_METHODS = frozenset({"get_checkpoint_info", "children"})

#: CheckpointInfo methods that set the modification flag
_INFO_SETTERS = frozenset({"set_modified"})

class Abs:
    """Abstract value: the shape positions a runtime value may alias."""

    __slots__ = ("objs", "lists", "infos")

    def __init__(
        self,
        objs: FrozenSet[Path] = frozenset(),
        lists: FrozenSet[Tuple[Path, str]] = frozenset(),
        infos: FrozenSet[Path] = frozenset(),
    ) -> None:
        self.objs = objs
        self.lists = lists
        self.infos = infos

    def join(self, other: "Abs") -> "Abs":
        if other is EMPTY:
            return self
        if self is EMPTY:
            return other
        return Abs(
            self.objs | other.objs,
            self.lists | other.lists,
            self.infos | other.infos,
        )

    def is_empty(self) -> bool:
        return not (self.objs or self.lists or self.infos)

    def signature(self) -> Tuple:
        """Hashable summary used for memoization and fixpoint detection."""
        return (
            frozenset(self.objs),
            frozenset(self.lists),
            frozenset(self.infos),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Abs(objs={sorted(self.objs, key=repr)!r}, "
            f"lists={sorted(self.lists, key=repr)!r})"
        )


EMPTY = Abs()


class WriteSite:
    """Provenance of one inferred may-write: where and why."""

    __slots__ = ("path", "filename", "lineno", "reason")

    def __init__(self, path: Optional[Path], filename: str, lineno: int, reason: str) -> None:
        self.path = path
        self.filename = filename
        self.lineno = lineno
        self.reason = reason

    def location(self) -> str:
        return f"{self.filename}:{self.lineno}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WriteSite({self.path!r} @ {self.location()}: {self.reason})"


class EffectReport:
    """Result of the analysis: may-written positions plus provenance."""

    def __init__(self, shape: Shape, phase_names: List[str]) -> None:
        self.shape = shape
        self.phase_names = phase_names
        #: path -> evidence sites (first site is the earliest discovered)
        self.sites: Dict[Path, List[WriteSite]] = {}
        #: conservative widenings caused by opaque calls
        self.fallbacks: List[WriteSite] = []
        #: suspicious constructs worth surfacing (flag writes, slot writes,
        #: structural child_list mutations) — not themselves unsound
        self.cautions: List[WriteSite] = []

    # -- recording (used by the analyzer) ----------------------------------

    def add(self, path: Path, site: WriteSite) -> bool:
        """Record a may-write; returns True when the site is new."""
        existing = self.sites.setdefault(path, [])
        for seen in existing:
            if seen.filename == site.filename and seen.lineno == site.lineno:
                return False
        existing.append(site)
        return True

    def add_fallback(self, site: WriteSite) -> None:
        """Record a widening, once per ``file:line``."""
        if not any(
            f.filename == site.filename and f.lineno == site.lineno
            for f in self.fallbacks
        ):
            self.fallbacks.append(site)

    def add_caution(self, site: WriteSite) -> None:
        """Record a caution, once per ``file:line`` and reason."""
        if not any(
            c.filename == site.filename and c.lineno == site.lineno
            and c.reason == site.reason
            for c in self.cautions
        ):
            self.cautions.append(site)

    def merge(self, other: "EffectReport") -> None:
        """Add everything ``other`` recorded."""
        for path, sites in other.sites.items():
            for site in sites:
                self.add(path, site)
        for site in other.fallbacks:
            self.add_fallback(site)
        for site in other.cautions:
            self.add_caution(site)

    def size(self) -> Tuple[int, int, int]:
        """How much was recorded: fixpoint detection compares these."""
        return (
            sum(len(sites) for sites in self.sites.values()),
            len(self.fallbacks),
            len(self.cautions),
        )

    # -- queries -----------------------------------------------------------

    @property
    def may_write(self) -> FrozenSet[Path]:
        """The inferred over-approximation of modifiable positions."""
        return frozenset(self.sites)

    def is_exact(self) -> bool:
        """True when no opaque-call fallback widened the result."""
        return not self.fallbacks

    def proves_quiescent(self, path: Path) -> bool:
        """True when the analysis proves the position is never written."""
        return tuple(path) not in self.sites

    def pattern(self) -> ModificationPattern:
        """The (sound) modification pattern implied by the inferred effects."""
        return ModificationPattern.only(self.shape, self.may_write)

    def evidence(self, path: Path) -> List[WriteSite]:
        return list(self.sites.get(tuple(path), ()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EffectReport({len(self.sites)}/{self.shape.node_count()} "
            f"positions may be written, exact={self.is_exact()})"
        )


# ---------------------------------------------------------------------------
# The analyzer: the effect domain over the shared interpreter core
# ---------------------------------------------------------------------------


def _label_of(fn: Callable) -> str:
    module = getattr(fn, "__module__", None) or "<unknown>"
    qualname = getattr(fn, "__qualname__", None) or getattr(
        fn, "__name__", repr(fn)
    )
    return f"{module}.{qualname}"


class EffectAnalyzer(Interpreter):
    """Analyses phase functions against one shape.

    ``summaries`` optionally shares a
    :class:`~repro.spec.effects.callgraph.SummaryCache` across analyzers
    (it must be bound to the same shape); ``callgraph`` optionally
    collects the call edges the run discovers.

    Records emitted (and replayed from summaries) are
    ``(kind, path, filename, lineno, reason)`` for ``write``,
    ``fallback`` and ``caution`` sites, and ``("edge", caller, callee,
    filename, lineno, resolved, reason)`` for call edges.
    """

    bottom = EMPTY

    def __init__(
        self,
        shape: Shape,
        roots: Optional[Iterable[str]] = None,
        summaries: Optional[SummaryCache] = None,
        callgraph: Optional[CallGraph] = None,
    ) -> None:
        super().__init__(
            summaries if summaries is not None else SummaryCache(shape), shape
        )
        self.shape = shape
        self.roots = frozenset(roots or ())
        self.report: EffectReport = EffectReport(shape, [])
        self.callgraph = callgraph

    # -- entry points ------------------------------------------------------

    def analyze(self, phases: Iterable[Callable]) -> EffectReport:
        phases = list(phases)
        self.report = EffectReport(
            self.shape, [getattr(fn, "__name__", repr(fn)) for fn in phases]
        )
        for fn in phases:
            loaded = self._function_ast(fn)
            if loaded is None:
                raise EffectAnalysisError(
                    f"cannot analyse phase {fn!r}: source is unavailable"
                )
            fdef, filename, globs = loaded
            label = _label_of(fn)
            if self.callgraph is not None:
                self.callgraph.add_root(label)
            frame = Frame(self._bind_root(fn, fdef), EMPTY, label, filename,
                          fdef.lineno, globs=globs)
            self.run(fdef.body, frame)
        return self.report

    def _function_ast(
        self, fn: Callable
    ) -> Optional[Tuple[ast.FunctionDef, str, dict]]:
        if not isinstance(fn, types.FunctionType):
            return None
        loaded = load_function_ast(fn)
        if loaded is None:
            return None
        fdef, filename = loaded
        return (fdef, filename, fn.__globals__)

    def _bind_root(
        self, fn: Callable, fdef: ast.FunctionDef, skip: Iterable[str] = ()
    ) -> Dict[str, Abs]:
        """Bind the root parameter(s) of a phase (or driver) to the shape root.

        Parameters named in ``skip`` (a driver's session) never bind. A
        keyword-only parameter binds only by name or annotation: the lone
        parameter fallback counts the positional ones.
        """
        root_abs = Abs(objs=frozenset({()}))
        env: Dict[str, Abs] = {}
        spec = fdef.args
        positional = [
            a.arg for a in spec.posonlyargs + spec.args if a.arg not in skip
        ]
        params = positional + [
            a.arg for a in spec.kwonlyargs if a.arg not in skip
        ]
        annotations = getattr(fn, "__annotations__", {})
        root_cls = self.shape.root.cls
        for name in params:
            annotation = annotations.get(name)
            if name in self.roots or annotation is root_cls or (
                isinstance(annotation, str) and annotation == root_cls.__name__
            ):
                env[name] = root_abs
        if not env:
            if "root" in params:
                env["root"] = root_abs
            elif len(positional) == 1:
                env[positional[0]] = root_abs
            else:
                raise EffectAnalysisError(
                    f"cannot bind the shape root ({root_cls.__name__}) to a "
                    f"parameter of {fn.__qualname__}; annotate the root "
                    "parameter with the root class or pass roots=[name]"
                )
        return env

    # -- the domain's update rule: join, iterate to a fixpoint -------------

    def join(self, left: Abs, right: Abs) -> Abs:
        return left.join(right)

    def bind(self, name: str, value: Abs, node: ast.expr, frame: Frame) -> None:
        frame.env[name] = frame.env.get(name, EMPTY).join(value)

    def run(self, body: List[ast.stmt], frame: Frame) -> Abs:
        limit = self.shape.node_count() + 3
        self._fixpoint(lambda: self.block(body, frame), frame, limit)
        return frame.ret

    def _fixpoint(self, sweep: Callable[[], None], frame: Frame, limit: int) -> None:
        """Repeat ``sweep`` until the environment and reports stop growing."""
        for _ in range(limit):
            snapshot = self._signature(frame)
            sweep()
            if self._signature(frame) == snapshot:
                break

    def _signature(self, frame: Frame) -> Tuple:
        env_sig = tuple(
            sorted((name, value.signature()) for name, value in frame.env.items())
        )
        return (
            env_sig,
            frame.ret.signature(),
            tuple(report.size() for report in self._watched()),
        )

    def _watched(self) -> List[EffectReport]:
        """The reports whose growth keeps the fixpoint going."""
        return [self.report]

    # -- shape helpers -----------------------------------------------------

    def _node(self, path: Path) -> ShapeNode:
        return self.shape.node_at(path)

    def _field_by_name(self, node: ShapeNode, name: str):
        for spec in node.cls._ckpt_schema:
            if spec.name == name:
                return spec
        return None

    def attribute(self, base: Abs, attr: str) -> Abs:
        """Abstract result of reading ``base.attr``."""
        objs: set = set()
        lists: set = set()
        infos: set = set()
        for path in base.objs:
            node = self._node(path)
            if attr == "_ckpt_info":
                infos.add(path)
                continue
            name = attr[3:] if attr.startswith("_f_") else attr
            spec = self._field_by_name(node, name)
            if spec is None:
                continue
            if spec.role == "child":
                child = node.child_node(spec.name)
                if child is not None:
                    objs.add(child.path)
            elif spec.role in ("child_list", "scalar_list"):
                lists.add((path, spec.name))
            # scalar reads carry no alias
        for path, field in base.lists:
            if attr == "_items":
                objs.update(self._list_members(path, field))
        if not (objs or lists or infos):
            return EMPTY
        return Abs(frozenset(objs), frozenset(lists), frozenset(infos))

    def _list_members(self, path: Path, field: str) -> FrozenSet[Path]:
        node = self._node(path)
        spec = self._field_by_name(node, field)
        if spec is not None and spec.role == "child_list":
            return frozenset(n.path for n in node.list_nodes(field))
        return frozenset()

    def element(self, value: Abs) -> Abs:
        """Abstract elements obtained by iterating/indexing ``value``."""
        objs = set(value.objs)  # container literals keep members in .objs
        for path, field in value.lists:
            objs.update(self._list_members(path, field))
        if not objs:
            return EMPTY
        return Abs(objs=frozenset(objs))

    def container(self, element: Abs) -> Abs:
        return element  # a literal's members stay in its own sets

    def subscript(self, base: Abs, node: ast.Subscript) -> Abs:
        index: Optional[int] = None
        if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, int):
            index = node.slice.value
        objs: set = set(base.objs)  # container-literal members
        for path, field in base.lists:
            members = sorted(self._list_members(path, field))
            if index is not None and 0 <= index < len(members):
                objs.add(members[index])
            else:
                objs.update(members)
        return Abs(objs=frozenset(objs)) if objs else EMPTY

    def _subtree_paths(self, prefix: Path) -> List[Path]:
        return [p for p in self.shape.paths() if p[: len(prefix)] == prefix]

    # -- records -----------------------------------------------------------

    def apply(self, record: Tuple) -> None:
        kind = record[0]
        if kind == "edge":
            if self.callgraph is not None:
                self.callgraph.record(*record[1:])
            return
        site = WriteSite(*record[1:])
        if kind == "write":
            self.report.add(site.path, site)
        elif kind == "fallback":
            self.report.add_fallback(site)
        else:
            self.report.add_caution(site)

    def _site(self, kind: str, node: ast.AST, frame: Frame, reason: str,
              path: Optional[Path] = None) -> None:
        self.emit((kind, path, frame.filename, getattr(node, "lineno", 0), reason))

    def _effect(self, path: Path, node: ast.AST, frame: Frame, reason: str) -> None:
        self._site("write", node, frame, reason, path)

    def _caution(self, node: ast.AST, frame: Frame, reason: str) -> None:
        self._site("caution", node, frame, reason)

    def _taint(self, value: Abs, node: ast.AST, frame: Frame, reason: str) -> None:
        """Conservative fallback: every reachable position may be written."""
        prefixes: set = set(value.objs)
        prefixes.update(path for path, _field in value.lists)
        prefixes.update(value.infos)
        if not prefixes:
            return
        self._site("fallback", node, frame, reason)
        for prefix in prefixes:
            for path in self._subtree_paths(prefix):
                self._effect(path, node, frame, f"escapes to opaque code: {reason}")

    def _taint_all(self, values: Iterable[Abs], node: ast.Call, frame: Frame,
                   reason: str) -> None:
        for value in values:
            self._taint(value, node, frame, reason)

    def _edge(self, frame: Frame, callee: str, node: ast.AST, resolved: bool,
              reason: str = "") -> None:
        """Record one call edge (kept only when a call graph is attached)."""
        self.emit(("edge", frame.label, callee, frame.filename,
                   getattr(node, "lineno", 0), resolved, reason))

    # -- write targets -----------------------------------------------------

    def store_item(self, base: Abs, target: ast.Subscript, value: Abs,
                   value_expr: Optional[ast.expr], frame: Frame) -> None:
        for path, field in base.lists:
            self._effect(
                path, target, frame,
                f"item assignment on tracked list field {field!r}",
            )

    def store_attribute(self, base: Abs, target: ast.Attribute, value: Abs,
                        value_expr: Optional[ast.expr], frame: Frame) -> None:
        attr = target.attr
        for path in base.objs:
            node = self._node(path)
            if attr == "_ckpt_info":
                self._caution(
                    target, frame,
                    "replacing _ckpt_info defeats modification tracking",
                )
                self._effect(path, target, frame, "assignment to _ckpt_info")
                continue
            name = attr[3:] if attr.startswith("_f_") else attr
            spec = self._field_by_name(node, name)
            if spec is None:
                continue  # non-schema attribute: not checkpointed state
            if attr.startswith("_f_"):
                self._caution(
                    target, frame,
                    f"write to slot {attr!r} bypasses the field descriptor "
                    "(no modification flag is set)",
                )
            self._effect(
                path, target, frame, f"assignment to field .{spec.name}"
            )
            if spec.role in ("child", "child_list") and not attr.startswith("_f_"):
                self._caution(
                    target, frame,
                    f"reassigning {spec.role} field .{spec.name} changes the "
                    "structure the Shape was derived from",
                )
        for path, field in base.lists:
            if attr == "_items":
                self._caution(
                    target, frame,
                    "write to TrackedList._items bypasses modification tracking",
                )
                self._effect(path, target, frame, f"raw write to {field!r}._items")
        for path in base.infos:
            if attr == "modified":
                self._caution(
                    target, frame,
                    "direct write to CheckpointInfo.modified",
                )
                self._effect(path, target, frame, "direct modified-flag write")

    # -- calls -------------------------------------------------------------

    def call(self, node: ast.Call, frame: Frame) -> Abs:
        args = self.eval_args(node, frame)
        func = node.func

        if isinstance(func, ast.Attribute):
            return self._method_call(func, args, node, frame)

        if isinstance(func, ast.Name):
            name = func.id
            if name in frame.nested:
                return self.invoke(
                    frame.nested[name], args, node, frame,
                    f"{frame.label}.<locals>.{name}", closure=frame.env,
                )
            target = frame.globals.get(name, _MISSING)
            if target is _MISSING:
                target = getattr(builtins, name, _MISSING)
            if target is _MISSING:
                self._edge(frame, name, node, resolved=False,
                           reason="unresolved name")
                self._taint_all(args.values(), node, frame,
                                f"call to unresolved name {name!r}")
                return EMPTY
            if isinstance(target, types.FunctionType):
                return self._call_function(target, args, node, frame)
            if isinstance(target, type):
                return self._constructor_call(target, args, node, frame)
            if name in _PURE_BUILTINS:
                return EMPTY
            if name in _ALIAS_BUILTINS:
                return self._join_all(args.values())
            self._edge(frame, name, node, resolved=False,
                       reason="opaque callable")
            self._taint_all(args.values(), node, frame,
                            f"call to opaque callable {name!r}")
            return EMPTY

        # calling an arbitrary expression (lambda var, function table, ...)
        self.eval(func, frame)
        self._edge(frame, "<expression>", node, resolved=False,
                   reason="call through a non-name expression")
        self._taint_all(args.values(), node, frame,
                        "call through a non-name expression")
        return EMPTY

    def _method_call(self, func: ast.Attribute, args: Args, node: ast.Call,
                     frame: Frame) -> Abs:
        base = self.eval(func.value, frame)
        method = func.attr
        result = EMPTY
        handled = False

        for path, field in base.lists:
            handled = True
            spec = self._field_by_name(self._node(path), field)
            if method in _LIST_MUTATORS:
                self._effect(
                    path, node, frame,
                    f".{method}() on tracked list field {field!r}",
                )
                if spec is not None and spec.role == "child_list":
                    self._caution(
                        node, frame,
                        f".{method}() on child_list {field!r} changes the "
                        "structure the Shape was derived from",
                    )
            # pop() and friends may hand a member back to the caller
            result = result.join(Abs(objs=self._list_members(path, field)))

        if base.objs:
            handled = True
            if method == "get_checkpoint_info":
                result = result.join(Abs(infos=base.objs))
            elif method == "children":
                children: set = set()
                for path in base.objs:
                    for edge in self._node(path).edges:
                        children.add(edge.node.path)
                result = result.join(Abs(objs=frozenset(children)))
            elif method in _PURE_OBJ_METHODS:
                pass
            else:
                result = result.join(
                    self._checkpointable_method(base.objs, method, args, node, frame)
                )

        if base.infos:
            handled = True
            if method in _INFO_SETTERS:
                for path in base.infos:
                    self._effect(
                        path, node, frame, f"CheckpointInfo.{method}() call"
                    )
                self._caution(node, frame,
                              f"direct CheckpointInfo.{method}() call")

        if not handled:
            # Unknown receiver: it may retain or mutate any alias passed in.
            self._taint_all(args.values(), node, frame,
                            f"argument of opaque method .{method}()")
        return result

    def _constructor_call(self, target: type, args: Args, node: ast.Call,
                          frame: Frame) -> Abs:
        from repro.core.checkpointable import Checkpointable

        aliased = any(not value.is_empty() for value in args.values())
        if issubclass(target, Checkpointable):
            # A freshly built object is outside the analysed shape; handing
            # existing children to it re-parents them (structural change).
            if aliased:
                self._caution(
                    node, frame,
                    f"constructing {target.__name__} from objects of the "
                    "analysed structure re-parents them",
                )
            return EMPTY
        if aliased:
            self._taint_all(args.values(), node, frame,
                            f"aliased argument to constructor {target.__name__}")
        return EMPTY

    # -- interprocedural ---------------------------------------------------

    def _checkpointable_method(self, obj_paths: FrozenSet[Path], method: str,
                               args: Args, node: ast.Call, frame: Frame) -> Abs:
        """Resolve ``receiver.method(...)`` through the receiver's class.

        The receiver may alias positions of several classes; each class's
        method is analysed separately with ``self`` bound to that class's
        positions. Methods without source (generated ``record``/``fold``,
        C-level callables) fall back conservatively: the receiver's whole
        subtree — and every aliased argument — is widened.
        """
        by_cls: Dict[type, set] = {}
        for path in obj_paths:
            by_cls.setdefault(self._node(path).cls, set()).add(path)
        result = EMPTY
        for cls, paths in sorted(
            by_cls.items(), key=lambda item: item[0].__name__
        ):
            receiver = Abs(objs=frozenset(paths))
            target = getattr(cls, method, None)
            loaded = self._function_ast(target)
            if loaded is None:
                self._edge(frame, f"{cls.__name__}.{method}", node,
                           resolved=False, reason="opaque method")
                self._taint(
                    receiver, node, frame,
                    f"opaque method .{method}() on a checkpointable object",
                )
                self._taint_all(args.values(), node, frame,
                                f"argument of opaque method .{method}()")
                continue
            fdef, filename, globs = loaded
            label = _label_of(target)
            self._edge(frame, label, node, resolved=True)
            result = result.join(self.invoke(
                fdef, args, node, frame, label, receiver=receiver,
                filename=filename, globs=globs,
            ))
        return result

    def _call_function(self, target: types.FunctionType, args: Args,
                       node: ast.Call, frame: Frame) -> Abs:
        loaded = self._function_ast(target)
        label = _label_of(target)
        if loaded is None:
            self._edge(frame, label, node, resolved=False,
                       reason="source unavailable")
            self._taint_all(args.values(), node, frame,
                            f"call to {target.__name__} (source unavailable)")
            return EMPTY
        fdef, filename, globs = loaded
        self._edge(frame, label, node, resolved=True)
        return self.invoke(fdef, args, node, frame, label,
                           filename=filename, globs=globs)

    def summary_key(self, fdef: ast.FunctionDef, label: str) -> Tuple:
        # the parse itself (held strongly, so a later parse of an edited
        # function can never be confused with it)
        return (fdef,)

    def unmapped(self, value: Abs, fdef: ast.FunctionDef, node: ast.Call,
                 frame: Frame) -> None:
        # lands in *args/**kwargs (or is simply surplus): assume the worst
        self._taint(value, node, frame, f"unmapped argument to {fdef.name}")

    def unresolved(self, fdef: ast.FunctionDef, label: str, args: Args,
                   receiver: Optional[Abs], node: ast.Call, frame: Frame,
                   recursive: bool) -> Abs:
        # assume the worst for every argument and stop unfolding
        values = list(args.values())
        if receiver is not None:
            values.insert(0, receiver)
        self._taint_all(
            values, node, frame,
            f"recursive call to {fdef.name}" if recursive
            else f"call depth limit reached at {fdef.name}",
        )
        return EMPTY


_MISSING = object()


def analyze_effects(
    shape: Shape,
    phases: Iterable[Callable],
    roots: Optional[Iterable[str]] = None,
    summaries: Optional[SummaryCache] = None,
    callgraph: Optional[CallGraph] = None,
) -> EffectReport:
    """Infer the positions of ``shape`` the given phases may modify.

    Parameters
    ----------
    shape:
        Structural facts of the checkpointed structure.
    phases:
        The phase functions to analyse. Each must be a pure-Python function
        whose source is available. The root of the structure is bound to
        the parameter annotated with the root class, to a parameter named
        in ``roots``, to a parameter literally named ``root``, or — for
        single-parameter functions — to that parameter.
    roots:
        Optional parameter names to bind to the shape root, for phases
        whose root parameter cannot be recognised by annotation or name.
    summaries:
        Optional :class:`~repro.spec.effects.callgraph.SummaryCache` to
        reuse across analyses of the same shape (effect summaries are
        replayed instead of re-analysing shared helpers).
    callgraph:
        Optional :class:`~repro.spec.effects.callgraph.CallGraph` that
        collects every discovered call edge, resolved or not.

    Returns
    -------
    EffectReport
        Sound over-approximation of may-written positions with `file:line`
        provenance, opaque-call fallback notes, and suspicious-construct
        cautions.
    """
    return EffectAnalyzer(
        shape, roots, summaries=summaries, callgraph=callgraph
    ).analyze(phases)
