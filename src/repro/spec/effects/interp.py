"""One flow-insensitive abstract interpreter over Python function ASTs.

The effect analysis (:mod:`repro.spec.effects.analysis`, and the
whole-program analyzer of :mod:`repro.spec.effects.wholeprogram`) and
the alias analysis (:mod:`repro.spec.effects.aliasing.escape`) are two
*domains* over this core. The core owns what both passes do the same
way:

- the statement and expression walkers: which sub-expressions run, and
  which targets are bound to which values;
- argument binding: positional-only, positional and keyword-only
  parameters, ``self``, and the closure variables of a nested function;
- the table of functions defined in the running body;
- one recursion and call-depth guard (:attr:`Interpreter.MAX_DEPTH`);
- one summary cache: a call's summary is its return value plus every
  record the call emitted (writes, fallbacks, cautions, call edges,
  findings, escapes, suppressed sites), and a later call with the same
  key replays the records instead of walking the body again (a walk
  the depth guard cut short only for a call from the same depth).

A domain supplies its abstract values and transfer functions: the
bottom value and the join, what a free name, an attribute, a subscript
and a call evaluate to, what storing to a name, attribute or item does,
how a body runs (the effect domain iterates it to a fixpoint, the alias
domain makes one ordered pass), how a record reaches its report, what
an unresolved callee costs, and what a summary depends on besides the
arguments.

Abstract values answer ``is_empty()`` (nothing worth tracking, so the
value stays out of summary keys) and ``signature()`` (a hashable
identity for summary keys).
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.errors import EffectAnalysisError
from repro.spec.effects.callgraph import SummaryCache

#: one emitted record: a kind tag, then plain hashable fields
Record = Tuple


class Frame:
    """One function body under interpretation."""

    __slots__ = ("env", "nested", "declared", "ret", "depth", "label",
                 "filename", "lineno", "globals")

    def __init__(
        self,
        env: Dict[str, Any],
        ret: Any,
        label: str,
        filename: str,
        lineno: Optional[int] = None,
        depth: int = 0,
        globs: Optional[dict] = None,
    ) -> None:
        self.env = env
        #: functions defined in this body, by name
        self.nested: Dict[str, ast.FunctionDef] = {}
        #: names this body declares ``global``
        self.declared: Set[str] = set()
        #: the joined value of every ``return``
        self.ret = ret
        self.depth = depth
        #: dotted display name of the function (call-graph node)
        self.label = label
        self.filename = filename
        #: the ``def`` line (``None`` for a module body)
        self.lineno = lineno
        #: the namespace free names resolve in (effect domain)
        self.globals = globs


class Args:
    """The evaluated arguments of one call, in source order."""

    __slots__ = ("positional", "keywords")

    def __init__(self) -> None:
        #: (expression, value); a ``*iterable`` counts as one value
        self.positional: List[Tuple[ast.expr, Any]] = []
        #: (name or None for ``**mapping``, expression, value)
        self.keywords: List[Tuple[Optional[str], ast.expr, Any]] = []

    def pairs(self) -> Iterator[Tuple[ast.expr, Any]]:
        """Every (expression, value), positional first."""
        yield from self.positional
        for _name, expr, value in self.keywords:
            yield expr, value

    def values(self) -> Iterator[Any]:
        for _expr, value in self.pairs():
            yield value


class Interpreter:
    """The walker, binder, guard and summary cache; a domain subclasses it.

    ``shape`` is what the domain's values are relative to (the effect
    domain's :class:`~repro.spec.shape.Shape`, ``None`` for the alias
    domain); the summary cache must be bound to the same one.

    A domain sets :attr:`bottom` and defines:

    - ``join(left, right)``; ``run(body, frame)``, which interprets a
      function body and returns its joined return value;
    - ``attribute(base, attr)``, ``subscript(base, node)``, ``element(value)`` (one element of
      iterating ``value``), ``container(element)`` (a literal or
      comprehension of such elements) and ``call(node, frame)``;
    - ``bind(name, value, node, frame)``, ``store_attribute(base,
      target, value, value_expr, frame)`` and ``store_item(...)``, the
      same for an item;
    - ``apply(record)``, which delivers an emitted or replayed record to
      the domain's report;
    - ``summary_key(fdef, label)``: what a summary of ``fdef`` depends
      on, besides the arguments;
    - ``unresolved(fdef, label, args, receiver, node, frame,
      recursive)``: the value of a call the guard refuses.

    It may override :meth:`free_name`, :meth:`update`, :meth:`returned`
    and :meth:`unmapped`.
    """

    #: calls from a frame this deep apply the unresolved-callee rule
    MAX_DEPTH = 12
    #: the frame class (a domain may add per-body state)
    frame_type = Frame
    #: the abstract value of everything the domain does not track
    bottom: Any = None

    def __init__(self, summaries: SummaryCache, shape: Any = None) -> None:
        if summaries.shape is not shape:
            raise EffectAnalysisError(
                "the summary cache is bound to a different shape: its "
                "recorded paths would be unsound here"
            )
        self.summaries = summaries
        #: summary lookups of this interpreter that hit / missed
        self.hits = 0
        self.misses = 0
        self._active: Set[Tuple] = set()
        self._captures: List[Dict[Record, None]] = []
        #: how many of the outermost captures hold a depth-guard refusal
        self._bounded = 0

    def free_name(self, name: str, frame: Frame) -> Any:
        """A name the environment does not bind."""
        return self.bottom

    def update(self, target: ast.expr, value: Any, how: str,
               frame: Frame) -> None:
        """An augmented write (``how="augmented write"``) or a ``del``."""
        self.assign(target, value, None, frame)

    def returned(self, value: Any, node: ast.Return, frame: Frame) -> None:
        frame.ret = self.join(frame.ret, value)

    def unmapped(self, value: Any, fdef: ast.FunctionDef, node: ast.Call,
                 frame: Frame) -> None:
        """An argument no named parameter takes (``*args``, ``**kw``)."""

    # -- records -----------------------------------------------------------

    def emit(self, record: Record) -> None:
        """Deliver a record and add it to the summary being captured."""
        if self._captures:
            self._captures[-1][record] = None
        self.apply(record)

    # -- statements --------------------------------------------------------

    def block(self, body: List[ast.stmt], frame: Frame) -> None:
        for stmt in body:
            self.stmt(stmt, frame)

    def stmt(self, node: ast.stmt, frame: Frame) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            frame.nested[node.name] = node
        elif isinstance(node, ast.ClassDef):
            return  # class bodies do not run against the analysed values
        elif isinstance(node, ast.Global):
            frame.declared.update(node.names)
        elif isinstance(node, ast.Assign):
            value = self.eval(node.value, frame)
            for target in node.targets:
                self.assign(target, value, node.value, frame)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                value = self.eval(node.value, frame)
                self.assign(node.target, value, node.value, frame)
        elif isinstance(node, ast.AugAssign):
            value = self.eval(node.value, frame)
            self.update(node.target, value, "augmented write", frame)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self.update(target, self.bottom, "delete", frame)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.returned(self.eval(node.value, frame), node, frame)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            iterable = self.eval(node.iter, frame)
            self.assign(node.target, self.element(iterable), None, frame)
            self.block(node.body, frame)
            self.block(node.orelse, frame)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                value = self.eval(item.context_expr, frame)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, value, None, frame)
            self.block(node.body, frame)
        else:
            # If, While, Try, Match, Expr, Raise, Assert, imports, ...:
            # run every nested statement, evaluate every expression
            self._children(node, frame)

    def _children(self, node: ast.AST, frame: Frame) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self.stmt(child, frame)
            elif isinstance(child, ast.expr):
                self.eval(child, frame)
            else:  # handlers, match cases, keywords, ...
                self._children(child, frame)

    # -- write targets -----------------------------------------------------

    def assign(self, target: ast.expr, value: Any,
               value_expr: Optional[ast.expr], frame: Frame) -> None:
        """Store ``value`` (the value of ``value_expr``, if known) to a target."""
        if isinstance(target, ast.Name):
            self.bind(target.id, value, target, frame)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if (
                isinstance(value_expr, (ast.Tuple, ast.List))
                and len(value_expr.elts) == len(target.elts)
                and not any(isinstance(e, ast.Starred) for e in target.elts)
            ):
                for item, expr in zip(target.elts, value_expr.elts):
                    self.assign(item, self.eval(expr, frame), expr, frame)
                return
            element = self.join(self.element(value), value)
            for item in target.elts:
                self.assign(item, element, None, frame)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, value, None, frame)
        elif isinstance(target, ast.Attribute):
            base = self.eval(target.value, frame)
            self.store_attribute(base, target, value, value_expr, frame)
        elif isinstance(target, ast.Subscript):
            base = self.eval(target.value, frame)
            self.eval(target.slice, frame)
            self.store_item(base, target, value, value_expr, frame)

    # -- expressions -------------------------------------------------------

    def eval(self, node: ast.expr, frame: Frame) -> Any:
        if isinstance(node, ast.Name):
            value = frame.env.get(node.id)
            return value if value is not None else self.free_name(node.id, frame)
        if isinstance(node, ast.Attribute):
            return self.attribute(self.eval(node.value, frame), node.attr)
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value, frame)
            self.eval(node.slice, frame)
            return self.subscript(base, node)
        if isinstance(node, ast.Call):
            return self.call(node, frame)
        if isinstance(node, (ast.BoolOp, ast.IfExp)):
            if isinstance(node, ast.IfExp):
                self.eval(node.test, frame)
                parts = [node.body, node.orelse]
            else:
                parts = node.values
            return self._join_all(self.eval(part, frame) for part in parts)
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value, frame)
            self.assign(node.target, value, node.value, frame)
            return value
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return self.container(
                self._join_all(self.eval(e, frame) for e in node.elts)
            )
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.eval(key, frame)
            return self.container(
                self._join_all(self.eval(v, frame) for v in node.values)
            )
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            for comp in node.generators:
                iterable = self.eval(comp.iter, frame)
                self.assign(comp.target, self.element(iterable), None, frame)
                for test in comp.ifs:
                    self.eval(test, frame)
            if isinstance(node, ast.DictComp):
                self.eval(node.key, frame)
                return self.container(self.eval(node.value, frame))
            return self.container(self.eval(node.elt, frame))
        if isinstance(node, (ast.Starred, ast.Await, ast.YieldFrom, ast.Yield)):
            if node.value is None:
                return self.bottom
            return self.eval(node.value, frame)
        if isinstance(node, ast.Lambda):
            return self.bottom  # opaque if ever called through a variable
        # constants, operators, f-strings, slices: no alias survives
        self._children(node, frame)
        return self.bottom

    def _join_all(self, values) -> Any:
        result = self.bottom
        for value in values:
            result = self.join(result, value)
        return result

    # -- calls -------------------------------------------------------------

    def eval_args(self, node: ast.Call, frame: Frame) -> Args:
        args = Args()
        for arg in node.args:
            expr = arg.value if isinstance(arg, ast.Starred) else arg
            args.positional.append((expr, self.eval(expr, frame)))
        for keyword in node.keywords:
            args.keywords.append(
                (keyword.arg, keyword.value, self.eval(keyword.value, frame))
            )
        return args

    def bind_arguments(
        self,
        fdef: ast.FunctionDef,
        args: Args,
        receiver: Any,
        closure: Optional[Dict[str, Any]],
        node: ast.Call,
        frame: Frame,
    ) -> Dict[str, Any]:
        """The callee's initial environment: closure, then parameters.

        ``receiver`` (a bound method's ``self``) takes the first
        positional parameter. Arguments no named parameter takes go to
        the domain's :meth:`unmapped` rule; parameters no argument
        reaches are bound to bottom.
        """
        spec = fdef.args
        positional = [a.arg for a in spec.posonlyargs + spec.args]
        by_keyword = {a.arg for a in spec.args + spec.kwonlyargs}
        env: Dict[str, Any] = dict(closure or {})
        values = [value for _expr, value in args.positional]
        if receiver is not None:
            values.insert(0, receiver)
        for name, value in zip(positional, values):
            env[name] = value
        spill = values[len(positional):]
        for name, _expr, value in args.keywords:
            if name in by_keyword:
                env[name] = value
            else:
                spill.append(value)
        for value in spill:
            self.unmapped(value, fdef, node, frame)
        names = positional + [a.arg for a in spec.kwonlyargs]
        names += [a.arg for a in (spec.vararg, spec.kwarg) if a is not None]
        for name in names:
            env.setdefault(name, self.bottom)
        return env

    def invoke(
        self,
        fdef: ast.FunctionDef,
        args: Args,
        node: ast.Call,
        frame: Frame,
        label: str,
        receiver: Any = None,
        closure: Optional[Dict[str, Any]] = None,
        filename: Optional[str] = None,
        globs: Optional[dict] = None,
    ) -> Any:
        """Interpret a call of ``fdef``, or replay its summary.

        The summary key is :meth:`summary_key` plus the signature of
        every bound value that is not empty. A key already being
        interpreted (recursion), or a caller at :attr:`MAX_DEPTH`,
        gets the domain's :meth:`unresolved` rule instead of a walk. A
        walk that met that depth refusal, directly or through a replay,
        is summarized for calls from this caller's depth only.
        """
        env = self.bind_arguments(fdef, args, receiver, closure, node, frame)
        key = self.summary_key(fdef, label) + (
            tuple(sorted(
                (name, value.signature())
                for name, value in env.items() if not value.is_empty()
            )),
        )
        summary = self.summaries.get(key, frame.depth)
        if summary is not None:
            self.hits += 1
            ret, records, bound = summary
            if bound is not None:
                self._bounded = len(self._captures)
            for record in records:
                self.emit(record)
            return ret
        self.misses += 1
        recursive = key in self._active
        if recursive or frame.depth >= self.MAX_DEPTH:
            if not recursive:
                self._bounded = len(self._captures)
            return self.unresolved(
                fdef, label, args, receiver, node, frame, recursive
            )
        callee = self.frame_type(
            env, self.bottom, label,
            filename if filename is not None else frame.filename,
            fdef.lineno, frame.depth + 1,
            globs if globs is not None else frame.globals,
        )
        self._active.add(key)
        self._captures.append({})
        try:
            ret = self.run(fdef.body, callee)
        finally:
            records = self._captures.pop()
            self._active.discard(key)
            bounded = self._bounded > len(self._captures)
            self._bounded = min(self._bounded, len(self._captures))
        if self._captures:
            self._captures[-1].update(records)
        self.summaries.store(
            key, (ret, tuple(records), frame.depth if bounded else None)
        )
        return ret
