"""Module fact extraction for the escape/alias analysis.

The alias rules (:mod:`repro.spec.effects.aliasing.escape`) interpret
function bodies over an abstract heap; to do that they need, per file:

- which classes are **checkpointable** (subclass of ``Checkpointable``,
  directly or through another in-module checkpointable class, or any
  class whose body declares ``scalar``/``child``-style field
  descriptors), and each class's **field table** — name, role
  (``scalar`` / ``scalar_list`` / ``child`` / ``child_list``), and the
  declared child class when the declaration names one (``child(Leaf)``),
- the **module functions** (top-level ``def``) so in-module calls can be
  followed interprocedurally,
- **module-level containers** (``CACHE = []`` and friends) — storing a
  recorded reference into one makes it outlive the commit discipline,
- names the module declares ``global`` somewhere, and
- the ``# alias-ok`` suppression table (shared machinery from
  :mod:`repro.spec.effects.suppress`).

Extraction is purely syntactic, like the concurrency model: fixture
programs and unimportable modules analyze fine.
"""

from __future__ import annotations

import ast
import hashlib
from typing import Dict, List, Optional, Set

from repro.spec.effects.suppress import ALIAS_OK, Suppressions

#: the descriptor factories that declare recorded fields
FIELD_FACTORIES = {"scalar", "scalar_list", "child", "child_list"}
#: constructor names / literals producing a module-level plain container
CONTAINER_CTORS = {"list", "dict", "set", "deque", "defaultdict", "OrderedDict"}


class FieldDecl:
    """One declared field of a checkpointable class."""

    __slots__ = ("name", "role", "child_cls", "lineno")

    def __init__(
        self, name: str, role: str, child_cls: Optional[str], lineno: int
    ) -> None:
        self.name = name
        #: ``scalar`` / ``scalar_list`` / ``child`` / ``child_list``
        self.role = role
        #: declared class name for ``child(Leaf)`` / ``child_list(Leaf)``
        self.child_cls = child_cls
        self.lineno = lineno

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FieldDecl({self.name}, {self.role})"


class RecordedClass:
    """The alias-relevant shape of one checkpointable class."""

    def __init__(self, name: str, filename: str, lineno: int) -> None:
        self.name = name
        self.filename = filename
        self.lineno = lineno
        self.fields: Dict[str, FieldDecl] = {}
        self.bases: List[str] = []
        #: methods, for ``self``-rooted interpretation
        self.methods: Dict[str, ast.FunctionDef] = {}

    def child_fields(self) -> Dict[str, FieldDecl]:
        return {
            name: decl
            for name, decl in self.fields.items()
            if decl.role in ("child", "child_list")
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordedClass({self.name}, {len(self.fields)} field(s))"


class AliasModule:
    """The extracted alias model of one file."""

    def __init__(self, filename: str, source: str) -> None:
        self.filename = filename
        #: identity of the text every fact below was extracted from
        self.digest = hashlib.sha1(
            source.encode("utf-8", "surrogatepass")
        ).hexdigest()[:16]
        self.classes: Dict[str, RecordedClass] = {}
        #: every class defined in the module (recorded or not), by name
        self.all_class_names: Set[str] = set()
        self.functions: Dict[str, ast.FunctionDef] = {}
        #: module-level plain containers: name -> lineno
        self.module_containers: Dict[str, int] = {}
        #: names assigned at module level (escape targets for ``global``)
        self.module_names: Set[str] = set()
        self.suppressions = Suppressions(filename, source, ALIAS_OK)
        #: module-level statements, interpreted as an entry body
        self.toplevel: List[ast.stmt] = []

    def field_of(self, cls_name: Optional[str], field: str) -> Optional[FieldDecl]:
        """Resolve a field on ``cls_name``, walking in-module bases."""
        seen: Set[str] = set()
        current = cls_name
        while current is not None and current not in seen:
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                return None
            decl = cls.fields.get(field)
            if decl is not None:
                return decl
            current = next(
                (base for base in cls.bases if base in self.classes), None
            )
        return None


def _base_names(node: ast.ClassDef) -> List[str]:
    names: List[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _field_decl(stmt: ast.stmt) -> Optional[FieldDecl]:
    """``name = child(Leaf)``-style class-body declarations."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    else:
        return None
    if not isinstance(target, ast.Name):
        return None
    value = getattr(stmt, "value", None)
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    role = None
    if isinstance(func, ast.Name) and func.id in FIELD_FACTORIES:
        role = func.id
    elif isinstance(func, ast.Attribute) and func.attr in FIELD_FACTORIES:
        role = func.attr
    if role is None:
        return None
    child_cls = None
    if role in ("child", "child_list") and value.args:
        first = value.args[0]
        if isinstance(first, ast.Name):
            child_cls = first.id
        elif isinstance(first, ast.Attribute):
            child_cls = first.attr
    return FieldDecl(target.id, role, child_cls, stmt.lineno)


def _container_ctor(value: Optional[ast.expr]) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name in CONTAINER_CTORS
    return False


def extract_module(filename: str, source: str) -> Optional[AliasModule]:
    """Extract the alias model of one file (``None`` on syntax error)."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError:
        return None
    module = AliasModule(filename, source)

    classes: List[ast.ClassDef] = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            classes.append(stmt)
            module.all_class_names.add(stmt.name)
        elif isinstance(stmt, ast.FunctionDef):
            module.functions[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    module.module_names.add(target.id)
                    if _container_ctor(getattr(stmt, "value", None)):
                        module.module_containers[target.id] = stmt.lineno
            module.toplevel.append(stmt)
        elif not isinstance(
            stmt, (ast.Import, ast.ImportFrom, ast.AsyncFunctionDef)
        ):
            module.toplevel.append(stmt)

    # checkpointable classes: seeded by a Checkpointable base or by
    # declaring descriptor fields, closed over in-module inheritance
    recorded: Dict[str, ast.ClassDef] = {}
    changed = True
    while changed:
        changed = False
        for node in classes:
            if node.name in recorded:
                continue
            bases = _base_names(node)
            is_recorded = "Checkpointable" in bases or any(
                base in recorded for base in bases
            )
            if not is_recorded:
                is_recorded = any(
                    _field_decl(stmt) is not None for stmt in node.body
                )
            if is_recorded:
                recorded[node.name] = node
                changed = True

    for name, node in recorded.items():
        cls = RecordedClass(name, filename, node.lineno)
        cls.bases = _base_names(node)
        for stmt in node.body:
            decl = _field_decl(stmt)
            if decl is not None:
                cls.fields[decl.name] = decl
            elif isinstance(stmt, ast.FunctionDef):
                cls.methods[stmt.name] = stmt
        module.classes[name] = cls
    return module
