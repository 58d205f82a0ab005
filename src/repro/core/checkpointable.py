"""The :class:`Checkpointable` base class and per-class method generation.

This is the Python analog of the paper's ``Checkpointable`` interface plus
the preprocessor that systematically fills it in (section 2.2). Subclassing
:class:`Checkpointable` and declaring fields with
:func:`~repro.core.fields.scalar` / :func:`~repro.core.fields.child` etc. is
all a user does; at class-definition time the framework

1. flattens the field schema (inherited fields first, mirroring the
   ``super().record()`` call order of the paper's generated Java methods),
2. registers the class with the :mod:`~repro.core.registry`, and
3. generates and compiles ``record``, ``fold``, ``restore_local`` and
   ``_init_defaults`` methods specialized to the class schema.

The generated methods are exactly what the paper's preprocessor would
produce: straight-line code over the declared fields, invoked virtually by
the generic :class:`~repro.core.checkpoint.Checkpoint` driver. They are
*per-class* generic code — the per-structure, per-phase *specialized*
checkpointers of the paper are produced separately by :mod:`repro.spec`.

Wire format of one object entry (written by the drivers)::

    int32 object_id | int32 class_serial | payload per schema

with the payload encoding each field in schema order:

- scalar int/float/bool/str: the value
- scalar_list: int32 count, then the values
- child: int32 child id (−1 for None)
- child_list: int32 count, then the child ids
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, List, Optional

from repro.core.errors import SchemaError
from repro.core.fields import FieldSpec, TrackedList, _FieldDescriptor
from repro.core.info import CheckpointInfo
from repro.core.registry import DEFAULT_REGISTRY, ClassRegistry

_WRITERS = {
    "int": "out.write_int32",
    "float": "out.write_float64",
    "bool": "out.write_bool",
    "str": "out.write_str",
}
_READERS = {
    "int": "inp.read_int32",
    "float": "inp.read_float64",
    "bool": "inp.read_bool",
    "str": "inp.read_str",
}
_DEFAULT_LITERALS = {"int": "0", "float": "0.0", "bool": "False", "str": "''"}


def _generate_record(schema: List[FieldSpec]) -> str:
    lines = ["def record(self, out):"]
    if not schema:
        lines.append("    pass")
        return "\n".join(lines)
    for field in schema:
        slot = f"self.{field.slot}"
        if field.role == "scalar":
            lines.append(f"    {_WRITERS[field.kind]}({slot})")
        elif field.role == "scalar_list":
            writer = _WRITERS[field.kind]
            lines.append(f"    _v = {slot}._items")
            lines.append("    out.write_int32(len(_v))")
            lines.append("    for _e in _v:")
            lines.append(f"        {writer}(_e)")
        elif field.role == "child":
            lines.append(f"    _c = {slot}")
            lines.append(
                "    out.write_int32(_c._ckpt_info.object_id if _c is not None else -1)"
            )
        elif field.role == "child_list":
            lines.append(f"    _v = {slot}._items")
            lines.append("    out.write_int32(len(_v))")
            lines.append("    for _c in _v:")
            lines.append("        out.write_int32(_c._ckpt_info.object_id)")
        else:  # pragma: no cover - guarded by field constructors
            raise SchemaError(f"unknown field role {field.role!r}")
    return "\n".join(lines)


def _generate_fold(schema: List[FieldSpec]) -> str:
    lines = ["def fold(self, ckpt):"]
    body: List[str] = []
    for field in schema:
        slot = f"self.{field.slot}"
        if field.role == "child":
            body.append(f"    _c = {slot}")
            body.append("    if _c is not None:")
            body.append("        ckpt.checkpoint(_c)")
        elif field.role == "child_list":
            body.append(f"    for _c in {slot}._items:")
            body.append("        ckpt.checkpoint(_c)")
    if not body:
        body = ["    pass"]
    return "\n".join(lines + body)


def _generate_restore_local(schema: List[FieldSpec]) -> str:
    lines = ["def restore_local(self, inp, table):"]
    if not schema:
        lines.append("    pass")
        return "\n".join(lines)
    for field in schema:
        slot = f"self.{field.slot}"
        if field.role == "scalar":
            lines.append(f"    {slot} = {_READERS[field.kind]}()")
        elif field.role == "scalar_list":
            reader = _READERS[field.kind]
            lines.append("    _n = inp.read_int32()")
            lines.append(
                f"    {slot} = TrackedList(self, [{reader}() for _ in range(_n)])"
            )
        elif field.role == "child":
            lines.append("    _cid = inp.read_int32()")
            lines.append(f"    {slot} = table[_cid] if _cid != -1 else None")
        elif field.role == "child_list":
            lines.append("    _n = inp.read_int32()")
            lines.append(
                f"    {slot} = TrackedList(self, "
                "[table[inp.read_int32()] for _ in range(_n)], topo=True)"
            )
    return "\n".join(lines)


def _generate_init_defaults(schema: List[FieldSpec]) -> str:
    lines = ["def _init_defaults(self):"]
    if not schema:
        lines.append("    pass")
        return "\n".join(lines)
    for field in schema:
        slot = f"self.{field.slot}"
        if field.role == "scalar":
            lines.append(f"    {slot} = {_DEFAULT_LITERALS[field.kind]}")
        elif field.role == "scalar_list":
            lines.append(f"    {slot} = TrackedList(self)")
        elif field.role == "child_list":
            lines.append(f"    {slot} = TrackedList(self, topo=True)")
        else:  # child
            lines.append(f"    {slot} = None")
    return "\n".join(lines)


_GENERATORS = {
    "record": _generate_record,
    "fold": _generate_fold,
    "restore_local": _generate_restore_local,
    "_init_defaults": _generate_init_defaults,
}


def _compile_method(cls_name: str, name: str, source: str):
    namespace: Dict[str, Any] = {"TrackedList": TrackedList}
    code = compile(source, f"<ckpt-gen:{cls_name}.{name}>", "exec")
    exec(code, namespace)
    function = namespace[name]
    function.__ckpt_generated__ = True
    function.__ckpt_source__ = source
    return function


class Checkpointable:
    """Base class for every object that participates in checkpointing.

    Subclasses declare their state with the descriptors from
    :mod:`repro.core.fields`; everything else is generated. A freshly
    constructed object is marked modified, so the next incremental
    checkpoint records it in full (paper Figure 1).

    Construction accepts keyword arguments naming declared fields::

        e = SEEntry(reads=[1, 2], writes=[3])
    """

    _ckpt_schema: ClassVar[List[FieldSpec]] = []
    _ckpt_serial: ClassVar[int] = -1
    _ckpt_registry: ClassVar[ClassRegistry]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)

        inherited = list(cls.__mro__[1]._ckpt_schema)
        taken = {spec.name for spec in inherited}
        own: List[FieldSpec] = []
        for name, value in list(vars(cls).items()):
            if isinstance(value, _FieldDescriptor):
                if name in taken:
                    raise SchemaError(
                        f"{cls.__name__}.{name} shadows an inherited "
                        "checkpointable field"
                    )
                if name.startswith("_"):
                    raise SchemaError(
                        f"checkpointable field {cls.__name__}.{name} must not "
                        "start with an underscore"
                    )
                own.append(value.spec())
                taken.add(name)
        cls._ckpt_schema = inherited + own

        registry = getattr(cls, "_ckpt_registry", None) or DEFAULT_REGISTRY
        cls._ckpt_registry = registry
        cls._ckpt_serial = registry.register(cls, cls._ckpt_schema)

        for method_name, generator in _GENERATORS.items():
            if method_name in vars(cls):
                continue  # the class body supplies its own implementation
            source = generator(cls._ckpt_schema)
            setattr(cls, method_name, _compile_method(cls.__name__, method_name, source))

    def __init__(self, **field_values: Any) -> None:
        self._ckpt_info = CheckpointInfo()
        self._init_defaults()
        schema_names = {spec.name for spec in self._ckpt_schema}
        for name, value in field_values.items():
            if name not in schema_names:
                raise SchemaError(
                    f"{type(self).__name__} has no checkpointable field {name!r}"
                )
            setattr(self, name, value)

    # -- the paper's Checkpointable interface ------------------------------

    def get_checkpoint_info(self) -> CheckpointInfo:
        """The object's identifier + modification flag (paper Figure 1)."""
        return self._ckpt_info

    def record(self, out) -> None:  # pragma: no cover - replaced per class
        """Record the complete local state into ``out`` (generated)."""
        raise NotImplementedError

    def fold(self, ckpt) -> None:  # pragma: no cover - replaced per class
        """Recursively apply ``ckpt.checkpoint`` to each child (generated)."""
        raise NotImplementedError

    def restore_local(self, inp, table) -> None:  # pragma: no cover
        """Read the local state back from ``inp`` (generated)."""
        raise NotImplementedError

    def _init_defaults(self) -> None:  # pragma: no cover - replaced per class
        pass

    # -- framework helpers --------------------------------------------------

    @classmethod
    def _blank(cls, object_id: int) -> "Checkpointable":
        """An uninitialized instance used by restore (bypasses ``__init__``)."""
        obj = cls.__new__(cls)
        obj._ckpt_info = CheckpointInfo(object_id=object_id, modified=False)
        obj._init_defaults()
        return obj

    def children(self) -> List["Checkpointable"]:
        """All non-None child objects, in schema order (reflective)."""
        found: List[Checkpointable] = []
        for spec in self._ckpt_schema:
            if spec.role == "child":
                value = getattr(self, spec.slot)
                if value is not None:
                    found.append(value)
            elif spec.role == "child_list":
                found.extend(getattr(self, spec.slot)._items)
        return found

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self._ckpt_info.object_id}>"


def reflective_record(obj: Checkpointable, out) -> None:
    """Schema-walking implementation of ``record`` (the reflection tier).

    Functionally identical to the generated per-class method, but driven by
    run-time schema interpretation — the analog of Java serialization's
    run-time reflection, kept as the slowest baseline (paper section 6).
    """
    for spec in obj._ckpt_schema:
        value = getattr(obj, spec.slot)
        if spec.role == "scalar":
            _write_scalar(out, spec.kind, value)
        elif spec.role == "scalar_list":
            out.write_int32(len(value._items))
            for element in value._items:
                _write_scalar(out, spec.kind, element)
        elif spec.role == "child":
            out.write_int32(value._ckpt_info.object_id if value is not None else -1)
        else:  # child_list
            out.write_int32(len(value._items))
            for element in value._items:
                out.write_int32(element._ckpt_info.object_id)


def reflective_fold(obj: Checkpointable, ckpt) -> None:
    """Schema-walking implementation of ``fold`` (the reflection tier)."""
    for spec in obj._ckpt_schema:
        if spec.role == "child":
            value = getattr(obj, spec.slot)
            if value is not None:
                ckpt.checkpoint(value)
        elif spec.role == "child_list":
            for element in getattr(obj, spec.slot)._items:
                ckpt.checkpoint(element)


def _write_scalar(out, kind: Optional[str], value: Any) -> None:
    if kind == "int":
        out.write_int32(value)
    elif kind == "float":
        out.write_float64(value)
    elif kind == "bool":
        out.write_bool(value)
    else:
        out.write_str(value)
