"""Exception hierarchy for the checkpointing framework."""


class CheckpointError(Exception):
    """Base class for every error raised by the repro package."""


class SchemaError(CheckpointError):
    """A checkpointable class was declared incorrectly.

    Raised at class-definition time (bad field kind, name collision, …) or
    when an operation is attempted on a class with no registered schema.
    """


class CycleError(CheckpointError):
    """A cycle was found in a structure assumed to be acyclic.

    The paper (section 2) assumes checkpointed compound structures contain
    no cycles; the checking driver and :meth:`repro.spec.shape.Shape.of`
    raise this error instead of looping forever.
    """


class SerializationError(CheckpointError):
    """A value cannot be represented in the checkpoint wire format.

    Raised on the *write* side — e.g. a string whose UTF-8 encoding
    exceeds the int32 length prefix — before any malformed bytes reach a
    stream. Distinct from :class:`RestoreError`, which is the read-side
    (decode) failure family.
    """


class RestoreError(CheckpointError):
    """A checkpoint stream could not be decoded back into objects."""


class StorageError(CheckpointError):
    """A durable checkpoint store is missing, corrupt, or inconsistent."""


class ManifestVersionError(StorageError):
    """A store manifest declares no ``format_version`` or an unknown one.

    The epoch lineage such a manifest records is refused, never guessed
    at. ``version`` is the declared value (``None`` when absent).
    """

    def __init__(self, message: str, version=None) -> None:
        super().__init__(message)
        self.version = version


class SpecializationError(CheckpointError):
    """The specializer was given inconsistent or unusable declarations."""


class EffectAnalysisError(SpecializationError):
    """The static modification-effect analysis could not analyse a phase.

    Raised when a phase function's source is unavailable (builtins,
    C extensions, ``exec``'d code) or when no parameter of the function can
    be bound to the root of the analysed :class:`~repro.spec.shape.Shape`.
    """


class UnsoundPatternError(SpecializationError):
    """A declared pattern misses a position the phase may modify.

    Raised by :meth:`repro.spec.specclass.SpecClass.from_static_analysis`
    when the static effect analysis proves that a programmer-declared
    :class:`~repro.spec.modpattern.ModificationPattern` declares quiescent a
    position the phase functions may write. Compiling such a pattern
    unguarded would silently drop the modified data from every checkpoint.
    """


class ResidualVerificationError(SpecializationError):
    """A residual program failed the post-specialization verifier.

    Raised by :func:`repro.spec.effects.residual.verify_residual` when the
    specializer's output is malformed or violates the "no dropped subtree"
    property: every shape position must either be recorded by the residual
    checkpointer or be declared quiescent by the modification pattern.
    """


class PatternViolationError(CheckpointError):
    """At run time, an object declared quiescent was found modified.

    Only raised by guarded specialized checkpointers (``guards=True``); the
    unguarded ones trust the programmer-supplied specialization classes,
    exactly as the paper does.
    """
