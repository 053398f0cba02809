"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still distinguishing configuration mistakes from numerical problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError, ValueError):
    """An array has an incompatible or unexpected shape."""


class ConfigError(ReproError, ValueError):
    """A configuration value is invalid or inconsistent."""


class GradientError(ReproError, RuntimeError):
    """Autograd misuse: e.g. backward through a non-scalar without seed."""


class SparsityError(ReproError, ValueError):
    """A sparse format or pruning mask is malformed or inconsistent."""


class CompilationError(ReproError, RuntimeError):
    """The compiler could not lower a model to an executable plan."""


class SimulationError(ReproError, RuntimeError):
    """The hardware simulator was asked to execute an invalid plan."""


class KernelError(ReproError, RuntimeError):
    """A kernel was misused (a matrix no kernel takes, a mis-sized operand)."""


class CompileBackendError(KernelError):
    """The compiled C kernel library could not be built or loaded.

    Raised (and recorded once) when no C compiler is available, the build
    fails, or the built library does not pass the load-time sanity probe.
    No int8 plan then lowers to the compiled program: each runs the
    engine's generic loop on numpy's kernels.
    """


class StreamError(ReproError, RuntimeError):
    """A streaming session/frontend was used after finish or out of order."""


class OverloadError(StreamError):
    """Admission control shed the request: the serving fabric is saturated.

    Raised instead of queueing when accepting the session/chunk would
    push a worker past its bounded queue and break the
    ``max_wait_frames`` latency contract.  The request was *not*
    accepted; the caller may retry after draining.
    """


class SwapError(StreamError):
    """A hot-swap was rejected: the candidate plan cannot carry the live
    sessions' recurrent state.

    Raised *before* any live session is touched — a failed swap leaves
    the scheduler (or fabric) serving the incumbent plan unchanged.
    """


class ArtifactError(ReproError, RuntimeError):
    """A compiled-plan artifact is unreadable, truncated, or corrupted."""


class RegistryError(ArtifactError):
    """A registry operation failed: unknown name/version, a duplicate
    publish, a malformed version directory, or a checksum mismatch on
    load.  Subclasses :class:`ArtifactError` so callers guarding
    artifact loads catch registry-resolved loads with the same clause.
    """


class FabricError(ReproError, RuntimeError):
    """The multi-process serving fabric lost a worker it could not recover."""


class CheckpointError(ArtifactError):
    """A training checkpoint is missing, truncated, corrupted, or does not
    match the model/optimizer it is being restored into.  Subclasses
    :class:`ArtifactError` because checkpoints share the artifact
    discipline (atomic writes, SHA-256 content checksums)."""


class SweepError(ReproError, RuntimeError):
    """A sweep cell failed permanently: its retry budget is exhausted, a
    straggler timeout fired on the final attempt, or its published result
    failed validation."""
