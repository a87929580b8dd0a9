"""Exception types shared across the package.

The three intermediate bases group errors by how the command line reports
them: bad input, violated algorithmic preconditions, and numeric failures
inside a solve or construction. Each carries the exit code the command
line returns for it.
"""
from __future__ import annotations


class StressDrawError(Exception):
    """Base class for every error raised by this package."""


class InputError(StressDrawError):
    """Malformed files, out-of-range parameters, broken data invariants."""

    exit_code = 2


class PreconditionError(StressDrawError):
    """An operation was applied to data that violates its preconditions."""

    exit_code = 3


class NumericError(StressDrawError):
    """A solve or geometric construction failed numerically."""

    exit_code = 4


# --- input -----------------------------------------------------------------

class MalformedRotation(InputError):
    """Rotation system is not a simple symmetric adjacency structure."""


class EulerViolation(InputError):
    """Face traversal contradicts n - m + f = 2."""


class InvalidEmbedding(InputError):
    """Embedding-level invariant failed (connectivity, outer face, 3-connectedness)."""


class InfeasibleParams(InputError):
    """Requested parameters lie outside the feasible range."""


class BadParams(InputError):
    """A numeric parameter is outside its documented domain."""


# --- preconditions ----------------------------------------------------------

class NonPositiveWeight(PreconditionError):
    """An interior-incident edge weight is zero, negative, or missing (wrong-length array)."""


class NotStOrientation(PreconditionError):
    """Left-to-right edge orientation lacks the single-source/single-sink shape."""


class ZeroGap(PreconditionError):
    """A directed edge's head target is not above its tail's; an edge
    between two pinned vertices with equal targets is exempt."""


class EdgeSetMismatch(PreconditionError):
    """Two weight arrays to be combined differ in shape."""


class NotTriangulation(PreconditionError):
    """Operation requires every face, outer face included, to be a triangle."""


class ZeroLengthEdge(PreconditionError):
    """A drawing contains an edge of zero length."""


class GenerationStalled(PreconditionError):
    """Random generation could not reach the requested edge count."""


# --- numerics ---------------------------------------------------------------

class SingularSystem(NumericError):
    """The interior equilibrium system could not be factorized."""


class ResidualExceeded(NumericError):
    """A solved drawing misses its residual or target tolerance, or a
    spread plan's path counts do not balance, so no solve could meet its
    targets."""
