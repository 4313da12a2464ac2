"""Failure taxonomy shared across the package.

Algorithmic failures (a randomized routine not finding its object) are
distinct from usage errors (bad arguments).  A StageFailure names its
stage, for the harness to bucket it by, and keeps its counts (survivors
and needed, placed and total, ...) in one keyword dict, `detail`.
"""

from __future__ import annotations

from typing import Optional


class RainbowTreesError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(RainbowTreesError, ValueError):
    """Arguments violate a documented precondition."""


class InfeasibleParameters(ParameterError):
    """Derived parameters cannot support the construction at this n.

    Attributes
    ----------
    minimum_n : smallest n at which the same inputs become feasible,
        or None when no finite n helps.
    """

    def __init__(self, message, minimum_n=None):
        super().__init__(message)
        self.minimum_n = minimum_n


class FormatError(RainbowTreesError, ValueError):
    """A text payload does not match the expected file format."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class StageFailure(RainbowTreesError):
    """A randomized construction stage failed on this sample.

    Not a bug: the underlying event simply did not occur.  `stage` names
    the failing step for aggregation: a subclass declares its own, and a
    plain StageFailure is given one.  `detail` holds the failure's
    counts, the keyword arguments in the order the raise site gave them.
    """

    stage: Optional[str] = None

    def __init__(self, message: str, stage: Optional[str] = None, **detail):
        if stage is not None:
            self.stage = stage
        super().__init__("[%s] %s" % (self.stage, message))
        self.detail = detail


class SparsifyFailure(StageFailure):
    """Fewer than the requested number of palette colours survived."""

    stage = "sparsify"


class ExpanderFailure(StageFailure):
    """No effective expander of the required order exists in the sample."""

    stage = "expander"


class EmbedFailure(StageFailure):
    """Tree embedding exhausted its backtracking budget."""

    stage = "embed"


class RootEdgeFailure(StageFailure):
    """Too few reservoir-coloured edges at a root vertex to carry a piece."""

    stage = "root-edges"


class AbsorptionFailure(StageFailure):
    """A leftover vertex could not be absorbed into the partial tree."""

    stage = "absorption"


class PartitionFailure(StageFailure):
    """The highly connected partition audit rejected a block."""

    stage = "partition"
