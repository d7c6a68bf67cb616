"""Exception hierarchy for the dupin package."""


class DupinError(Exception):
    """Base class for all package errors."""


class AxisOutOfRange(DupinError):
    pass


class GridTooSmall(DupinError):
    pass


class GridMismatch(DupinError):
    pass


class DegenerateCloud(DupinError):
    pass


class ZeroLame(DupinError):
    pass


class NotParallel(DupinError):
    pass


class FrameDrift(DupinError):
    pass


class RankZero(DupinError):
    pass


class NotCanonical(DupinError, ValueError):
    """A solution that is not, or cannot be made, the canonical class
    representative (a ValueError too, as `RibaucourSolution.canonical`
    raised before it had a class of its own)."""


class LambdaZero(DupinError):
    pass


class ThroughOrigin(DupinError):
    pass


class DegenerateOffset(DupinError):
    pass


class NotOnQuadric(DupinError):
    pass


class FocalDegeneracy(DupinError):
    pass


class AxisIncidence(DupinError):
    pass


class DimensionMismatch(DupinError, ValueError):
    """Arrays or seeds whose sizes do not fit together (a ValueError too, as
    the seed-shape check of `solve_linear` raised before)."""


class TooFewNodes(DupinError):
    pass


class NotProper(DupinError):
    pass


class RankDeficient(DupinError):
    pass


class UnsupportedGrid(DupinError):
    pass


class NotRegular(DupinError, ValueError):
    """A recursion step's solution fails the regularity gate (a ValueError
    too, as it was before it had a class of its own)."""


class UnsupportedSlice(DupinError):
    pass


class ParseError(DupinError):
    pass


class OutputError(DupinError):
    """An artifact, report or mesh that cannot be written: a missing
    directory, a path that is a directory, no permission, a full disk."""


class StepFailure(DupinError):
    def __init__(self, step_index, message):
        super().__init__(f"step {step_index}: {message}")
