"""Exception types shared across the package."""


class SnlError(Exception):
    """Base class for all errors raised by snloc."""


class InvalidConfig(SnlError, ValueError):
    """An instance, tolerance or experiment configuration is inconsistent."""


class RankDeficient(SnlError):
    """A Gram matrix does not have the numerical rank the operation requires."""


class NotAClique(SnlError):
    """A node set passed as a clique has at least one unknown pairwise distance."""


class IntersectionRankLoss(SnlError):
    """The common block of two face bases has lower rank than the step assumes."""


class RangeMismatch(SnlError):
    """The common blocks of two face bases span measurably different subspaces."""


class NoRealBranch(SnlError):
    """The branch eigenproblem of a singular merge has no nonzero real solution."""


class NoRigidSeed(SnlError):
    """No measured sub-clique with full-dimensional geometry exists in a face."""


class DegenerateAnchors(SnlError):
    """Anchor geometry is too degenerate to determine the aligning transform."""


class EmptyPositioned(SnlError):
    """Error metrics were requested for an empty set of positioned sensors."""


class ParseError(SnlError):
    """A problem or solution file is malformed.

    Carries the 1-based line number where parsing failed.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
