"""Exception types shared across the package, and the integer check that
raises InvalidConfig for every integer-valued setting."""

import operator


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


class NoUniqueBranch(SnlError):
    """A singular merge does not have exactly one candidate that the known
    distances (and range bounds, when enabled) leave feasible."""


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


def checked_int(value, name: str) -> int:
    """value as an int; InvalidConfig unless it is an integer, not a bool.
    A float such as 2.0, or True, would otherwise pass as the integer it
    compares equal to."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise InvalidConfig(f"{name} must be an integer, got {value!r}") from None
