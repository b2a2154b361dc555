"""Exception types shared across the package.

Every error raised on a contract violation subclasses :class:`QClusterError`,
so callers can catch one base class at the CLI boundary.
"""

from __future__ import annotations

__all__ = [
    "QClusterError",
    "NotSkew",
    "NotCompatible",
    "NonPositiveD",
    "NonExactDivision",
    "InvalidMutation",
    "NotNormalizable",
    "NoCompatibleLambda",
    "InvalidSurface",
    "NotComposable",
    "NotReduced",
    "RelationViolated",
    "InvalidString",
    "AmbiguousConnector",
    "NotCrossingSequence",
    "CannotTwist",
    "BijectionViolation",
    "InconsistentValuation",
    "UnreachableSubmodule",
    "UnmatchedCase",
    "NoSolution",
    "AmbiguousSolution",
]


class QClusterError(Exception):
    """Base class for all structured errors raised by this package."""


class NotSkew(QClusterError):
    """A matrix that must be skew-symmetric is not."""


class NotCompatible(QClusterError):
    """Lambda * B-tilde is not of the required -[D; 0] block form."""


class NonPositiveD(QClusterError):
    """The diagonal block D has a non-positive entry."""


class NonExactDivision(QClusterError):
    """Right division left a nonzero remainder (Laurent property violated)."""


class InvalidMutation(QClusterError, ValueError):
    """A mutation direction is out of range, or a sequence exceeds its limit."""


class NotNormalizable(QClusterError):
    """Element is not a q-power shift of a bar-invariant element."""


class NoCompatibleLambda(QClusterError):
    """No integer skew Lambda within the search bounds completes the pair."""


class InvalidSurface(QClusterError):
    """A surface file violates the triangulation contract."""


class InvalidString(QClusterError):
    """The word is not a valid string over the quiver."""


class NotComposable(InvalidString):
    """Consecutive letters of a word do not share endpoints correctly."""


class NotReduced(InvalidString):
    """A letter is immediately followed by its own inverse."""


class RelationViolated(InvalidString):
    """The word or its inverse traverses a forbidden length-2 path."""


class AmbiguousConnector(QClusterError):
    """More than one arrow completes a smoothing string."""


class NotCrossingSequence(QClusterError):
    """Consecutive string vertices do not share a triangle."""


class CannotTwist(QClusterError):
    """The matching does not contain two opposite edges of the tile."""


class BijectionViolation(QClusterError):
    """Matching <-> submodule correspondence failed to be a bijection."""


class InconsistentValuation(QClusterError):
    """Twist-propagated exponents disagree along some edge."""


class UnreachableSubmodule(QClusterError):
    """The one-index-step graph on canonical submodules is disconnected."""


class UnmatchedCase(QClusterError):
    """A case-split counting rule received a configuration no case covers."""


class NoSolution(QClusterError):
    """No exponent pair solves the two-term smoothing identity."""


class AmbiguousSolution(QClusterError):
    """Several exponent pairs solve the two-term smoothing identity."""
