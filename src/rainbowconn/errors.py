"""Exception taxonomy shared by every module in the package."""

from __future__ import annotations


class RainbowError(Exception):
    """Base class for all errors raised by this package."""


class InvalidEdge(RainbowError):
    """An edge is malformed, for example a self loop."""


class IndexOutOfRange(RainbowError):
    """A vertex index falls outside 0..n-1."""


class ParseError(RainbowError):
    """A text input (edge list or coloring file) is malformed."""


class ColoringMismatch(RainbowError):
    """A coloring does not cover the graph's edge set exactly."""


class CapExceeded(RainbowError):
    """A coloring uses more colors than the verifier's bitmask cap."""


class WrongCase(RainbowError):
    """A construction was invoked on a graph outside its structural case."""


class StructureViolation(RainbowError):
    """An internal structural guarantee failed; indicates a bug, not bad input."""


class OutOfScopeGraph(RainbowError):
    """The graph is outside the supported scope (disconnected or diameter > 2)."""


class InvalidSpec(RainbowError):
    """A generator family request has missing or out-of-range parameters."""


class GenerationFailed(RainbowError):
    """Rejection sampling exhausted its tries without an acceptable graph."""


class ConstructionFailure(RainbowError):
    """Every construction attempt produced a coloring the verifier rejected.

    Carries enough context to reproduce the failure: the graph, the first
    failing vertex pair, and how many attempts were made.
    """

    def __init__(self, message: str, graph=None, failing_pair=None, attempts: int = 0):
        super().__init__(message)
        self.graph = graph
        self.failing_pair = failing_pair
        self.attempts = attempts
