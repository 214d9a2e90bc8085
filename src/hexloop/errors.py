"""Exception types raised by the hexloop package.

Every anticipated misuse of the public API maps to one of these classes so
that callers (and the command line front end) can distinguish bad input from
genuine bugs.  All of them derive from :class:`HexloopError`.
"""


class HexloopError(Exception):
    """Base class for all hexloop-specific errors."""


class NotSelfAvoiding(HexloopError):
    """A vertex sequence meant to be a self-avoiding polygon repeats a vertex
    or uses a non-edge step."""


class EmptyInterior(HexloopError):
    """A polygon encloses no vertices, so there is no domain to build."""


class DisconnectedInterior(HexloopError):
    """The vertices enclosed by a polygon fall into several components, or a
    requested interior set is not connected."""


class OddSide(HexloopError):
    """A triangular domain was requested with an odd side length."""


class PathNotInDomain(HexloopError):
    """A path refers to vertices or edges outside the domain it is used with."""


class NotAPath(HexloopError):
    """A vertex sequence is not a self-avoiding path in the lattice."""


class TooLarge(HexloopError):
    """An exact computation was requested beyond the configured size limit."""


class WidthExceeded(HexloopError):
    """The sweep engine's frontier grew past the configured width limit."""


class InconsistentParity(HexloopError):
    """A loop configuration admits no two-coloring of the hexagons, or a
    requested defect set has the wrong parity."""


class OutOfRange(HexloopError):
    """A numeric parameter lies outside its admissible range."""


class DomainTooSmall(HexloopError):
    """The requested observable needs a larger domain than the one supplied."""


class EventNotIncreasing(HexloopError):
    """An event handed to a monotonicity check failed the increasing-event
    sanity test."""


class DomainNotSymmetric(HexloopError):
    """A reflection-symmetry check was asked for on an asymmetric fixture."""


class Overflow(HexloopError):
    """An exact count exceeded what the chosen integer representation holds."""
