"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class PepsForgeError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(PepsForgeError):
    """An argument violates a documented precondition (shape, symmetry, range)."""


class NumericalFailureError(PepsForgeError):
    """An iterative solver failed to converge or a numeric sanity check broke."""


class InjectivityError(PepsForgeError):
    """A map that must have full column rank is rank deficient."""


class DegenerateGroundSpaceError(InjectivityError):
    """An intermediate Hamiltonian has a degenerate ground space.

    The growth procedure assumes every intermediate state is the unique
    zero-energy state of its Hamiltonian; a degenerate kernel means that
    assumption fails for this instance and vertex order.
    """


class ConditioningError(PepsForgeError):
    """A basis used to build a projector is too ill-conditioned to trust."""


class GaugeRestoreError(PepsForgeError):
    """The final state has weight outside the physical image of a vertex map."""


class OrthogonalTargetsError(PepsForgeError):
    """Consecutive target states are (numerically) orthogonal; the repair
    loop cannot make progress."""


class BoundViolationError(PepsForgeError):
    """A proven inequality failed on a valid instance (implementation bug)."""


class CapacityError(PepsForgeError):
    """A requested global Hilbert-space dimension or trial count exceeds its cap."""


class ConfigError(InvalidInputError):
    """A configuration document does not match the schema.

    ``location`` is a JSON-pointer-style path to the offending field.
    """

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")
