"""Exception hierarchy shared by every solver module.

ParamError doubles as a ValueError so callers that only know stdlib types
still catch it; same idea for SolverError / RuntimeError.
"""


class AdkitError(Exception):
    """Base class for everything raised on purpose by this package."""


class ParamError(AdkitError, ValueError):
    """Invalid or inconsistent model parameters, before any solve starts."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SolverError(AdkitError, RuntimeError):
    """A solve started but could not be completed to tolerance."""


class PolicyError(SolverError):
    """A policy was evaluated outside the interval it was built for."""


class StableRangeError(SolverError, OverflowError):
    """A closed-form expression left the floating-point range it is valid on."""
