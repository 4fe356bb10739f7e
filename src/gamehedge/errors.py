"""Exception types raised by the engine.

Every failure mode has its own class so callers (and the CLI exit-code
mapping) can branch on type rather than parse messages.  All inherit from
EngineError.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine failures."""


class DegenerateLattice(EngineError):
    """Lattice factors do not satisfy 0 < d < 1 < u."""


class OutOfRange(EngineError):
    """A numeric argument violates its documented domain."""


class NonFiniteInput(EngineError):
    """An input value is NaN or infinite."""


class ContractionViolated(EngineError):
    """Step size too large for the generator's Lipschitz bounds."""


class NonConvergence(EngineError):
    """Fixed-point iteration failed to reach tolerance within the cap."""


class ObstacleOrderViolated(EngineError):
    """Lower obstacle not strictly below the upper one, or a tie payoff outside them."""


class TerminalOutOfBand(EngineError):
    """Terminal data escapes the obstacle band at the last step."""


class InvalidStoppingRule(EngineError):
    """Stopping rule malformed (shape mismatch or terminal row not marked)."""


class TooLarge(EngineError):
    """Requested enumeration exceeds the hard size cap."""


class ContractInvariantViolated(EngineError):
    """Contract payoffs violate the admissibility inequalities."""


class InvalidPenalty(EngineError):
    """Cancellation penalty must be strictly positive."""


class InvalidParameters(EngineError):
    """Builder arguments are inconsistent or out of domain."""


class NonFiniteState(EngineError):
    """A simulated state became NaN or infinite."""


class TooManyPaths(EngineError):
    """Path enumeration would exceed the hard path-count cap."""


class ConfigError(EngineError):
    """Run configuration is malformed or references missing inputs."""
