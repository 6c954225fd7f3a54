"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause without
masking programming errors (``TypeError`` etc.) raised by misuse of Python
itself.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ParameterError",
    "SimulationError",
    "ScheduleError",
    "ProtocolError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An object was configured inconsistently (bad wiring, missing pieces)."""


class ParameterError(ConfigurationError):
    """A numeric parameter is outside its admissible range.

    Raised, for example, when ``epsilon`` does not satisfy the paper's
    requirement ``epsilon > n**(-1/2 + eta)`` or when a population size is
    not large enough to run the requested protocol.
    """


class ScheduleError(ConfigurationError):
    """A phase schedule is malformed (overlapping or non-contiguous phases)."""


class SimulationError(ReproError):
    """A simulation reached an invalid state at run time."""


class ProtocolError(SimulationError):
    """A protocol implementation violated the Flip-model contract.

    Typical causes: sending more than one message per agent per round, or
    sending a message with a value outside ``{0, 1}``.
    """


class ExperimentError(ReproError):
    """An experiment driver was given an unusable specification."""
