"""Exception hierarchy for the Chain-NN reproduction library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish configuration problems from simulation problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """An accelerator, memory or technology configuration is invalid.

    Raised when a user-supplied parameter is out of range (for example a
    negative PE count) or when a combination of parameters is inconsistent
    (for example a kernel larger than the chain).
    """


class MappingError(ReproError):
    """A CNN layer cannot be mapped onto the configured chain.

    Raised by :mod:`repro.core.mapper` when, for instance, the kernel window
    ``K*K`` exceeds the number of physical PEs in the chain.
    """


class SimulationError(ReproError):
    """The cycle-level simulator reached an inconsistent state."""


class CapacityError(ReproError):
    """A tile or working set does not fit in the targeted on-chip memory."""


class QuantizationError(ReproError):
    """Fixed-point conversion failed (illegal Q-format or overflow policy)."""


class WorkloadError(ReproError):
    """A CNN layer or network specification is malformed."""


#: errors caused by the caller's input — an invalid configuration, an
#: unmappable layer, a tile that does not fit, a malformed workload; the
#: CLI reports them as usage errors (exit 2) and the server as HTTP 400
INPUT_ERRORS = (ConfigurationError, MappingError, CapacityError, WorkloadError)
