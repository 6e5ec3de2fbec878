"""Exception hierarchy for the Volley reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A task, adaptation, or testbed configuration is invalid.

    Raised eagerly at construction time so that misconfiguration is caught
    before a long simulation starts.
    """


class TraceError(ReproError):
    """A metric trace is malformed (empty, NaN, wrong shape, ...)."""


class CoordinationError(ReproError):
    """Distributed coordination received inconsistent monitor reports."""


class CorrelationError(ReproError):
    """State-correlation detection/planning failed (e.g. no overlap)."""


class ProtocolError(ReproError):
    """A runtime wire-protocol frame is malformed or oversized.

    Raised by :mod:`repro.runtime.protocol` on truncated frames, frames
    above the size limit, bodies that are not valid JSON objects, and
    replies that report a server-side error.
    """


class CheckpointError(ReproError):
    """A runtime checkpoint file is unreadable or incompatible."""


class ClusterError(ReproError):
    """A cluster operation failed (worker unreachable, migration aborted,
    placement inconsistency).

    Raised by :mod:`repro.cluster` transports when a worker process cannot
    be reached and by the coordinator when a control operation (migration,
    re-placement) cannot complete safely. Data-path callers treat it as
    shed-with-count, never as a crash.
    """
