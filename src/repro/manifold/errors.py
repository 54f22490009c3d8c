"""Exception hierarchy for the MANIFOLD/IWIM coordination runtime.

Every error raised by :mod:`repro.manifold` derives from
:class:`ManifoldError`, so applications embedding the runtime can catch
coordination failures without masking unrelated bugs.
"""

from __future__ import annotations


class ManifoldError(Exception):
    """Base class for all coordination-runtime errors."""


class PortError(ManifoldError):
    """Raised for illegal port operations.

    Examples: writing to an input port, reading from an output port, or
    referring to a port name a process does not declare.
    """


class StreamError(ManifoldError):
    """Raised for illegal stream operations.

    Examples: reconnecting an already-connected stream end, writing into
    a stream whose source side has been broken, or draining a stream that
    was never connected.
    """


class ProcessError(ManifoldError):
    """Raised for illegal process lifecycle transitions.

    Examples: activating a process twice, or reading a port of a process
    that was never activated.
    """


class EventError(ManifoldError):
    """Raised for malformed event declarations or postings."""


class StateMachineError(ManifoldError):
    """Raised when a coordinator block is structurally invalid.

    The canonical case, mirroring the language rule quoted in the paper
    ("There must always be a ``begin`` state ... in every block"), is a
    block without a ``begin`` state.
    """


class LinkError(ManifoldError):
    """Raised by the MLINK stage for malformed composition specs."""


class ConfigError(ManifoldError):
    """Raised by the CONFIG stage for malformed host-mapping specs."""

