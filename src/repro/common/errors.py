"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so
applications can catch a single base type at their boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A configuration key was missing, malformed, or out of range."""


class InvalidPathError(ReproError):
    """A file-system path was malformed or referenced a missing entry."""


class FileAlreadyExistsError(InvalidPathError):
    """Attempted to create a path that already exists."""


class InsufficientSpaceError(ReproError):
    """A storage device or tier did not have room for a write."""


class ReplicaNotFoundError(ReproError):
    """A block replica lookup failed (wrong node/tier or already deleted)."""


class PolicyError(ReproError):
    """A downgrade/upgrade policy violated its contract."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven incorrectly."""
