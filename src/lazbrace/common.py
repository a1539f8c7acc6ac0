"""Shared exceptions and the substructure classification scale."""

from __future__ import annotations

import enum


class LazbraceError(Exception):
    """Base class for all library errors."""


class CapabilityError(LazbraceError):
    """The requested operation is refused (non-Lazard input, size cap, ...)."""


class NotLazardError(CapabilityError):
    """Input fails the Lazard condition (nilpotency class >= p)."""


class CapExceededError(CapabilityError):
    """Desk-scale size cap exceeded and no force flag given."""


class FailedTheoremError(LazbraceError):
    """A verified theorem-level identity failed; indicates a bug, never expected."""


class ParseError(LazbraceError):
    """Malformed structure file."""


class IdealLevel(enum.IntEnum):
    """Strength of a substructure, shared between post-Lie rings and skew braces.

    The chain is increasing: every left ideal is a sub(structure), every
    strong left ideal is a left ideal, every ideal is a strong left ideal.
    """

    NOT_CLOSED = 0
    SUB = 1
    LEFT_IDEAL = 2
    STRONG_LEFT_IDEAL = 3
    IDEAL = 4
