"""Shared exception types and enumeration guards."""

import os

DEFAULT_ENUMERATION_CAP = 1_000_000


class GuardExceededError(RuntimeError):
    """An exact enumeration would exceed its configured size cap."""


class InfeasibleModelError(RuntimeError):
    """The model admits no valid state (e.g. hard constraints unsatisfiable)."""


def enumeration_cap() -> int:
    """Return the active enumeration cap.

    The ORBITAL_GUARD environment variable, when set to a positive integer,
    overrides the built-in default for all exact enumerations; it is the
    one way to set the cap.  Each guard reads it at the point of checking.
    """
    raw = os.environ.get("ORBITAL_GUARD")
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"ORBITAL_GUARD must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"ORBITAL_GUARD must be positive, got {cap}")
    return cap
