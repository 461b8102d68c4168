"""Shared error types for the dicuts package."""

from __future__ import annotations


class DicutsError(Exception):
    """Base class for all package-specific errors."""


class CapExceeded(DicutsError):
    """An enumeration or closure would produce more objects than the cap allows.

    This is a clean refusal, not a truncation: callers never receive a
    silently incomplete result.
    """

    def __init__(self, cap: int, context: str = ""):
        self.cap = cap
        self.context = context
        detail = f" while {context}" if context else ""
        super().__init__(f"cap of {cap} exceeded{detail}")


class DualityGapDetected(DicutsError):
    """Min dijoin size and max disjoint dicut count disagree on a corner-closed class.

    On a corner-closed dibond class of a finite weakly connected digraph
    (the full class, every corner closure, and any custom class found
    corner-closed) the two numbers are always equal, so this error signals
    an implementation defect. On a class that is not corner-closed a gap is
    a legitimate result and is reported by returning None instead of raising.
    """

    def __init__(self, min_dijoin_size: int, max_packing_size: int):
        self.min_dijoin_size = min_dijoin_size
        self.max_packing_size = max_packing_size
        super().__init__(
            f"min dijoin size {min_dijoin_size} != max disjoint dicut count {max_packing_size}"
        )


class PreconditionViolated(DicutsError):
    """A documented operation precondition failed; names the failing condition."""

    def __init__(self, condition: str):
        self.condition = condition
        super().__init__(condition)


class NotCornerClosed(DicutsError):
    """The operation requires a finitely corner-closed dibond class."""

    def __init__(self, detail: str = "dibond class is not corner-closed"):
        super().__init__(detail)


class VerificationFailed(DicutsError):
    """An independent re-verification of a structural result failed; names the condition."""

    def __init__(self, condition: str):
        self.condition = condition
        super().__init__(condition)


class ParseError(DicutsError):
    """Malformed textual input; carries the 1-based line number and a reason."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")
