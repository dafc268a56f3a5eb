"""Exception taxonomy used across the package.

Three categories matter to callers (and map to CLI exit codes):

* :class:`InputError` -- malformed user-supplied data (files, flags, matrices).
* :class:`PreconditionError` -- structurally valid input that violates a
  documented mathematical precondition (non-fundamental discriminant,
  class number too small, trial cap exhausted, ...).
* :class:`InternalConsistencyError` -- a self-check inside the library
  failed; indicates a bug or numerically impossible state, never bad input.
"""
from __future__ import annotations


class InputError(ValueError):
    """Raised when user-supplied data cannot be interpreted."""


class PreconditionError(ValueError):
    """Raised when an operation's documented precondition is violated."""


class InternalConsistencyError(RuntimeError):
    """Raised when an internal cross-check fails (library bug, not bad input)."""


class TrialCapError(PreconditionError):
    """Raised when a randomized search exhausts its hard trial cap, or is
    sure to: a path search whose target lies outside its source's component
    raises it before the first trial.

    Signals a non-expander (or otherwise badly mixing) input rather than an
    unlucky run: caps are set far above the expected trial counts.
    """


class GroupFileError(InputError):
    """Parse failure in the abstract-group text format; carries the line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
