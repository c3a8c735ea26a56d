"""Exception hierarchy, organized by how the CLI reports each failure.

Each class carries the exit code of the CLI: syntax/semantic expression
errors exit 1, file-format and validation errors exit 2, and
missing-constructor / unmet-precondition errors exit 3.
"""
from __future__ import annotations


class CfkError(Exception):
    exit_code = 1


class ExprSyntaxError(CfkError):
    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class ExprSemanticError(CfkError):
    pass


class FormatError(CfkError):
    """Malformed cfk v1 file."""
    exit_code = 2


class ValidationError(CfkError):
    """A complex that validate refuses.  The message joins the first
    SHOWN violations on one line and counts the rest; .violations keeps
    them all."""
    exit_code = 2
    SHOWN = 10

    def __init__(self, violations):
        self.violations = list(violations)
        parts = [f"[{v.kind}] {v.message}" for v in self.violations[:self.SHOWN]]
        if len(self.violations) > self.SHOWN:
            parts.append(f"… and {len(self.violations) - self.SHOWN} more")
        super().__init__("; ".join(parts))


class NoConstructorError(CfkError):
    """The expression denotes a knot with no complex constructor here."""
    exit_code = 3


class PreconditionError(CfkError):
    """A formula's hypothesis is not satisfied by the given input."""
    exit_code = 3


class KnotTypeError(PreconditionError):
    """The complex fails the structural assumptions of an invariant."""
