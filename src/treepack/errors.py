"""Exception hierarchy shared by all treepack modules.

Every error class maps onto one CLI exit code: input problems (parse errors,
invalid arguments) exit 2, capacity refusals exit 3, and internal invariant
breaches are bugs that should never be swallowed.  parse_int is the one
integer-token reader of every text format.
"""

import re

_INTEGER = re.compile(r"-?[0-9]+")


class TreepackError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(TreepackError):
    """The caller passed arguments outside an operation's contract."""


class PreconditionViolationError(TreepackError):
    """A documented precondition of the operation does not hold."""


class CapacityError(TreepackError):
    """An enumeration bound would be exceeded; no verdict is reported."""

    def __init__(self, message: str, bound_name: str, bound: int, requested: int):
        super().__init__(f"{message} (bound {bound_name}={bound}, requested {requested})")
        self.bound_name = bound_name
        self.bound = bound
        self.requested = requested


class InternalInvariantError(TreepackError):
    """An invariant the algorithms guarantee was observed to fail.

    Raising this signals a bug in this package, never a property of the
    caller's input.
    """


class GenerationFailureError(TreepackError):
    """A seeded generator exhausted its retry budget."""


class InstanceParseError(TreepackError):
    """A text instance/packing/vector file is malformed."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_int(token: str, line_number: int) -> int:
    """Read an integer token: an optional minus sign and ASCII digits.

    Stricter than int(), which also takes '+3', '1_0' and non-ASCII digits.
    """
    if _INTEGER.fullmatch(token) is None:
        raise InstanceParseError(line_number, f"expected an integer, got {token!r}")
    return int(token)
