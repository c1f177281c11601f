"""Enumeration capacity caps.

Exhaustive routines refuse inputs above these sizes instead of silently
truncating: a verdict is only ever reported when it was actually proved.
The environment variable TREEPACK_CAPACITY, when set to plain ASCII digits
(any other value is ignored), lowers every cap to at most that value (it
can never raise a cap), which bounds the library's enumeration work
without touching code.  The test suite clears it: its exhaustive oracles
need the default caps.
"""

import os

from .errors import CapacityError, InstanceParseError, parse_int

# Hard defaults.
SUBSET_ELEMENTS = 18     # 2^n subset scans over a matroid ground set
PARTITION_VERTICES = 10  # Bell-number partition scan of check_fractional_union_basis
BRUTE_EDGES = 16         # exhaustive packing search, edges
BRUTE_PARTS = 3          # exhaustive packing search, number of parts


def _env_cap() -> int | None:
    raw = os.environ.get("TREEPACK_CAPACITY")
    if raw is None:
        return None
    try:
        value = parse_int(raw, 0)
    except InstanceParseError:
        return None
    return value if value >= 0 else None


def effective(default: int) -> int:
    env = _env_cap()
    return default if env is None else min(default, env)


def require(bound_name: str, default: int, requested: int, what: str) -> None:
    """Raise CapacityError unless `requested` fits under the effective cap."""
    bound = effective(default)
    if requested > bound:
        raise CapacityError(what, bound_name, bound, requested)
