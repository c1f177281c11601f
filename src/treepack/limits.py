"""Enumeration capacity caps.

Exhaustive routines refuse inputs above these sizes instead of silently
truncating: a verdict is only ever reported when it was actually proved.
"""

from .errors import CapacityError

SUBSET_ELEMENTS = 18     # 2^n subset scans over a matroid ground set
PARTITION_VERTICES = 10  # Bell-number partition scan of check_fractional_union_basis
BRUTE_EDGES = 16         # exhaustive packing search, edges
BRUTE_PARTS = 3          # exhaustive packing search, number of parts


def require(bound_name: str, bound: int, requested: int, what: str) -> None:
    """Raise CapacityError unless `requested` fits under `bound`."""
    if requested > bound:
        raise CapacityError(what, bound_name, bound, requested)
