"""The size policy: every cap the library and the command line enforce.

The caps keep each construction and each command interactive.  Going past
one raises SizeBound instead of running for minutes or exhausting memory.
"""

from __future__ import annotations

from .errors import SizeBound

MAX_N = 10  # word length n of Hoch(n) and of every per-n check
MAX_ELEMENTS = 5000  # elements of a built shuffle or Boolean lattice
MAX_GRAPH = 22  # vertices of a graph whose pair lattice is rebuilt; bounds its m x k meet table

# The irreducible masks that certify a lattice and answer its joins and meets (lattice.as_lattice),
# label its covers and hold its core label sets (lattice.psi_map) are int64 below 64 irreducibles
# and Python ints from 64 on, so the irreducible count needs no cap.  Every structure these caps
# admit has at most 27 irreducibles a side (Shuf(3, 6)); Hoch(MAX_N) has 19.

# The Mobius solve (FinitePoset.mobius_times) and the chain counts behind FinitePoset.zeta run in int64;
# before each height level they pass check_int64 a bound on every sum the level forms, so nothing wraps
# around (and once more at the end, so the column sums of their results are exact as well).
INT64_BOUND = 2**63


def check_range(name, value, lo, hi=None):
    """Raise SizeBound unless lo <= value, and value <= hi when hi is given."""
    if value < lo or (hi is not None and value > hi):
        bound = f"{name} >= {lo}" if hi is None else f"{lo} <= {name} <= {hi}"
        raise SizeBound(f"{name} must satisfy {bound}, got {value}")


def check_n(n):
    """Raise SizeBound unless 1 <= n <= MAX_N."""
    check_range("n", n, 1, MAX_N)


def check_elements(what, count):
    """Raise SizeBound when a structure would have more than MAX_ELEMENTS elements."""
    if count > MAX_ELEMENTS:
        raise SizeBound(f"{what} would have {count} elements (cap {MAX_ELEMENTS})")


def check_int64(what, bound):
    """Raise SizeBound unless an integer of size up to bound is exact in int64."""
    if bound >= INT64_BOUND:
        raise SizeBound(f"{what} may reach {bound}, past the int64 bound {INT64_BOUND}")
