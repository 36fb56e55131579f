"""The size policy: MAX_N is the one hand-set cap, chosen by the budget beside it; the rest follow from it.

Each guard decides from its argument alone, so going past a cap raises SizeBound at once, for any
integer, instead of running for minutes or exhausting memory.
"""

from __future__ import annotations

from operator import index

from .errors import SizeBound

# Budget: `hochlat check all --n MAX_N` runs within 5 s and 256 MB as a fresh process on a 2-CPU Intel Xeon
# Linux container (Python 3.11, NumPy 2.4).  Three runs each: n = 11 took 1.03, 1.07 and 1.09 s at a 79 MB
# peak; n = 12 took 3.88, 4.06 and 4.15 s at 196 MB, inside it by under 1 s, so the cap waits for ROADMAP item 5.
MAX_N = 11  # word length n of Hoch(n) and of every per-n check
# elements of a built lattice: the triword count at MAX_N, the largest the battery builds (Hoch(MAX_N),
# its core label order, Shuf(MAX_N - 1, 1) and its orthogonal-pair lattice)
MAX_ELEMENTS = (MAX_N + 3) << (MAX_N - 2)

# The irreducible masks that certify a lattice and answer its joins and meets (lattice.as_lattice),
# label its covers and hold its core label sets (lattice.psi_map) are int64 below 64 irreducibles
# and Python ints from 64 on, so the irreducible count needs no cap.  The vertex masks of a graph
# whose pair lattice is rebuilt (galois._maximal_pairs) are int64 only, so check_int64 bounds them.

# The Mobius solve (FinitePoset.mobius_times) and the chain counts behind FinitePoset.zeta run in int64;
# before each height level they pass check_int64 a bound on every sum the level forms, so nothing wraps
# around (and once more at the end, so the column sums of their results are exact as well).
INT64_BOUND = 2**63


def check_range(name, value, lo, hi=None):
    """Raise SizeBound unless lo <= value, and value <= hi when hi is given; TypeError unless value is an integer."""
    if index(value) < lo or (hi is not None and value > hi):
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
