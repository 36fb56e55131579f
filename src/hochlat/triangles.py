"""Rank, characteristic, and triangle polynomials of the triword lattices.

Everything here is exact integer/rational arithmetic on BiPoly values.  The M-triangle lives on the core label
order (which is graded); the routes to the F- and H-triangles, and the bundles that compare them, are in the route
ledger of ``checks``.  The graded pair counts behind the G-triangle and the Boolean F-triangle (``_graded``) are
read off the packed rows by ``FinitePoset.rank_corank_counts``; this module reads no rows itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, product, repeat
from math import comb
from types import MappingProxyType

import numpy as np

from .errors import InvariantViolated
from .hochschild import build_hoch, enumerate_triwords, irreducibles
from .lattice import _jsd_labels, build_bool
from .limits import check_n, check_range
from .polynomials import BiPoly
from .poset import FinitePoset
from .shuffles import shuffle_lattice

X = BiPoly.x()
Y = BiPoly.y()
ONE = BiPoly.const(1)


# -- rank and characteristic polynomials ------------------------------------


def _indicator(grades):
    """R: the m x (max grade + 1) int64 matrix with R[v, g] = 1 iff grades[v] == g."""
    grades = np.asarray(grades)
    return (grades[:, None] == np.arange(grades.max(initial=0) + 1)).astype(np.int64)


def _graded(p):
    """The pairs a <= b of a graded poset p by the rank of a and the corank of b (``rank_corank_counts``), as a BiPoly."""
    return BiPoly({(i, j): int(c) for (i, j), c in np.ndenumerate(p.rank_corank_counts())})


def rank_poly_closed(n):
    """Rank polynomial of the triword core label order, as a product."""
    check_range("n", n, 1)
    if n == 1:
        return X + ONE
    return (X + ONE) ** (n - 2) * (X**2 + (n + 1) * X + ONE)


def char_poly_closed(n):
    """Characteristic polynomial of the triword core label order."""
    check_range("n", n, 1)
    return (ONE - X) ** (n - 1) * (ONE - n * X)


def shuffle_char_closed(a, b):
    """Characteristic polynomial of the shuffle lattice on (a, b)."""
    check_range("min(a, b)", min(a, b), 0)
    acc = BiPoly()
    for j in range(min(a, b) + 1):
        acc += comb(a, j) * comb(b, j) * (X - ONE) ** (a + b - j) * X**j
    return (-1) ** (a + b) * acc


# -- the M-triangle ----------------------------------------------------------


def m_triangle(p):
    """Mobius values of all comparable pairs, graded by rank on both sides: R^T (mu R).

    The intended input is a core label order; any graded poset works.
    """
    ranks = _indicator(p.rank_vector())
    return BiPoly({(i, j): int(c) for (i, j), c in np.ndenumerate(ranks.T @ p.mobius_times(ranks))})


@lru_cache(maxsize=None)
def m_closed(n):
    """Closed product form of the M-triangle of the triword core label order, built once per n (BiPoly is immutable)."""
    check_range("n", n, 1)
    if n == 1:
        return ONE - Y + X * Y
    bracket = (n + 1) * ((X - ONE) * Y - X * Y**2) + (n * ONE + X**2) * Y**2 + ONE
    return (X * Y - Y + ONE) ** (n - 2) * bracket


# -- F and H via rational substitution ---------------------------------------


def _substitute(m, n, p, q, r):
    """The sum of c p^i q^(j-i) r^(n-j) over the terms c x^i y^j of an M-triangle of rank n, by Horner's rule
    over i (times p) within Horner's rule over j (times r), each power of q built once; InvariantViolated
    unless 0 <= i <= j <= n, raised before any arithmetic."""
    if bad := [(i, j) for i, j in m.terms if not 0 <= i <= j <= n]:
        raise InvariantViolated(f"M-triangle term x^{bad[0][0]} y^{bad[0][1]} is outside 0 <= i <= j <= {n}")
    qs, out = [ONE, *accumulate(repeat(q, n), BiPoly.__mul__)], BiPoly()
    for j in range(n + 1):
        row = BiPoly()
        for i in range(j, -1, -1):
            row = row * p + m.terms.get((i, j), 0) * qs[j - i]
        out = out * r + row
    return out


def f_transform(m, n):
    """y^n * m((y+1)/(y-x), (y-x)/y): each term c x^i y^j becomes c (y+1)^i (y-x)^(j-i) y^(n-j)."""
    return _substitute(m, n, Y + ONE, Y - X, Y)


def h_transform(m, n):
    """(x(y-1)+1)^n * m(y/(y-1), x(y-1)/(x(y-1)+1)): each term c x^i y^j becomes
    c (xy)^i (x(y-1))^(j-i) (x(y-1)+1)^(n-j)."""
    return _substitute(m, n, X * Y, X * (Y - ONE), X * (Y - ONE) + ONE)


def f_from_m(n):
    return f_transform(m_closed(n), n)


def h_from_m(n):
    return h_transform(m_closed(n), n)


def f_closed(n):
    """Closed product form of the F-triangle."""
    check_range("n", n, 1)
    if n == 1:
        return X + Y + ONE
    bracket = n * X**2 + 2 * X * Y + (n + 1) * X + (Y + ONE) ** 2
    return (X + Y + ONE) ** (n - 2) * bracket


def h_closed(n):
    """Closed product form of the H-triangle."""
    check_range("n", n, 1)
    if n == 1:
        return X * Y + ONE
    return (X * Y + ONE) ** (n - 2) * ((X * Y + ONE) ** 2 + (n - 1) * X)


# -- F and H via triword statistics ------------------------------------------


@lru_cache(maxsize=None)
def _word_stats(n):
    """Triword counts per (joinand count c: a at the last 1, b at each 2; atom joinand count g: the 2s, plus 1 when
    the word starts with its only 1), shared read-only: one bincount of c (n + 1) + g over the words' letter counts."""
    words = enumerate_triwords(n)
    u = np.frombuffer(bytes(chain.from_iterable(words)), np.uint8).reshape(len(words), n)
    twos, ones = (u == 2).sum(axis=1), (u == 1).sum(axis=1)
    cg = (twos + (ones > 0)) * (n + 1) + twos + ((u[:, 0] == 1) & (ones == 1))
    return MappingProxyType({divmod(i, n + 1): k for i, k in enumerate(np.bincount(cg).tolist()) if k})


def f_tilde(n):
    """F-triangle: x^(n-c) (x+1)^(c-g) (y+1)^g per triword of c canonical joinands, g atoms, by ``_partial_cores``."""
    return _partial_cores(_word_stats(n), n)


def h_tilde(n):
    """H-triangle from the (canonical joinand count, atom count) statistics."""
    return BiPoly(_word_stats(n))


# -- partial cores -----------------------------------------------------------


def _cover_counts(lat):
    """Counter of (d, t) over the elements: d lower covers, t of them labelled by an atom, each from one
    bincount over the cover ends; NoUniqueMin unless join-semidistributive."""
    ups, atom = lat.poset._ends[1], np.zeros(lat.n, dtype=bool)
    atom[lat.atoms()] = True
    d, t = np.bincount(ups, minlength=lat.n), np.bincount(ups[atom[_jsd_labels(lat)]], minlength=lat.n)
    return Counter(zip(d.tolist(), t.tolist()))


def _partial_cores(counts, n):
    """The F-triangle of {(d, t): k}, k elements with d lower covers (or canonical joinands), t labelled by atoms:
    k comb(t, s) comb(d - t, q) x^(n-t-q) y^(t-s) over s <= t, q <= d - t, that is k x^(n-d) (x+1)^(d-t) (y+1)^t."""
    terms = Counter()
    for (d, t), k in counts.items():
        for s, q in product(range(t + 1), range(d - t + 1)):
            terms[(n - t - q, t - s)] += k * comb(t, s) * comb(d - t, q)
    return BiPoly(terms)


def face_vector(n):
    """Partial-core counts by number r of chosen covers: comb(d, r) per element with d covers."""
    counts = _cover_counts(build_hoch(n).lattice)
    return [sum(k * comb(d, r) for (d, _), k in counts.items()) for r in range(n + 1)]


def face_count_closed(n, i):
    """Closed count of partial cores with i chosen covers; exact rationals."""
    check_range("n", n, 1)
    check_range("i", i, 0)
    v = Fraction(2) ** (n - i - 2) * Fraction(comb(n, i) * (n * (n + 3) - i * (i - 1)), n)
    if v.denominator != 1:
        raise InvariantViolated(f"face count {v} is not an integer")
    return int(v)


# -- H via antichains of the extended irreducible poset -----------------------


@dataclass(frozen=True)
class JPoset:
    """Irreducible poset of the triword lattice with b2 pushed below the a-chain.

    ``atoms`` holds the ids of a1 and every b; antichains weighted by size and
    atom content realize the H-triangle.
    """

    poset: FinitePoset
    atoms: frozenset


def j_poset(n):
    """Chain a1 < ... < an, b2 below a2 (hence below the whole upper chain),
    and b3 .. bn isolated; SizeBound unless 1 <= n <= MAX_N."""
    check_n(n)
    labels = [str(j) for j in irreducibles(n)]
    covers = [(i, i + 1) for i in range(n - 1)]
    if n >= 2:
        covers.append((n, 1))
    poset = FinitePoset.closure(covers, 2 * n - 1, labels=labels)
    return JPoset(poset=poset, atoms=frozenset({0} | set(range(n, 2 * n - 1))))


def h_from_antichains(n):
    """H-triangle by weighting every antichain of the extended poset: its size and its atom count are the
    popcounts of its mask and of the mask ANDed with the atoms."""
    jp = j_poset(n)
    atoms = sum(1 << a for a in jp.atoms)
    return BiPoly(Counter((a.bit_count(), (a & atoms).bit_count()) for a in jp.poset._antichain_masks()))


# -- the G-triangle of shuffle lattices ---------------------------------------


def g_triangle(a, b):
    """Comparable pairs of a shuffle lattice, graded by rank and corank: R^T zeta C."""
    return _graded(shuffle_lattice(a, b).lattice.poset)


def g_conjecture_closed(n):
    """Conjectured product form for the G-triangle of the (n-1, 1) shuffle."""
    check_range("n", n, 1)
    if n == 1:
        return X + Y + ONE
    bracket = X**2 + Y**2 + ONE + (n + 1) * (X * Y + X + Y)
    return (X + Y + ONE) ** (n - 2) * bracket


def g_conjecture_check(n):
    """Compare the computed G-triangle with the conjectured product.

    Returns a report; callers must treat a mismatch as news, not as an error.
    """
    check_n(n)
    computed = g_triangle(n - 1, 1)
    conjectured = g_conjecture_closed(n)
    return {
        "n": n,
        "match": computed == conjectured,
        "computed": computed,
        "conjectured": conjectured,
    }


# -- Boolean baselines ---------------------------------------------------------


def boolean_baselines(n):
    """Definitional M/F/H of the Boolean lattice next to their closed powers."""
    lat = build_bool(n)
    p = lat.poset
    return {
        "m": m_triangle(p),
        "f": _graded(p),
        "h": BiPoly(_cover_counts(lat)),  # by canonical joinands (one a lower cover), and atoms among them
        "m_closed": (X * Y - Y + ONE) ** n,
        "f_closed": (X + Y + ONE) ** n,
        "h_closed": (X * Y + ONE) ** n,
    }
