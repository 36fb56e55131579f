"""Shuffle lattices, their statistics, and the word bijection sigma.

Words mix letters from an ascending alphabet A = {2..a+1} (stored as
positive ints) and marker letters (stored as -1..-b, rendered 𝟙).  A word is
valid when its A-part and its marker part each appear in ascending order.
Going up in the order removes an A-letter or inserts a marker.

The core label order of a triword lattice (``lattice.clo``) is again a lattice, Shuf(n - 1, 1) under the
letter-by-letter bijection ``sigma``; ``clo_rank_counts`` gives the rank sizes they share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import index

from .errors import InvariantViolated, MalformedWord
from .hochschild import l1
from .lattice import as_lattice, clo  # noqa: F401  (clo is re-exported: perfbench traces it as shuffles:clo)
from .limits import MAX_ELEMENTS, check_elements, check_n, check_range
from .polynomials import interpolate_univariate
from .poset import FinitePoset


def shuffle_count(a, b):
    return sum(comb(a, k) * comb(b, m) * comb(k + m, k) for k in range(a + 1) for m in range(b + 1))


def word_rank(w, a):
    """Steps above the bottom word: missing A-letters plus present markers."""
    pos = sum(1 for x in w if x > 0)
    neg = len(w) - pos
    return a - pos + neg


def render_word(w, ascii_mode=False):
    if not w:
        return "eps" if ascii_mode else "ε"
    parts = []
    for x in w:
        if x > 0:
            parts.append(str(x))
        elif ascii_mode:
            parts.append("1*" if x == -1 else f"1*{-x}")
        else:
            parts.append("\U0001d7d9" if x == -1 else f"\U0001d7d9{-x}")
    if any(len(p) > 1 for p in parts):
        return " ".join(parts)
    return "".join(parts)


class ShuffleLattice:
    """Lattice of shuffle words plus the id <-> word decoding."""

    def __init__(self, lattice, words, a, b):
        self.lattice = lattice
        self.words = tuple(words)
        self.index = {w: i for i, w in enumerate(self.words)}
        self.a, self.b = a, b

    def id_of(self, w):
        return self.index[w]

    def __repr__(self):
        return f"ShuffleLattice(a={self.a}, b={self.b}, elements={len(self.words)})"


def _up_steps(w, a, b):
    """Single-step larger words: drop one A-letter or insert one marker."""
    out = []
    for i, x in enumerate(w):
        if x > 0:
            out.append(w[:i] + w[i + 1 :])
    present = {-x for x in w if x < 0}
    for j in range(1, b + 1):
        if j in present:
            continue
        lo = max((i + 1 for i, x in enumerate(w) if x < 0 and -x < j), default=0)
        hi = min((i for i, x in enumerate(w) if x < 0 and -x > j), default=len(w))
        for slot in range(lo, hi + 1):
            out.append(w[:slot] + (-j,) + w[slot:])
    return out


@lru_cache(maxsize=None)
def shuffle_lattice(a, b):
    """Shuf(a, b), built once per (a, b); later calls return the same object."""
    check_range("a", a, 0)
    check_range("b", b, 0)
    check_range("a + b", a + b, 0, MAX_ELEMENTS.bit_length() - 1)  # shuffle_count(a, b) >= 2**(a + b)
    check_elements("shuffle lattice", shuffle_count(a, b))
    steps, todo = {}, [tuple(range(2, a + 2))]  # every word lies above the full A-word
    while todo:
        w = todo.pop()
        if w not in steps:
            steps[w] = _up_steps(w, a, b)
            todo += steps[w]
    if len(steps) != shuffle_count(a, b):
        raise InvariantViolated(f"the cover rule reaches {len(steps)} words, not {shuffle_count(a, b)}")
    words = sorted(steps, key=lambda w: (word_rank(w, a), w))
    index = {w: i for i, w in enumerate(words)}
    covers = [(index[w], index[v]) for w in words for v in steps[w]]
    poset = FinitePoset.closure(covers, len(words), labels=[render_word(w) for w in words])
    return ShuffleLattice(as_lattice(poset), words, a, b)


def shuffle_stats(n):
    """Brute-force chain count, zeta coefficients, and Mobius value."""
    check_n(n)
    lat = shuffle_lattice(n - 1, 1)
    poset = lat.lattice.poset
    return {
        "elements": poset.n,
        "maximal_chains": poset.count_maximal_chains(),
        "zeta_coefficients": interpolate_univariate(poset.zeta_points()),
        "mobius": poset.mobius(poset.bottom(), poset.top()),
        "mobius_via_zeta": poset.mobius_invariant_via_zeta(),
    }


def shuffle_stats_closed(n):
    """The same quantities from the closed formulas."""
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(n + 1, 2)
    coeffs[n - 1] += Fraction(-(n - 1), 2)
    return {
        "elements": 2 ** (n - 2) * (n + 3) if n >= 2 else 2,
        "maximal_chains": factorial(n + 1) // 2,
        "zeta_coefficients": [int(c) if c.denominator == 1 else c for c in coeffs],
        "mobius": (-1) ** n * n,
        "mobius_via_zeta": (-1) ** n * n,
    }


# -- the word bijection ------------------------------------------------------


def sigma(u):
    """Triword to one-marker shuffle word.

    The positions in 2..n carrying no 2 form the A-part; the marker lands
    right after the letter equal to the last-1 position, at the front when
    that position is 1, nowhere when there is no 1 at all.
    """
    tau = [i for i, x in enumerate(u[1:], 2) if x != 2]
    last1 = l1(u)
    if last1:
        tau.insert(last1 - 1 - u[1:last1].count(2), -1)  # after the letters of tau up to last1
    return tuple(tau)


def sigma_inverse(n, w):
    """Rebuild the triword in the pass that checks w, read once: each letter is an A-letter above the last one
    and at most n, written as 1 before the marker and 0 after it, or the first -1, an int by ``operator.index``
    as an A-letter must be to index u; absent A-letters are 2s, the first letter 1 iff there is a marker.  So
    no 1 follows a 0, the last 1 ends the A-letters before the marker, and ``sigma`` of the triword is w, with
    no round trip.  MalformedWord for any other w."""
    check_n(n)
    u, top = [2] * n, 1
    try:  # a w that is no iterable, or a letter that is no int (it cannot be compared or index u)
        word = tuple(w)
        u[0] = fill = int(-1 in word)
        for x in word:
            if top < x <= n:
                u[x - 1], top = fill, x
            elif x == -1 and fill:
                fill = index(x) + 1  # 0; a TypeError for a marker that is no int, as -1.0
            else:
                break
        else:
            return tuple(u)
    except TypeError:
        pass
    raise MalformedWord(f"{w!r} is not a valid one-marker shuffle word for n={n}")


def clo_rank_counts(n):
    """Closed rank sizes of the triword core label order."""
    return [
        comb(n, k) + ((n - k) * comb(n - 1, k - 1) if k >= 1 else 0)
        for k in range(n + 1)
    ]
