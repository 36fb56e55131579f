"""Shuffle lattices, their statistics, and the word bijection sigma.

Words mix letters from an ascending alphabet A = {2..a+1} (stored as positive ints) and marker letters (stored as
-1..-b, rendered 𝟙).  A word is valid when its A-part and its marker part each appear in ascending order (C. Greene,
*Posets of shuffles*, JCTA 47, 1988).  Going up in the order removes an A-letter or inserts a marker.

``shuffle_lattice`` works on arrays.  A word's int64 code is amask | bmask << a | pos << (a + b): bit i - 2 of amask
for A-letter i, bit j - 1 of bmask for marker -j, bit q of pos where position q holds a marker.  Its row of letters
is padded with -(b + 1), below every letter, so one ``np.lexsort`` of the rows after the rank orders the ids by
rank, then by the word as a tuple.  The words, their index and the rendered labels are made when first read.

The core label order of a triword lattice (``lattice.clo``) is again a lattice, Shuf(n - 1, 1) under the
letter-by-letter bijection ``sigma``; ``sigma_codes`` maps the codes of ``build_hoch`` in one array expression.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial
from operator import index

import numpy as np

from .errors import InvariantViolated, MalformedWord
from .hochschild import l1
from .lattice import as_lattice, clo  # noqa: F401  (clo is re-exported: perfbench traces it as shuffles:clo)
from .limits import MAX_ELEMENTS, check_elements, check_n, check_range
from .polynomials import interpolate_univariate
from .poset import FinitePoset


def shuffle_count(a, b):
    return sum(comb(a, k) * comb(b, m) * comb(k + m, k) for k in range(a + 1) for m in range(b + 1))


def render_word(w, ascii_mode=False):
    one = "1*" if ascii_mode else "\U0001d7d9"
    parts = [str(x) if x > 0 else one if x == -1 else f"{one}{-x}" for x in w]
    if not parts:
        return "eps" if ascii_mode else "ε"
    return (" " if any(len(p) > 1 for p in parts) else "").join(parts)


class ShuffleLattice:
    """Lattice of shuffle words: the read-only ``codes`` and padded ``letters`` by id, decoded to words when read."""

    def __init__(self, lattice, codes, letters, a, b):
        self.lattice, self.codes, self.letters, self.a, self.b = lattice, codes, letters, a, b

    @cached_property
    def words(self):
        return tuple(tuple(x for x in row if x >= -self.b) for row in self.letters.tolist())

    @cached_property
    def index(self):
        return {w: i for i, w in enumerate(self.words)}

    def id_of(self, w):
        return self.index[w]

    def find(self, codes):
        """The id of each code in an int64 array, -1 for a code no word has (``searchsorted`` in the sorted codes)."""
        order = np.argsort(self.codes)
        at = order[np.searchsorted(self.codes, codes, sorter=order) % len(order)]
        return np.where(self.codes[at] == codes, at, -1)

    def __repr__(self):
        return f"ShuffleLattice(a={self.a}, b={self.b}, elements={len(self.codes)})"


@lru_cache(maxsize=None)
def shuffle_lattice(a, b):
    """Shuf(a, b), built once per (a, b); later calls return the same object.  The words grow a letter at a time,
    as each prefix of a word is a word: each word of length q takes, at position q, each letter above its last
    of that kind, in one array pass.  A cover drops the A-letter at some position (one pass over them all) or
    puts marker -j at a slot q after the markers below j and before the others (one pass a marker)."""
    check_range("a", a, 0)
    check_range("b", b, 0)
    check_range("a + b", a + b, 0, MAX_ELEMENTS.bit_length() - 1)  # shuffle_count(a, b) >= 2**(a + b)
    check_elements("shuffle lattice", shuffle_count(a, b))
    k, pad, bits = a + b, -(b + 1), np.arange(a + b)
    letter = np.where(bits < a, bits + 2, a - 1 - bits).astype(np.int8)  # bit x: the A-letter x + 2, or a marker
    kind = np.where(bits < a, (1 << a) - 1, (1 << k) - 1)  # bit x is barred by a bit of its kind from x up
    codes, rows = [np.zeros(1, dtype=np.int64)], [np.full((1, k), pad, dtype=np.int8)]
    for q in range(k):
        i, x = np.nonzero((codes[-1][:, None] & kind) >> bits == 0)
        codes.append(codes[-1][i] | 1 << x | np.where(x < a, 0, 1 << k + q))
        rows.append(rows[-1][i])
        rows[-1][:, q] = letter[x]
    codes, rows = np.concatenate(codes), np.concatenate(rows)
    if len(codes) != shuffle_count(a, b):
        raise InvariantViolated(f"the enumeration reaches {len(codes)} words, not {shuffle_count(a, b)}")
    length = (rows > pad).sum(1)
    order = np.lexsort([*rows.T[::-1], a + length - 2 * (rows > 0).sum(1)])  # by rank, then letter by letter
    codes, rows, length = codes[order], rows[order], length[order]
    i, q = np.nonzero(rows > 0)
    lows, ups = [i], [codes[i] & (1 << k + q) - 1 & ~(np.int64(1) << rows[i, q] - 2) | codes[i] >> k + q + 1 << k + q]
    before = np.cumsum(np.pad((rows < 0) & (rows > pad), ((0, 0), (1, 0))), axis=1)  # markers before each slot
    for j in range(1, b + 1):
        below = ((rows < 0) & (rows > -j)).sum(1)
        i, q = np.nonzero((codes >> a + j - 1 & 1 == 0)[:, None] & (before == below[:, None]) & (np.arange(k + 1) <= length[:, None]))
        lows.append(i)
        ups.append(codes[i] & (1 << k + q) - 1 | codes[i] >> k + q << k + q + 1 | 1 << k + q | 1 << a + j - 1)
    codes.flags.writeable = rows.flags.writeable = False
    sl = ShuffleLattice(None, codes, rows, a, b)  # its words render the labels, if they are read
    covers = np.stack([np.concatenate(lows), sl.find(np.concatenate(ups))], axis=1)
    sl.lattice = as_lattice(FinitePoset.closure(covers, len(codes), lambda: [render_word(w) for w in sl.words]))
    return sl


def shuffle_stats(n):
    """Brute-force chain count, zeta coefficients, and Mobius value."""
    check_n(n)
    lat = shuffle_lattice(n - 1, 1)
    poset = lat.lattice.poset
    return {
        "maximal_chains": poset.count_maximal_chains(),
        "zeta_coefficients": interpolate_univariate(poset.zeta_points()),
        "mobius": poset.mobius(poset.bottom(), poset.top()),
    }


def shuffle_stats_closed(n):
    """The same quantities from the closed formulas."""
    check_n(n)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(n + 1, 2)
    coeffs[n - 1] += Fraction(-(n - 1), 2)
    return {
        "maximal_chains": factorial(n + 1) // 2,
        "zeta_coefficients": [int(c) if c.denominator == 1 else c for c in coeffs],
        "mobius": (-1) ** n * n,
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


def sigma_codes(codes, n):
    """``sigma`` on the triword codes ge1 | eq2 << n of ``build_hoch``, all at once: the codes of their
    words in Shuf(n - 1, 1).  The A-letters are the positions 2..n holding no 2, ``~eq2 >> 1``; the marker
    is there iff some letter is 1 (``ge1 & ~eq2``), after the A-letters up to the last 1, which are the 1s
    past position 1: their count, read off the unpacked bits, is the marker's position."""
    eq, ones = codes >> n, codes & ~(codes >> n) & (1 << n) - 1
    at = np.unpackbits((ones >> 1).view(np.uint8)).reshape(len(codes), -1).sum(axis=1, dtype=np.int64)
    return ~eq >> 1 & (1 << n - 1) - 1 | np.minimum(ones, 1) * (1 << n - 1 | 1 << n + at)
