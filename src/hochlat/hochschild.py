"""Triwords and the lattices they form.

A triword of length n is a word over {0, 1, 2} whose first letter is not 2
and in which no 1 appears after a 0.  Under the componentwise order these
words form a lattice: joins are componentwise maxima, meets are
componentwise minima with every 1 that lands after a 0 lowered to 0.

Two builders are provided: ``build_hoch`` (direct, covers generated by the
one-position-change rule) and ``build_hoch_by_doubling`` (interval doublings
from the singleton, replayed on cover arrays and closed once, which certify
congruence uniformity).  The closed-form combinatorics of the lattice lives
here too: canonical join representations, the nucleus, core label sets, and
the inverse of the core labeling.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import MalformedLabelSet
from .lattice import as_lattice
from .limits import MAX_N, check_n
from .poset import FinitePoset, _double, _reach


def is_triword(u):
    if any(x not in (0, 1, 2) for x in u):
        return False
    if u and u[0] == 2:
        return False
    seen_zero = False
    for x in u:
        if x == 0:
            seen_zero = True
        elif x == 1 and seen_zero:
            return False
    return True


@lru_cache(maxsize=None)
def enumerate_triwords(n):
    """All triwords of length n in lexicographic order, grown a letter at a time in ascending order:
    0 or 1 first, 0 or 2 once the word holds a 0, and 0, 1 or 2 otherwise.  The levels are chained
    generators, so only the words of length n are ever held together, no shorter prefixes."""
    check_n(n)
    words = [()]
    for _ in range(n):
        words = (u + (x,) for u in words for x in ((0, 2) if 0 in u else (0, 1, 2) if u else (0, 1)))
    return tuple(words)


def triword_count(n):
    """Closed count 2^(n-2) (n+3); for n = 1 that is 2."""
    check_n(n)
    return (n + 3) << (n - 2) if n >= 2 else 2


def l1(u):
    """Position of the last 1 (1-based), 0 if none."""
    return len(u) - u[::-1].index(1) if 1 in u else 0


def f0(u):
    """Position of the first 0 (1-based), n+1 if none."""
    return u.index(0) + 1 if 0 in u else len(u) + 1


def hoch_join(u, v):
    """Componentwise maximum (always again a triword)."""
    return tuple(max(a, b) for a, b in zip(u, v))


def hoch_meet(u, v):
    """Componentwise minimum, then every 1 sitting after a 0 drops to 0."""
    w = [min(a, b) for a, b in zip(u, v)]
    seen_zero = False
    for i, x in enumerate(w):
        if x == 0:
            seen_zero = True
        elif x == 1 and seen_zero:
            w[i] = 0
    return tuple(w)


def hoch_meet_code(x, y, n):
    """hoch_meet on codes (ints or int64 arrays; broadcasts): >= 1 where both words are, up to the
    first letter either has at 0, and = 2 wherever both are 2.  The join is ``x | y``."""
    ge, eq = x & y & ((1 << n) - 1), (x & y) >> n
    return ge & ~(ge + 1) | eq | eq << n


def format_triword(u):
    return "(" + ",".join(str(x) for x in u) + ")"


def parse_triword(text):
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    u = tuple(int(part) for part in body.split(",") if part.strip() != "")
    if not is_triword(u):
        raise ValueError(f"not a triword: {text!r}")
    return u


# -- irreducibles ----------------------------------------------------------


@dataclass(frozen=True, order=True)
class HochIrreducible:
    """A join-irreducible triword: kind 'a' (prefix of 1s) or 'b' (single 2), its index an int by operator.index."""

    kind: str
    index: int

    def __post_init__(self):
        i = operator.index(self.index) if hasattr(type(self.index), "__index__") else 0
        if self.kind not in ("a", "b") or i < 1 + (self.kind == "b"):
            raise ValueError(f"no irreducible {self.kind}{self.index!r}")
        object.__setattr__(self, "index", i)

    def triword(self, n):
        if self.index > n:
            raise ValueError(f"{self} has no triword of length {n}")
        if self.kind == "a":
            return (1,) * self.index + (0,) * (n - self.index)
        return tuple(2 if i == self.index else 0 for i in range(1, n + 1))

    def __str__(self):
        return f"{self.kind}{self.index}"


@lru_cache(maxsize=None)
def a_irr(i):
    return HochIrreducible("a", i)


@lru_cache(maxsize=None)
def b_irr(i):
    return HochIrreducible("b", i)


@lru_cache(maxsize=None)
def _irr(n):
    """The a-runs ``runs[l][f]`` = {a_l .. a_(f-1)} (empty for l = 0 or l >= f; l, f <= n + 1) and the sets
    {b2}..{bn} that label sets of length n unite; a union copies their hashes, so no label is rehashed."""
    a = [a_irr(i) for i in range(1, n + 1)]
    runs = tuple(tuple(frozenset(a[l - 1 : f - 1] if l else ()) for f in range(n + 2)) for l in range(n + 2))
    return runs, tuple(frozenset({b_irr(j)}) for j in range(2, n + 1))


def irreducibles(n):
    """The 2n - 1 join-irreducible labels a1..an, b2..bn."""
    return [a_irr(i) for i in range(1, n + 1)] + [b_irr(i) for i in range(2, n + 1)]


# -- lattice builders -------------------------------------------------------


class HochLattice:
    """Lattice of triwords plus the id <-> triword decoding; ``codes`` holds one read-only int64
    ``ge1 | eq2 << n`` per element, bit i - 1 of ge1 (eq2) set where letter i is >= 1 (= 2)."""

    def __init__(self, lattice, triwords, codes):
        self.lattice, self.triwords, self.codes = lattice, tuple(triwords), codes

    @cached_property
    def index(self):
        return {u: i for i, u in enumerate(self.triwords)}

    def triword(self, a):
        return self.triwords[a]

    def id_of(self, u):
        return self.index[u]

    def __repr__(self):
        return f"HochLattice(n={len(self.triwords[0])}, elements={len(self.triwords)})"


@lru_cache(maxsize=None)
def build_hoch(n):
    """The triword lattice of length n on lexicographic ids, which order the base-3 keys.  A lower
    cover lowers the last 1 to 0, or a 2 at position i to 1 before the first 0 and to 0 after it:
    3**(n-i) or 2 * 3**(n-i) off the key, whose id ``searchsorted`` finds.  The labels are the
    ``format_triword`` strings, written as one (m x 2n+1) byte array when first read; the codes
    ``ge1 | eq2 << n`` are two products of the letter tests with the bit weights."""
    check_n(n)
    words = enumerate_triwords(n)
    w = np.array(words, dtype=np.uint8).reshape(len(words), n)
    bits = 1 << np.arange(n, dtype=np.int64)
    codes = (w >= 1) @ bits | ((w == 2) @ bits) << n
    codes.flags.writeable = False
    place = 3 ** np.arange(n - 1, -1, -1)
    key = w @ place
    ones = np.flatnonzero((w == 1).any(axis=1))
    last1 = n - 1 - np.argmax(w[ones, ::-1] == 1, axis=1)
    twos, at = np.nonzero(w == 2)
    drop = np.where(np.logical_or.accumulate(w == 0, axis=1)[twos, at], 2, 1)  # 2 -> 0 after the first 0
    ups = np.concatenate([ones, twos])
    lows = np.searchsorted(key, key[ups] - np.concatenate([place[last1], drop * place[at]]))
    def labels():
        text = np.full((len(words), 2 * n + 1), ord(","), dtype=np.uint8)
        text[:, 0], text[:, -1], text[:, 1::2] = ord("("), ord(")"), w + ord("0")
        return text.view(f"S{2 * n + 1}").ravel().astype(str).tolist()
    poset = FinitePoset.closure(np.stack([lows, ups], axis=1), len(words), labels)
    return HochLattice(as_lattice(poset), words, codes)


def build_hoch_by_doubling(n):
    """Rebuild the triword order by iterated interval doublings, as a poset labelled by its
    triwords.  From the singleton, each step appends 0 to every word and doubles by the whole
    lattice, flipping the new copy's last letter to 1 at the first step and to 2 after it; every
    later step then doubles by the interval of words with a unique 0, in last position (flip to 1).
    The steps run on covers and words alone, an interval's down-set of hi and up-set of lo reached
    along the covers; one ``FinitePoset.closure`` builds the order and rejects any non-cover."""
    check_n(n)
    words, covers = np.zeros((1, 0), dtype=np.uint8), np.zeros((0, 2), dtype=np.int64)
    for step in range(1, n + 1):
        words = np.pad(words, ((0, 0), (0, 1)))  # append 0 to every word
        for bounds in [None] + [((1,) * (step - 1) + (0,), (1,) + (2,) * (step - 2) + (0,))] * (step > 1):
            low = high = np.ones(len(words), dtype=bool)  # the whole lattice needs no order
            if bounds:
                lo, hi = (int(np.argmax((words == u).all(axis=1))) for u in bounds)
                low = _reach(covers[:, 1], covers[:, 0], hi, len(words))
                high = ~low | _reach(covers[:, 0], covers[:, 1], lo, len(words))
            ids, copies, covers = _double(covers[:, 0], covers[:, 1], low, high)
            words = words[ids]
            words[(copies == 1) & low[ids], -1] = 1 if bounds or step == 1 else 2  # the new copy of [lo, hi]
    return FinitePoset.closure(covers, len(words), labels=[tuple(u) for u in words.tolist()])


# -- closed-form combinatorics ----------------------------------------------


def irreducible_of_triword(u):
    """The HochIrreducible a triword represents, or None if reducible."""
    twos = [i for i, x in enumerate(u, start=1) if x == 2]
    ones = [i for i, x in enumerate(u, start=1) if x == 1]
    if len(twos) == 1 and not ones:
        return b_irr(twos[0])
    if not twos and ones == list(range(1, len(ones) + 1)) and ones:
        return a_irr(len(ones))
    return None


def cover_label_formula(u, v):
    """Join-irreducible labeling a cover: the single raised position decides."""
    for i, (x, y) in enumerate(zip(u, v), start=1):
        if x != y:
            return a_irr(i) if y == 1 else b_irr(i)
    raise ValueError(f"{u} -> {v} is not a cover")


def _labels(u, last1, first0):
    """a_last1 .. a_(first0 - 1), none when last1 is 0, and b_i for each 2 at a position i of u: the a-run of
    ``_irr`` joined with its one-label b sets, built directly past MAX_N.  ValueError for a 2 at position 1."""
    if 2 in u[:1]:
        raise ValueError("no irreducible b1")
    if len(u) > MAX_N:
        return frozenset([a_irr(i) for i in range(last1, first0) if last1] + [b_irr(i) for i, x in enumerate(u, 1) if x == 2])
    runs, b = _irr(len(u))
    parts, i = [], 0
    for _ in range(u.count(2)):
        i = u.index(2, i) + 1
        parts.append(b[i - 2])
    return runs[last1][first0].union(*parts)


def canrep_formula(u):
    """Canonical join representation read off the word directly."""
    last1 = l1(u)
    return _labels(u, last1, last1 + 1)


def nucleus_formula(u):
    """Meet of u with all its lower covers, in closed form."""
    last1 = l1(u)
    w = []
    for i, x in enumerate(u, start=1):
        if i == last1:
            w.append(x - 1)
        elif x == 2 and i < last1:
            w.append(1)
        elif x == 2 and i > last1:
            w.append(0)
        else:
            w.append(x)
    return tuple(w)


def core_labels_formula(u):
    """Core label set: a-run from the last 1 up to the first 0, plus all b's."""
    return _labels(u, l1(u), f0(u))


def psi_inverse(n, labels):
    """The unique triword whose core label set is ``labels``, checked in the pass that builds it.

    The pass puts a 2 at each b and counts the a labels with their least index, the last 1, and largest, ``top``;
    1s fill the places before the last 1 that hold no 2.  So u is a triword, its b labels are right, l1(u) is the
    last 1 and its a-run is a_last1 .. a_(first0 - 1), first0 = f0(u) the first 0 after it or n + 1: the distinct
    a labels, none below the last 1, are that run iff none reaches first0 and there are first0 - last1 of them.
    Raises MalformedLabelSet for a non-label, an index outside 1..n, an a-run that begins on a 2, or a set no word has.
    """
    check_n(n)
    try:
        labels = frozenset(labels)
    except TypeError:  # not iterable, or an unhashable member
        raise MalformedLabelSet("labels must be an iterable of hashable labels") from None
    w, last1, top, count = [0] * n, n + 1, 0, 0
    for j in labels:
        if not isinstance(j, HochIrreducible):
            raise MalformedLabelSet(f"{j!r} is not a label")
        kind, i = j.kind, j.index
        if not 1 <= i <= n:
            raise MalformedLabelSet(f"label index out of range for n={n}")
        if kind == "b":
            w[i - 1] = 2
        else:
            count, last1, top = count + 1, i if i < last1 else last1, i if i > top else top
    if count:
        if w[last1 - 1]:
            raise MalformedLabelSet("a-run begins on an occupied position")
        w[:last1] = [x or 1 for x in w[:last1]]
        first0 = (w + [0]).index(0, last1) + 1
        if top >= first0 or count != first0 - last1:
            raise MalformedLabelSet(f"no triword has core label set {sorted(labels)}")
    return tuple(w)
