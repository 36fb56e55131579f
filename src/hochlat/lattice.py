"""Finite lattices: joins and meets looked up by irreducible masks, plus the order-theoretic toolkit.

A :class:`Lattice` wraps a bounded :class:`~hochlat.poset.FinitePoset` and keeps, for each side, the masks of
the irreducibles below (or above) every element, sorted, found by the poset's bit test ``le``; this module
reads no packed up-rows itself.  ``as_lattice`` certifies the join-irreducible side: the masks embed the order
iff each element with two lower covers is their join (Davey and Priestley 2.41 and its converse), which the
join test ``FinitePoset._lower_covers_join`` decides on the rows, and m x k' lookups meet them with the k'
meet-irreducibles' masks in masks; a failing test names the pair with no join or meet that NotALattice carries.
The meet of a and b is then the element with mask M(a) & M(b), by ``searchsorted`` for rows and a dict for
single pairs.  No m x m table is stored.  On top of that live the irreducibles and one core-label layer, each
computed once per lattice from the same masks: the cover labels in one array (they exist iff the lattice is
semidistributive), canonical join representations and core label sets as bitmasks over the join-irreducibles
(``psi_map``), and the core label order of those sets by inclusion (``clo``), whose generators ``_closed`` meets."""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import CycleDetected, InvariantViolated, NoUniqueMin, NotALattice, NotBounded, NotSemidistributive
from .limits import MAX_ELEMENTS, check_range
from .poset import FinitePoset


class _Masks:
    """One side of a lattice, from its poset and the lower and upper ends of its covers: ``irr``, {j: j_*}
    ascending in j, holds the join-irreducibles (each the upper end of one cover alone), and M(x) the
    mask of those below x, bit i for the i-th (int64 below 64 of them, else Python ints): ``masks`` by
    element, ``values`` sorted, ``order`` (int32) from sorted position to element, so that ``find``
    answers meets.  On the ``dual`` order, ends swapped, the meet-irreducibles answer joins."""

    def __init__(self, p, lows, ups, dual=False):
        once = np.bincount(ups, minlength=p.n)[ups] == 1  # the covers alone below their upper end
        self.irr = dict(sorted(zip(ups[once].tolist(), lows[once].tolist())))
        masks = np.zeros(p.n, dtype=np.int64 if len(self.irr) < 64 else object)
        x, j = np.arange(p.n), np.array(list(self.irr), dtype=np.int64)[:, None]
        for i, row in enumerate(p.le(x, j) if dual else p.le(j, x)):  # bit tests on p's up-rows: columns or rows j
            masks |= row.astype(masks.dtype) << i
        order = np.argsort(masks, kind="stable")
        self.masks, self.values, self.order = masks, masks[order], order.astype(np.int32)

    def find(self, sub):
        return self.order[np.searchsorted(self.values, sub)]

    @cached_property
    def _element(self):  # the masks as Python ints, and {mask: element} with -1 (all bits) for the top
        masks = self.masks.tolist()
        return masks, {**dict(zip(masks, range(len(masks)))), -1: int(self.order[-1])}

    def find_and(self, elems):
        """The element whose mask is the AND over elems; the full mask's, the top's, when there is none."""
        (masks, element), sub = self._element, -1
        for a in elems:
            sub &= masks[a]
        return element[sub]


def _closed(values, gens):
    """The first (i, k), k least, with values[i] & gens[k] no mask among the sorted values, about
    2**16 pairs a pass; None when each is one (see ``_certify``).  Each is a subset of a mask, so in range."""
    step = max(1, 2**16 // max(len(values), 1))
    for s in range(0, len(gens), step):
        sub = values & gens[s : s + step, None]
        if (missed := values[np.searchsorted(values, sub)] != sub).any():
            k, i = np.unravel_index(np.argmax(missed), missed.shape)
            return int(i), s + int(k)
    return None


def _certify(p, side, tops):
    """NotALattice with a witness pair unless the bounded order p is a lattice.  Every element of a
    finite lattice is the join of the join-irreducibles below it (Davey and Priestley, Introduction
    to Lattices and Order, 2.41), so p is a lattice iff on its join-irreducible side x <= y exactly
    when M(x) is a subset of M(y) and the masks are closed under intersection.  The embedding holds
    iff each x with lower covers b, c, ... is b v c (``FinitePoset._lower_covers_join``): in a lattice, as b < b v c
    <= x and b is covered by x; conversely, by induction up(x) = {y : M(x) in M(y)} for the bottom,
    each join-irreducible and each b v c.  Given it, M(x) & M(g) must be a mask for every x and each
    meet-irreducible g in ``tops``, and that is enough (``_closed``).  This lookup lemma holds for any
    finite family of sets with a top, ordered by inclusion: top down, a y with upper covers c != d has
    M(d) an intersection of such M(g), so M(c) & M(g) & ... ends in a mask M(z) with y <= z < c, that
    is M(y) = M(z).  So every mask is an intersection of M(g)s, and M(x) & M(y) is reached one g at a time.

    Each failing test names its witness:

    - (b, c), the first two lower covers of the least x that is not b v c.  They are incomparable, so
      a join of b and c would lie above b and at or below x, so it would be x; but some upper bound
      of b and c is not above x.
    - (x, g) when M(x) & M(g) is no mask, the embedding given: a meet of x and g would have that mask.
    """
    if (pair := p._lower_covers_join()) is not None:
        raise NotALattice(f"pair {pair} has no join", pair=pair)
    if (miss := _closed(side.values, side.masks[tops])) is not None:
        pair = int(side.order[miss[0]]), tops[miss[1]]
        raise NotALattice(f"pair {pair} has no meet", pair=pair)


def _cover_labels(side, lows, ups):
    """Label each cover (a, b) = (lows[i], ups[i]) by the least join-irreducible in M(b) - M(a):
    (labels, None), labels[i] that of the i-th cover in an int64 array, or (None, (a, b)) at the first cover
    given with none.  It is the least x with a v x = b when either exists: each j in M(b) - M(a)
    joins a up to b, and each such x lies above one.  Every cover has a label iff the lattice is
    join-semidistributive (Barnard, arXiv:1610.05137); on the meet side, with the ends swapped, iff
    it is meet-semidistributive.  One numpy pass per irreducible j, which is minimal in M(b) - M(a)
    when M(j) meets it in j alone; a unique minimal one is least."""
    new = side.masks[ups] & ~side.masks[lows]
    labels, minima = np.full(len(lows), -1, dtype=np.int64), np.zeros(len(lows), dtype=np.int64)
    for i, j in enumerate(side.irr):
        hit = new & side.masks[j] == 1 << i  # j is minimal in M(b) - M(a)
        labels[hit] = j
        minima += hit
    if len(bad := np.flatnonzero(minima != 1)):
        return None, (int(lows[bad[0]]), int(ups[bad[0]]))
    return labels, None


class Lattice:
    """A finite lattice that looks its meets up by the join-irreducible masks ``_lower`` and its
    joins by the meet-irreducible masks ``_upper``."""

    def __init__(self, poset, lower, upper, bottom, top):
        self.poset = poset
        self._lower, self._upper = lower, upper
        self.bottom, self.top = bottom, top

    @property
    def n(self):
        return self.poset.n

    @property
    def covers(self):
        return self.poset.covers

    def join(self, a):
        """a v x for every element x, as an int32 row."""
        return self._upper.find(self._upper.masks[a] & self._upper.masks)

    def meet(self, a):
        """a ^ x for every element x, as an int32 row."""
        return self._lower.find(self._lower.masks[a] & self._lower.masks)

    def join_of(self, a, b):
        return self._upper.find_and((a, b))

    def meet_of(self, a, b):
        return self._lower.find_and((a, b))

    def join_all(self, elems):
        return self._upper.find_and(elems)

    def meet_all(self, elems):
        return self._lower.find_and(elems)

    # -- irreducibles -----------------------------------------------------

    def join_irreducibles(self):
        """Elements with exactly one lower cover, ascending by id."""
        return sorted(self._lower.irr)

    def j_star(self, j):
        """The unique lower cover of a join-irreducible element."""
        return self._lower.irr[j]

    def meet_irreducibles(self):
        return sorted(self._upper.irr)

    def atoms(self):
        return sorted(self.poset.upper_covers(self.bottom))

    @cached_property
    def _join_labels(self):
        return _cover_labels(self._lower, *self.poset._ends)

    @cached_property
    def _meet_labels(self):
        return _cover_labels(self._upper, *self.poset._ends[::-1])

    @cached_property
    def _canonical(self):
        """Canonical join masks in ``psi_map``'s bit order: a's ORs the bits of its lower covers' labels
        (Barnard, arXiv:1610.05137), by one ``bitwise_or.at`` onto the covers' upper ends."""
        bits = np.searchsorted(list(self._lower.irr), _jsd_labels(self)).astype(self._lower.masks.dtype)
        np.bitwise_or.at(rep := np.zeros_like(self._lower.masks), self.poset._ends[1], np.ones_like(bits) << bits)
        rep.setflags(write=False)
        return rep

    @cached_property
    def _psi(self):
        """Core label masks: j = join_irreducibles()[i] is in the core label set of a iff j <= a and
        j is not below nucleus(a) v j_*, nucleus(a) being the meet of a with its lower covers (in a
        join-semidistributive lattice a cover b < c has label j iff j <= c, j_* <= b, j not <= b)."""
        _jsd_labels(self)  # NoUniqueMin unless join-semidistributive
        masks, up = self._lower.masks, self._upper.masks
        lows, ups = self.poset._ends
        core = masks.copy()
        np.bitwise_and.at(core, ups, masks[lows])  # M(nucleus(a)): M(a) & M(b) over a's lower covers b
        nucleus_up = up[self._lower.find(core)]
        covered = np.zeros_like(masks)
        for i, j in enumerate(self.join_irreducibles()):
            joined = self._upper.find(nucleus_up & up[self.j_star(j)])
            covered |= self.poset.le(j, joined).astype(masks.dtype) << i
        psi = masks & ~covered
        psi.setflags(write=False)
        return psi

    @cached_property
    def _clo(self):
        """The elements on the same ids ordered by inclusion of their ``_psi`` masks, which ``from_masks`` packs;
        it takes the labels as the poset was given them, so labels made when read stay unmade."""
        if not is_semidistributive(self):
            raise NotSemidistributive("core label order needs a semidistributive lattice")
        try:  # from_masks rejects a repeated mask
            return FinitePoset.from_masks(self._psi, labels=self.poset._labels)
        except CycleDetected:
            raise InvariantViolated("two elements share a core label set") from None

    def __repr__(self):
        return f"Lattice(n={self.n}, covers={len(self.covers)})"


def as_lattice(p):
    """The lattice of a poset, with the irreducible masks that answer its joins and meets; NotALattice
    with a witness pair when the poset is no lattice, and NotBounded when it is empty."""
    mins, maxs = p.minimal_elements(), p.maximal_elements()
    if not mins:
        raise NotBounded("poset has 0 minimal elements")
    for ends, side in ((mins, "lower"), (maxs, "upper")):
        if len(ends) > 1:
            raise NotALattice(f"pair ({ends[0]}, {ends[1]}) has no {side} bound", pair=(ends[0], ends[1]))
    lower, upper = _Masks(p, *p._ends), _Masks(p, *p._ends[::-1], dual=True)
    _certify(p, lower, list(upper.irr))
    return Lattice(p, lower, upper, mins[0], maxs[0])


def is_extremal(lat):
    """Both irreducible counts equal the length of a longest chain."""
    k = lat.poset.length()
    return len(lat.join_irreducibles()) == k and len(lat.meet_irreducibles()) == k


def is_join_semidistributive(lat):
    """a v b = a v c implies a v (b ^ c) = a v b; decided by the cover labels."""
    return lat._join_labels[0] is not None


def is_meet_semidistributive(lat):
    """The dual law, decided by the cover labels of the dual lattice."""
    return lat._meet_labels[0] is not None


def is_semidistributive(lat):
    return is_join_semidistributive(lat) and is_meet_semidistributive(lat)


def is_spherical(lat):
    """Whether the atoms join to the top; requires semidistributivity.

    Cross-checks the Mobius invariant: in a semidistributive lattice it lies
    in {-1, 0, 1} and vanishes exactly when the atom join stays below the top.
    """
    if not is_semidistributive(lat):
        raise NotSemidistributive("sphericity test is only meaningful here for semidistributive lattices")
    result = lat.join_all(lat.atoms()) == lat.top
    mu = lat.poset.mobius(lat.bottom, lat.top)
    if mu not in (-1, 0, 1) or (mu != 0) != result:
        raise InvariantViolated(f"mu(bottom, top) = {mu} contradicts atoms-join-to-top = {result}")
    return result


def _jsd_labels(lat):
    """The cover labels in the order of ``poset._ends``; NoUniqueMin unless join-semidistributive."""
    labels, bad = lat._join_labels
    if bad is not None:
        raise NoUniqueMin(f"cover ({bad[0]}, {bad[1]}) has no unique minimal join complement")
    return labels


def jsd_labeling(lat):
    """The cover labeling {(a, b): c} of a join-semidistributive lattice: c is the
    minimum element with a v c = b, always join-irreducible."""
    return dict(zip(lat.covers, _jsd_labels(lat).tolist()))


def canonical_joinrep(lat, a):
    """Canonical join representation: the labels of the lower covers of a, decoded from its mask."""
    mask = int(lat._canonical[a])
    return frozenset(j for i, j in enumerate(lat._lower.irr) if mask >> i & 1)


def psi_map(lat):
    """Core label sets as a read-only array of masks by element id, bit i standing for
    join_irreducibles()[i]: int64 below 64 of them, Python ints from 64 on."""
    return lat._psi


def clo(lat):
    """The core label order of a semidistributive lattice, built once per lattice and freed with it."""
    return lat._clo


def has_intersection_property(lat):
    """Whether core label sets are closed under intersection; needs semidistributivity.  By the lookup
    lemma of ``_certify`` on the family ordered by inclusion (the core label order) with the union U of
    all adjoined on top: its meet-irreducibles are the elements with one upper cover and, when there
    are several, the maximal ones.  A unique maximal element is U itself, and A & U = A."""
    psi = psi_map(lat)
    gens = np.bincount(clo(lat)._ends[0], minlength=lat.n) < 2  # at most one upper cover
    return _closed(np.sort(psi), psi[gens]) is None


@lru_cache(maxsize=None)
def build_bool(n):
    """The subset lattice of {1..n} on bitmask ids, built once per n; later calls return the same object."""
    check_range("n", n, 0, MAX_ELEMENTS.bit_length() - 1)  # 2**n <= MAX_ELEMENTS exactly then
    s, i = np.divmod(np.arange(n << n), n)  # every set s with every element i; s < s | {i} when i is not in s
    covers = np.stack([s, s | 1 << i], axis=1)[(s >> i & 1) == 0]
    labels = [
        "{" + ",".join(str(i + 1) for i in range(n) if s >> i & 1) + "}" for s in range(1 << n)
    ]
    return as_lattice(FinitePoset.closure(covers, 1 << n, labels=labels))
