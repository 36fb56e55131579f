"""Finite lattices: eager join/meet tables plus the order-theoretic toolkit.

A :class:`Lattice` wraps a bounded :class:`~hochlat.poset.FinitePoset` and
materializes both m x m bound tables up front.  ``as_lattice`` certifies them
in O(m^2) by irreducible masks: each element's set of join-irreducibles below
it must embed the order and be closed under intersection, and the meet is the
element with the intersected mask (dually for the join).  Otherwise it raises
NotALattice with a witness pair that has no join or no meet.

On top of that live the irreducibles and one core-label layer, each part computed once
per lattice from the same irreducible masks: the cover labels (they exist iff the lattice
is semidistributive), canonical join representations, and core label sets as bitmasks over
the join-irreducibles (``psi_map``)."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InvariantViolated, NoUniqueMin, NotALattice, NotSemidistributive
from .limits import check_elements, check_range
from .poset import FinitePoset


def _irr_masks(leq, irrs):
    """M(x) by element x, bit i set iff irrs[i] <= x; int64 below 64 irreducibles, else Python ints."""
    masks = np.zeros(len(leq), dtype=np.int64 if len(irrs) < 64 else object)
    for i, j in enumerate(irrs):
        masks |= leq[j].astype(masks.dtype) << i
    return masks


def _meet_table(leq, topo, lower_covers):
    """The meet table of a bounded order, certified by join-irreducible masks; NotALattice
    with a witness pair when some pair has no meet (or, failing first, no join).

    M(x) is the set of join-irreducibles j <= x (elements with one lower cover).  Every
    element of a finite lattice is the join of the join-irreducibles below it (Davey and
    Priestley, Introduction to Lattices and Order, 2.41), so a bounded order is a lattice
    iff x <= y exactly when M(x) is a subset of M(y), and the masks are closed under
    intersection; then M(a ^ b) = M(a) & M(b), looked up among the sorted masks.  Rows
    a are checked for both in topological order, a block of rows per numpy pass, and the
    first failing row gives:

    - (b, c), the first two lower covers of a, when the embedding fails first at a.  a is
      not the bottom (M = 0) and not join-irreducible (a is in M(a)), so it has two lower
      covers; they precede a, so all lie below some y with M(a) in M(y) and not a <= y.  A
      join of b and c would lie below both a and y, so it would be a, and a <= y.
    - (a, b) when M(a) & M(b) is no mask: a meet of a and b would have that mask.

    On the dual order the same routine gives the join table (join and meet swapped above).
    """
    masks = _irr_masks(leq, [a for a, below in enumerate(lower_covers) if len(below) == 1])
    order = np.argsort(masks, kind="stable")
    values = masks[order]
    table = np.empty(leq.shape, dtype=np.int32)
    step = max(1, 2**16 // max(len(leq), 1))  # rows per numpy pass: about 2**16 table entries
    for start in range(0, len(topo), step):
        rows = np.asarray(topo[start : start + step])
        sub = masks[rows, None] & masks
        pos = np.searchsorted(values, sub)  # sub <= masks[rows], so pos stays in range
        embeds = ((sub == masks[rows, None]) == leq[rows]).all(axis=1)
        misses = values[pos] != sub
        bad = ~embeds | misses.any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            a = int(rows[i])
            if not embeds[i]:
                b, c = lower_covers[a][:2]
                raise NotALattice(f"pair ({b}, {c}) has no join", pair=(b, c))
            b = int(np.argmax(misses[i]))
            raise NotALattice(f"pair ({a}, {b}) has no meet", pair=(a, b))
        table[rows] = order[pos]
    return table


def _single_covers(n, covers_of):
    """{a: c} for each element a whose covers_of(a) is the single element c."""
    return {a: cs[0] for a in range(n) if len(cs := covers_of(a)) == 1}


def _cover_labels(leq, irrs, covers):
    """Label each cover (a, b) by the least join-irreducible in M(b) - M(a): (labels, None), or
    (None, (a, b)) at the first cover given with none.  It is the least x with a v x = b when either
    exists: each j in M(b) - M(a) joins a up to b, and each such x lies above one.  Every cover has
    a label iff the lattice is join-semidistributive (Barnard, arXiv:1610.05137); on the dual order
    with the meet-irreducibles, iff it is meet-semidistributive.  One numpy pass per irreducible i:
    bit i is set and every other set bit lies above irrs[i]."""
    masks, up = _irr_masks(leq, irrs), _irr_masks(leq.T, irrs)[irrs]
    lows, ups = np.array(covers, dtype=np.int64).reshape(-1, 2).T
    new = masks[ups] & ~masks[lows]
    labels = np.full(len(covers), -1, dtype=np.int64)
    for i, j in enumerate(irrs):
        labels[(new >> i & 1 == 1) & (new & ~up[i] == 0)] = j
    bad = np.flatnonzero(labels < 0)
    if len(bad):
        return None, covers[bad[0]]
    return dict(zip(covers, labels.tolist())), None


class Lattice:
    """A finite lattice with eager join and meet tables."""

    def __init__(self, poset, join, meet):
        self.poset = poset
        self.join = join
        self.meet = meet
        self.bottom = poset.bottom()
        self.top = poset.top()

    @property
    def n(self):
        return self.poset.n

    @property
    def covers(self):
        return self.poset.covers

    def join_of(self, a, b):
        return int(self.join[a, b])

    def meet_of(self, a, b):
        return int(self.meet[a, b])

    def join_all(self, elems):
        out = self.bottom
        for a in elems:
            out = int(self.join[out, a])
        return out

    def meet_all(self, elems):
        out = self.top
        for a in elems:
            out = int(self.meet[out, a])
        return out

    # -- irreducibles -----------------------------------------------------

    @cached_property
    def _join_irr(self):
        return _single_covers(self.n, self.poset.lower_covers)

    @cached_property
    def _meet_irr(self):
        return _single_covers(self.n, self.poset.upper_covers)

    def join_irreducibles(self):
        """Elements with exactly one lower cover, ascending by id."""
        return sorted(self._join_irr)

    def j_star(self, j):
        """The unique lower cover of a join-irreducible element."""
        return self._join_irr[j]

    def meet_irreducibles(self):
        return sorted(self._meet_irr)

    def atoms(self):
        return sorted(self.poset.upper_covers(self.bottom))

    @cached_property
    def _join_labels(self):
        return _cover_labels(self.poset.leq, self.join_irreducibles(), self.covers)

    @cached_property
    def _meet_labels(self):
        return _cover_labels(self.poset.leq.T, self.meet_irreducibles(), [(b, a) for a, b in self.covers])

    @cached_property
    def _psi(self):
        """Core label masks: j = join_irreducibles()[i] is in the core label set of a iff j <= a and
        j is not below nucleus(a) v j_*, nucleus(a) being the meet of a with its lower covers (in a
        join-semidistributive lattice a cover b < c has label j iff j <= c, j_* <= b, j not <= b)."""
        jsd_labeling(self)  # NoUniqueMin unless join-semidistributive
        leq, irr = self.poset.leq, self.join_irreducibles()
        nucleus = np.array([self.meet_all([a] + self.poset.lower_covers(a)) for a in range(self.n)])
        masks = _irr_masks(leq, irr)
        covered = np.zeros_like(masks)
        for i, j in enumerate(irr):
            covered |= leq[j, self.join[nucleus, self.j_star(j)]].astype(masks.dtype) << i
        psi = masks & ~covered
        psi.setflags(write=False)
        return psi

    def __repr__(self):
        return f"Lattice(n={self.n}, covers={len(self.covers)})"


def as_lattice(p):
    """Check that the poset is a lattice and build its tables.

    Raises NotALattice with a witness pair otherwise.
    """
    mins = p.minimal_elements()
    if len(mins) > 1:
        raise NotALattice(
            f"pair ({mins[0]}, {mins[1]}) has no lower bound", pair=(mins[0], mins[1])
        )
    maxs = p.maximal_elements()
    if len(maxs) > 1:
        raise NotALattice(
            f"pair ({maxs[0]}, {maxs[1]}) has no upper bound", pair=(maxs[0], maxs[1])
        )
    meet = _meet_table(p.leq, p._topo, p._down_adj)
    join = _meet_table(np.ascontiguousarray(p.leq.T), p._topo[::-1], p._up_adj)
    return Lattice(p, join, meet)


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


def jsd_labeling(lat):
    """The cover labeling {(a, b): c} of a join-semidistributive lattice: c is the
    minimum element with a v c = b, always join-irreducible."""
    labels, bad = lat._join_labels
    if bad is not None:
        raise NoUniqueMin(f"cover ({bad[0]}, {bad[1]}) has no unique minimal join complement")
    return labels


def canonical_joinrep(lat, a):
    """Canonical join representation: the labels of the lower covers of a."""
    labels = jsd_labeling(lat)
    return frozenset(labels[(b, a)] for b in lat.poset.lower_covers(a))


def psi_map(lat):
    """Core label sets as a read-only array of masks by element id, bit i standing for
    join_irreducibles()[i]: int64 below 64 of them, Python ints from 64 on."""
    return lat._psi


def _closed_under_intersection(masks):
    """Whether every pairwise intersection of the masks (int64 or Python ints) is again one."""
    values = np.unique(masks)
    for a in range(len(values) - 1):
        meets = values[a] & values[a + 1 :]  # each <= values[a], so searchsorted stays in range
        if (values[np.searchsorted(values, meets)] != meets).any():
            return False
    return True


def has_intersection_property(lat):
    """Every pairwise intersection of core label sets is again one."""
    return _closed_under_intersection(psi_map(lat))


def build_bool(n):
    """The subset lattice of {1..n} on bitmask ids."""
    check_range("n", n, 0)
    check_elements(f"bool({n})", 2**n)
    covers = []
    for s in range(1 << n):
        for i in range(n):
            if not s >> i & 1:
                covers.append((s, s | 1 << i))
    labels = [
        "{" + ",".join(str(i + 1) for i in range(n) if s >> i & 1) + "}" for s in range(1 << n)
    ]
    return as_lattice(FinitePoset.closure(covers, 1 << n, labels=labels))
