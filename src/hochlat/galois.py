"""Galois graphs of extremal lattices and the reconstruction going back.

An extremal lattice of length k has exactly k join-irreducibles and k
meet-irreducibles, and any maximal-length chain meets one new irreducible of
each kind at every step.  Pairing them up gives a directed graph on k
vertices; the lattice of maximal orthogonal pairs of that graph recovers the
lattice (Markowsky, Order 1992), which the tests exercise in both directions.
The pairs are the formal concepts of "s != t and no edge s -> t", so one
m x k table of meets certifies the rebuild and gives its covers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolated, NotALattice, NotExtremal
from .hochschild import irreducibles
from .lattice import is_extremal
from .limits import check_elements, check_int64
from .poset import FinitePoset, _dot, _rounds, are_isomorphic


class DiGraph:
    """Directed graph on vertices 0..k-1 with display labels."""

    def __init__(self, k, edges, labels=None):
        self.k = int(k)
        self.edges = frozenset((int(s), int(t)) for s, t in edges)
        for s, t in self.edges:
            if not (0 <= s < self.k and 0 <= t < self.k and s != t):
                raise ValueError(f"edge ({s}, {t}) is a loop or leaves vertices 0..{self.k - 1}")
        self.labels = list(labels) if labels is not None else [str(i) for i in range(self.k)]
        if len(self.labels) != self.k:
            raise ValueError(f"{len(self.labels)} labels for {self.k} vertices")

    def to_json(self):
        return {
            "vertices": [str(lbl) for lbl in self.labels],
            "edges": sorted([s, t] for s, t in self.edges),
        }

    def to_dot(self, name="digraph_out"):
        return _dot(name, self.labels, sorted(self.edges))

    def __repr__(self):
        return f"DiGraph(k={self.k}, edges={len(self.edges)})"


@dataclass
class GaloisGraph:
    """Galois graph plus the chain data that produced it.

    Vertex s of ``graph`` stands for the pair (joins[s], meets[s]): the
    join-irreducible first seen at chain step s+1 and the meet-irreducible
    last seen at that same step.
    """

    graph: DiGraph
    chain: tuple
    joins: tuple
    meets: tuple


def _longest_chain(poset):
    """Lexicographically least maximum-length chain from bottom to top, by the longest chain above
    each element: Kahn's rounds peeling maximal elements (``_rounds`` on the covers turned down)."""
    order = np.argsort(poset._ends[1], kind="stable")
    up_height = _rounds(poset._ends[1][order], poset._ends[0][order], poset.n)[1]
    chain = [poset.bottom()]
    while chain[-1] != poset.top():
        here = chain[-1]
        nxt = min(b for b in poset.upper_covers(here) if up_height[b] == up_height[here] - 1)
        chain.append(nxt)
    return tuple(chain)


def galois_graph(lat):
    """Galois graph of an extremal lattice, built from one longest chain."""
    if not is_extremal(lat):
        raise NotExtremal("lattice is not extremal: irreducible counts differ from length")
    poset = lat.poset
    chain = _longest_chain(poset)
    js, ms, ch = (np.array(e, dtype=np.int64) for e in (lat.join_irreducibles(), lat.meet_irreducibles(), chain))
    fresh_j = poset.le(js[:, None], ch[1:]) & ~poset.le(js[:, None], ch[:-1])  # [j, s - 1]: j first below chain[s]
    fresh_m = poset.le(ch[:-1, None], ms) & ~poset.le(ch[1:, None], ms)  # [s - 1, m]: m last above chain[s - 1]
    # Each of the k steps exposes at least one join-irreducible (chain[s] is the join of
    # those below it), and there are only k of them, so exactly one; dually for meets.
    if len(bad := np.flatnonzero((fresh_j.sum(0) != 1) | (fresh_m.sum(1) != 1))):
        j, m = fresh_j[:, bad[0]].sum(), fresh_m[bad[0]].sum()
        raise InvariantViolated(f"chain step {bad[0] + 1} exposes {j} join- and {m} meet-irreducibles instead of one each")
    joins, meets = js[np.nonzero(fresh_j.T)[1]], ms[np.nonzero(fresh_m)[1]]
    leq = poset.le(joins[:, None], meets)
    edges = [(s, t) for s in range(len(joins)) for t in range(len(joins)) if s != t and not leq[s, t]]
    labels = [str(poset.labels[j]) for j in joins.tolist()]
    return GaloisGraph(DiGraph(len(joins), edges, labels), chain, tuple(joins.tolist()), tuple(meets.tolist()))


def hoch_galois_characterization(n):
    """The triword lattice's Galois graph written down directly.

    Vertices a1..an then b2..bn; edges b_t -> a_t and a_t -> a_t' for t > t'.
    """
    labels = [str(j) for j in irreducibles(n)]
    edges = [(n + t - 2, t - 1) for t in range(2, n + 1)]  # a_t is vertex t - 1, b_t vertex n + t - 2
    edges += [(t - 1, u - 1) for t in range(1, n + 1) for u in range(1, t)]
    return DiGraph(len(labels), edges, labels)


@dataclass
class OrthoPairLattice:
    """Lattice of maximal orthogonal pairs, as a poset with no tables, and the pair behind each id."""

    poset: FinitePoset
    pairs: tuple
    graph: DiGraph

    def pair_sets(self, a):
        return tuple(frozenset(i for i in range(self.graph.k) if mask >> i & 1) for mask in self.pairs[a])


def _columns(g):
    """col[t] as int64 bitmasks: the vertices s != t with no edge s -> t."""
    col = ((1 << g.k) - 1) ^ (1 << np.arange(g.k, dtype=np.int64))
    for s, t in g.edges:
        col[t] &= ~(1 << s)
    return col


def _maximal_pairs(g):
    """The maximal orthogonal pairs (A, B) of g as bitmasks, sorted by (|A|, A).

    A pair is orthogonal when no edge leaves A and lands in B (A and B disjoint), and maximal
    when neither side can grow.  The A sides are the intersections of columns col[t] (the full
    set is the empty one) and B is {t : A in col[t]}.  Each pass closes the sides found so far
    under meets with one more column, so its count is a lower bound on the final one.
    SizeBound past 63 vertices (the sides are int64 masks) or MAX_ELEMENTS pairs.
    """
    k = g.k
    check_int64(f"the vertex masks of {k} vertices", (1 << k) - 1)
    col = _columns(g)
    a_vals = np.array([(1 << k) - 1], dtype=np.int64)
    for c in col:
        a_vals = np.sort(np.concatenate([a_vals, a_vals & c]))
        a_vals = a_vals[np.diff(a_vals, prepend=-1) != 0]  # repeats dropped; the sides are >= 0
        check_elements("orthogonal-pair order", len(a_vals))
    b_vals = ((a_vals[:, None] & ~col == 0).astype(np.int64) << np.arange(k)).sum(axis=1)
    return sorted(zip(a_vals.tolist(), b_vals.tolist()), key=lambda ab: (bin(ab[0]).count("1"), ab[0]))


def max_ortho_pairs_lattice(g):
    """All maximal pairs (A, B) with no edge from A into B, ordered by A.

    The pairs are the formal concepts of "s != t and no edge s -> t" (Ganter and Wille,
    Formal Concept Analysis, 1999): the A sides are the intersections of columns col[t],
    and one m x k table of meets A & col[t] certifies and orders them.  NotALattice unless
    the full set and every meet are A sides (so every intersection is one) and the B sides
    are the distinct sets {t : A in col[t]} (so every A side is one).  The intersections
    form a lattice under inclusion; the lower covers of A are its maximal proper meets.
    """
    pairs = _maximal_pairs(g)
    a_vals, b_vals = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    meets = a_vals[:, None] & _columns(g)
    order = np.argsort(a_vals)
    ids = order[np.searchsorted(a_vals, meets, sorter=order)]  # meets <= a_vals, so in range
    if a_vals.max() != (1 << g.k) - 1 or (a_vals[ids] != meets).any():
        raise NotALattice("A sides of the orthogonal pairs do not hold the full set and every meet")
    inside = meets == a_vals[:, None]  # t is in B exactly when A lies in col[t]
    intents = (inside.astype(np.int64) << np.arange(g.k)).sum(axis=1)
    if (intents != b_vals).any() or (np.diff(np.sort(b_vals)) == 0).any():
        raise NotALattice("B sides of the orthogonal pairs are not the distinct sets {t : A in col[t]}")
    # a proper meet is a lower cover of A unless another proper meet strictly holds it; closure re-checks
    held = np.zeros_like(inside)  # held[x, t]: meets[x, t] lies strictly inside a proper meets[x, u]
    for u in range(g.k):
        held |= ~inside[:, [u]] & (meets & ~meets[:, [u]] == 0) & (meets != meets[:, [u]])
    lows, ts = np.nonzero(~inside & ~held)
    covers = np.stack([ids[lows, ts], lows], axis=1)  # closure drops the repeats
    return OrthoPairLattice(FinitePoset.closure(covers, len(pairs)), tuple(pairs), g)


def reconstruction_isomorphic(lat, geo, mo):
    """Whether the pair lattice ``mo`` of ``geo.graph`` is isomorphic to ``lat``.

    Markowsky's correspondence decodes the pair (A, B) to the join of joins[s] for s in A: the element whose
    meet-irreducible mask ANDs theirs (the bottom's for A empty), a pass per s; that map is certified with are_isomorphic.
    """
    sides, up = np.array(mo.pairs, dtype=np.int64).reshape(-1, 2)[:, 0], lat._upper.masks
    acc = np.full(len(sides), up[lat.bottom])
    for s, j in enumerate(geo.joins):
        acc = np.where(sides >> s & 1, acc & up[j], acc)
    return are_isomorphic(mo.poset, lat.poset, lat._upper.find(acc))
