"""Finite posets on dense integer element ids.

Elements are the integers 0..n-1.  The order relation is stored as a dense
read-only boolean matrix ``leq`` (leq[a, b] iff a <= b), covers as a sorted
tuple of pairs.  Instances are immutable once built; every derived quantity
is computed from ``leq`` and ``covers`` alone, so the same object can be
shared freely.

Construction goes through :meth:`FinitePoset.closure` (reflexive-transitive
closure of a cover list, with cycle and cover validation), through
:meth:`FinitePoset.from_leq` (an explicit order matrix, reduced to covers by
ORs of its packed rows) or through :func:`doubling` (covers by ``_double``'s
rule on cover arrays, order gathered from the doubled poset).

Mobius values are one exact int64 solve, mu = zeta^-1 by back substitution
(:meth:`FinitePoset.mobius_times`); the zeta polynomial is read off the
strict chain counts (Stanley, *Enumerative Combinatorics I*, 3.11-3.12).
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from math import comb

import numpy as np

from .errors import (
    CycleDetected,
    InvariantViolated,
    NotBounded,
    NotCover,
    NotGraded,
    NotInterval,
)
from .limits import check_int64
from .polynomials import interpolate_univariate


def _toposort(m, up_adj, in_deg):
    order = []
    queue = deque(a for a in range(m) if in_deg[a] == 0)
    in_deg = list(in_deg)
    while queue:
        a = queue.popleft()
        order.append(a)
        for b in up_adj[a]:
            in_deg[b] -= 1
            if in_deg[b] == 0:
                queue.append(b)
    if len(order) != m:
        raise CycleDetected("cover relation contains a cycle")
    return order


def _pairs(covers):
    """The lower and upper ends of a (k, 2) int array or an iterable of pairs, as int64 arrays."""
    return np.asarray(covers if isinstance(covers, np.ndarray) else list(covers), np.int64).reshape(-1, 2).T


def _split(keys, values, m):
    """The values grouped by their keys, which are sorted: one list for each key 0..m-1."""
    cuts, values = np.searchsorted(keys, np.arange(m + 1)).tolist(), values.tolist()
    return [values[i:j] for i, j in zip(cuts, cuts[1:])]


def _two_step(leq, a, b):
    """For pairs (a, b) of a reflexive order matrix, sorted by a: is b in the OR of the strict rows
    of the c paired with a, and is each OR inside a's strict row?  Rows are packed, b at byte b >> 3."""
    m = len(leq)
    up = np.zeros((m, -(-m // 64)), dtype=np.uint64)
    for s in range(0, m, step := max(1, 2**16 // max(m, 1))):  # about 2**16 bits packed a pass
        strict = leq[s : s + step] ^ np.eye(min(step, m - s), m, s, dtype=bool)  # the diagonal off
        up.view(np.uint8)[s : s + step, : -(-m // 8)] = np.packbits(strict, 1, bitorder="little")
    bounds = np.append(np.flatnonzero(np.diff(a, prepend=-1)), len(a))  # each row's first pair, the end
    # passes of about 16 * step pairs, 2**20 bits gathered, that take whole rows: each OR is complete
    cuts = sorted(set((np.searchsorted(bounds, np.arange(0, len(a), 16 * step), "right") - 1).tolist()))
    hit, inside = np.zeros(len(a), dtype=bool), True
    for i, j in zip(cuts, cuts[1:] + [len(bounds) - 1]):  # the pairs of rows i..j-1
        lo, hi = bounds[i], bounds[j]
        ors = np.bitwise_or.reduceat(up[b[lo:hi]], bounds[i:j] - lo)
        rows = np.repeat(np.arange(j - i), np.diff(bounds[i : j + 1]))
        hit[lo:hi] = ors.view(np.uint8)[rows, b[lo:hi] >> 3] >> (b[lo:hi] & 7) & 1
        inside &= not (ors & ~up[a[bounds[i:j]]]).any()
    return hit, inside


class FinitePoset:
    """A finite partial order with dense integer ids and decoded labels."""

    def __init__(self, leq, covers, labels=None):
        leq = np.asarray(leq, dtype=bool)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise ValueError(f"order matrix must be square, got shape {leq.shape}")
        n = len(leq)
        leq.setflags(write=False)
        self.n = n
        self.leq = leq
        a, b = _pairs(covers)
        order = np.lexsort((b, a))
        self._ends = a[order].astype(np.int32), b[order].astype(np.int32)  # the covers' ends, sorted
        self._ids = np.arange(n, dtype=object)  # one int per element, which the pairs and lists share
        self.covers = tuple(zip(self._ids[a[order]].tolist(), self._ids[b[order]].tolist()))
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        if len(self.labels) != n:
            raise ValueError(f"{len(self.labels)} labels for {n} elements")

    # -- construction ---------------------------------------------------

    @classmethod
    def closure(cls, covers, m, labels=None):
        """Build the poset generated by a list of cover pairs on m elements.

        Maximal elements are peeled a level at a time (Kahn's algorithm); the packed strict up-row of
        a level's elements is the OR of (row c | bit c) over their upper covers c, one ``reduceat`` a
        level.  Raises CycleDetected if the pairs are cyclic, and NotCover if an input pair (a, b) is
        no cover of the order they generate: b is in the OR for a before the bits go in.
        """
        a, b = _pairs(covers)
        if (bad := (outside := (a < 0) | (a >= m) | (b < 0) | (b >= m)) | (a == b)).any():
            i = int(np.argmax(bad))  # the first bad pair, in input order
            if outside[i]:
                raise ValueError(f"element id out of range: ({a[i]}, {b[i]})")
            raise CycleDetected(f"loop at element {a[i]}")
        key = np.sort(a * m + b)
        a, b = np.divmod(key[np.diff(key, prepend=-1) != 0], m)  # sorted, repeats dropped
        first = np.diff(a, prepend=-1) != 0  # the first pair of each lower element
        byte, bit = b >> 3, (1 << (b & 7)).astype(np.uint8)  # where b sits in a packed row
        up = np.zeros((m, -(-m // 64)), dtype=np.uint64)  # the strict up-rows
        hit, outdeg, rank = np.zeros(len(a), dtype=bool), np.bincount(a, minlength=m), np.full(m, -1)
        level, r = np.flatnonzero(outdeg == 0), 0
        while len(level):
            rank[level] = r
            if len(sel := np.flatnonzero(rank[a] == r)):  # the pairs from level r, by lower element
                ors = np.bitwise_or.reduceat(up[b[sel]], np.flatnonzero(first[sel]))
                hit[sel] = ors.view(np.uint8)[np.cumsum(first[sel]) - 1, byte[sel]] & bit[sel]
                up[level] = ors  # every element past level 0 has an upper cover
                np.bitwise_or.at(up.view(np.uint8), (a[sel], byte[sel]), bit[sel])
            outdeg -= np.bincount(a[rank[b] == r], minlength=m)
            level, r = np.flatnonzero((outdeg == 0) & (rank < 0)), r + 1
        if (rank < 0).any():
            raise CycleDetected("cover relation contains a cycle")
        leq = np.unpackbits(up.view(np.uint8), axis=1, count=m, bitorder="little").view(bool)
        np.fill_diagonal(leq, True)
        if hit.any():  # another upper cover of a lies below b; pairs are sorted, so this is the least
            a, b = int(a[np.argmax(hit)]), int(b[np.argmax(hit)])
            raise NotCover(f"({a}, {b}) is not a cover: interval has {(leq[a] & leq[:, b]).sum()} elements")
        return cls(leq, np.stack([a, b], axis=1), labels)

    @classmethod
    def from_leq(cls, leq, labels=None):
        """Build a poset from an explicit order matrix by exact bit arithmetic: the OR of the strict
        rows above a holds the elements two steps above a, so a reflexive, antisymmetric ``leq`` is
        transitive iff that OR lies inside row a, and the covers of a are the rest of its row."""
        leq = np.asarray(leq, dtype=bool)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise ValueError(f"order matrix must be square, got shape {leq.shape}")
        if not leq.diagonal().all():
            raise ValueError("order matrix is not reflexive")
        a, b = np.nonzero(leq)
        a, b = a[a != b], b[a != b]  # the strict pairs, row by row
        if leq[b, a].any():
            raise CycleDetected("order matrix is not antisymmetric")
        hit, transitive = _two_step(leq, a, b)
        if not transitive:
            raise ValueError("order matrix is not transitive")
        return cls(leq, np.stack([a[~hit], b[~hit]], axis=1), labels)

    # -- basic queries ---------------------------------------------------

    @cached_property
    def _up_adj(self):
        return _split(self._ends[0], self._ids[self._ends[1]], self.n)

    @cached_property
    def _down_adj(self):
        a, b = self._ends
        order = np.lexsort((a, b))
        return _split(b[order], self._ids[a[order]], self.n)

    def upper_covers(self, a):
        return list(self._up_adj[a])

    def lower_covers(self, a):
        return list(self._down_adj[a])

    @cached_property
    def _topo(self):
        in_deg = [len(self._down_adj[a]) for a in range(self.n)]
        return _toposort(self.n, self._up_adj, in_deg)

    def minimal_elements(self):
        return [a for a in range(self.n) if not self._down_adj[a]]

    def maximal_elements(self):
        return [a for a in range(self.n) if not self._up_adj[a]]

    def bottom(self):
        mins = self.minimal_elements()
        if len(mins) != 1:
            raise NotBounded(f"poset has {len(mins)} minimal elements")
        return mins[0]

    def top(self):
        maxs = self.maximal_elements()
        if len(maxs) != 1:
            raise NotBounded(f"poset has {len(maxs)} maximal elements")
        return maxs[0]

    @cached_property
    def heights(self):
        """heights[a] = longest chain ending at a, counted in cover steps."""
        h = [0] * self.n
        for a in self._topo:
            for b in self._up_adj[a]:
                h[b] = max(h[b], h[a] + 1)
        return h

    def length(self):
        """Longest chain length of the whole poset (cover steps)."""
        return max(self.heights, default=0)

    # -- Mobius function and zeta polynomial -----------------------------

    def mobius_times(self, rhs):
        """mu @ rhs in int64: solves zeta @ W = rhs in reverse topological order, one
        ``leq[a] @ W`` per element (row a is still zero, so this sums the rows above a)."""
        rhs = np.asarray(rhs, dtype=np.int64)
        w = np.zeros_like(rhs)
        bound = max(int(rhs.max(initial=0)), -int(rhs.min(initial=0)))  # grows by each row's max |w|
        for a in reversed(self._topo):
            check_int64("Mobius solve", bound)
            w[a] = rhs[a] - self.leq[a] @ w
            bound += int(np.abs(w[a]).max(initial=0))
        check_int64("Mobius solve", bound)  # every column sum of w is exact too
        return w

    def mobius(self, a, b):
        """Mobius function mu(a, b); 0 when a and b are incomparable.  One column of mobius_times."""
        e_b = np.zeros(self.n, dtype=np.int64)
        e_b[b] = 1
        return int(self.mobius_times(e_b)[a])

    @cached_property
    def _chain_counts(self):
        """counts[j] = number of chains x0 < ... < xj, from length() int64 mat-vecs with the strict order."""
        ends = np.ones(self.n, dtype=np.int64)  # chains of j+1 elements, by their top element
        counts = [self.n]
        for _ in range(self.length()):
            check_int64("chain count", counts[-1])  # bounds every partial sum of the mat-vec
            ends = np.einsum("a,ab->b", ends, self.leq) - ends
            counts.append(sum(ends.tolist()))
        return counts

    def zeta(self, q):
        """Number of weakly increasing (q-1)-tuples; zeta(1) = 1, zeta(2) = n.  Those with
        j+1 distinct values are the chains of j+1 elements, each in comb(q-2, j) ways."""
        if q < 1:
            raise ValueError("zeta is a counting function only for q >= 1")
        return 1 if q == 1 else sum(s * comb(q - 2, j) for j, s in enumerate(self._chain_counts))

    def zeta_points(self):
        """Exact samples (q, zeta(q)) for q = 1 .. length+2."""
        return [(q, self.zeta(q)) for q in range(1, self.length() + 3)]

    def mobius_invariant_via_zeta(self):
        """Extrapolate the zeta polynomial to -1 (equals mu(bottom, top))."""
        self.bottom(), self.top()
        coeffs = interpolate_univariate(self.zeta_points())
        value = sum(c * (-1) ** k for k, c in enumerate(coeffs))
        if value.denominator != 1:
            raise InvariantViolated(f"zeta polynomial at -1 is {value}, not an integer")
        return int(value)

    # -- grading ----------------------------------------------------------

    def rank_vector(self):
        """Ranks when graded (all maximal chains share one length); NotGraded otherwise."""
        h = self.heights
        for a, b in self.covers:
            if h[b] != h[a] + 1:
                raise NotGraded(f"cover ({a}, {b}) skips a rank")
        tops = {h[a] for a in self.maximal_elements()}
        if len(tops) > 1:
            raise NotGraded(f"maximal elements at distinct ranks {sorted(tops)}")
        return list(h)

    def rank_profile(self):
        """Count of elements of each rank, index 0 = minimal rank."""
        ranks = self.rank_vector()
        profile = [0] * (max(ranks) + 1 if ranks else 1)
        for r in ranks:
            profile[r] += 1
        return profile

    # -- chains and antichains --------------------------------------------

    def count_maximal_chains(self):
        """Number of maximal chains from bottom to top (poset must be bounded)."""
        bot, top = self.bottom(), self.top()
        paths = [0] * self.n
        paths[bot] = 1
        for a in self._topo:
            for b in self._up_adj[a]:
                paths[b] += paths[a]
        return paths[top]

    def antichains(self):
        """All antichains (as frozensets), the empty one included, depth first: each antichain is
        followed by its extensions by a larger element, in ascending order.  The candidates for the
        next element are a Python-int bitmask, cut by the incomparability row of each one taken."""
        rows = np.packbits(~(self.leq | self.leq.T), axis=1, bitorder="little")
        inc = [int.from_bytes(row.tobytes(), "little") for row in rows]
        out = []

        def grow(chosen, cand):
            out.append(frozenset(chosen))
            while cand:
                a = (cand & -cand).bit_length() - 1
                cand ^= 1 << a  # only elements above a remain
                grow(chosen + [a], cand & inc[a])

        grow([], (1 << self.n) - 1)
        return out

    # -- export ------------------------------------------------------------

    def to_json(self):
        return {
            "n_elements": self.n,
            "covers": [[a, b] for a, b in self.covers],
            "labels": [str(lbl) for lbl in self.labels],
        }

    def to_dot(self, name="poset"):
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for a in range(self.n):
            text = str(self.labels[a]).replace('"', '\\"')
            lines.append(f'  {a} [label="{text}"];')
        for a, b in self.covers:
            lines.append(f"  {a} -> {b};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"FinitePoset(n={self.n}, covers={len(self.covers)})"


def _reach(s, t, start, m):
    """The mask of the m elements reached from ``start`` along the pairs s -> t, a pass a cover step."""
    seen = np.zeros(m, dtype=bool)
    seen[start] = True
    while not seen[more := t[seen[s]]].all():
        seen[more] = True
    return seen


def _double(x, y, low, high):
    """Double the order with covers x < y along ``low``, the down-set of hi, and ``high``, the
    elements outside it or in [lo, hi]: the old id and copy of each new element, and the new covers
    as a (k, 2) array.  On copy 0 of ``low`` and copy 1 of ``high``, ordered componentwise, (x, c) <
    (y, d) is a cover iff x = y, or x < y is a cover, c <= d and, if c < d, (x, 1) and (y, 0) are missing."""
    ids = np.concatenate([np.flatnonzero(low), np.flatnonzero(high)])
    copies = (np.arange(len(ids)) >= low.sum()).astype(np.int64)
    at = np.stack([np.cumsum(low), low.sum() + np.cumsum(high)]) - 1  # at[c, a]: id of (a, c), if any
    both = np.flatnonzero(low & high)
    pairs = [(at[0, both], at[1, both])]  # (a, 0) < (a, 1)
    across = low[x] & ~high[x] & high[y] & ~low[y]  # (x, 1) and (y, 0) are both missing
    for c, d, keep in ((0, 0, low[x] & low[y]), (1, 1, high[x] & high[y]), (0, 1, across)):
        pairs.append((at[c, x[keep]], at[d, y[keep]]))
    return ids, copies, np.concatenate([np.stack(ends, axis=1) for ends in pairs])


def doubling(p, b):
    """Double the poset along the interval ``b``, a (lo, hi) pair of element ids, by ``_double``
    on P's covers; the order is gathered from P's.  A componentwise order on a subset of P x 2 is
    an order by construction and needs no check.  Labels become (old label, copy).  The input
    should be a lattice for the output to be one."""
    lo, hi = b
    if not p.leq[lo, hi]:
        raise NotInterval(f"({lo}, {hi}) is not an interval: lo is not below hi")
    ids, copies, covers = _double(*p._ends, p.leq[:, hi], ~p.leq[:, hi] | p.leq[lo])
    leq = p.leq[np.ix_(ids, ids)] & (copies[:, None] <= copies[None, :])
    labels = [(p.labels[a], c) for a, c in zip(ids.tolist(), copies.tolist())]
    return FinitePoset(leq, covers, labels)


def are_isomorphic(p, q, image):
    """Whether ``image`` (the q-id of each p-id) is an order isomorphism from p onto q.

    Order isomorphisms are exactly the bijections that map covers onto
    covers, so the given map is certified as it stands; no search is made.
    A size mismatch, a repeated id or an out-of-range id gives False.
    Covers compare as the sorted keys a * n + b of the cover-end arrays.
    """
    image = np.asarray(list(image), dtype=np.int64)
    if p.n != q.n or not np.array_equal(np.sort(image), np.arange(q.n)):
        return False
    (a, b), (c, d) = p._ends, q._ends
    return np.array_equal(np.sort(image[a] * q.n + image[b]), c.astype(np.int64) * q.n + d)
