"""Finite posets on dense integer element ids 0..n-1, immutable and shareable once built.

The order is stored as packed strict up-rows ``_up`` (uint64, n x ceil(n/64); b > a is bit b of row a, at byte
b >> 3), which no other module reads.  :meth:`FinitePoset.closure` builds them from covers (:func:`doubling` closes
``_double``'s with it); :meth:`FinitePoset.from_leq` and :meth:`FinitePoset.from_masks` pack an order matrix or int
masks by inclusion and find the covers by ``_covers``; all by ``_two_step``'s capped ORs of packed rows.  They are
read by the bit test ``le``, by ``leq`` (unpacked only when read), by ``rank_corank_counts``, by the lattice join
test ``_lower_covers_join`` and by ``_above``: the exact int64 Mobius solve (``mobius_times``) and the chain counts
behind zeta go a height level (Kahn's round) at a time (Stanley, *Enumerative Combinatorics I*, 3.11-3.12).
Covers are the sorted int32 arrays ``_ends`` of their two ends.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from math import comb

import numpy as np

from .errors import CycleDetected, NotBounded, NotCover, NotGraded, NotInterval
from .limits import check_int64

_WIDE = 256  # pairs out of a round, above which ``_rounds`` gathers them with numpy


def _ints(ids):
    """An array or iterable of element ids as int64, or None if one is no integer (bool counts, as for operator.index)."""
    ids = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
    return ids.astype(np.int64, copy=False) if ids.dtype.kind in "biu" or not ids.size else None


def _pairs(covers):
    """The lower and upper ends of a (k, 2) int array or an iterable of pairs, as int64 arrays; ValueError for a non-int id."""
    if (ends := _ints(covers)) is None:
        raise ValueError("element ids must be integers")
    return ends.reshape(-1, 2).T


def _dot(name, labels, edges, head=()):
    """A DOT digraph: the ``head`` lines, a node line per label (its quotes escaped), then an edge line per pair."""
    nodes = [f'  {a} [label="{text}"];' for a, text in enumerate(str(t).replace('"', '\\"') for t in labels)]
    return "\n".join([f"digraph {name} {{", *head, *nodes, *(f"  {a} -> {b};" for a, b in edges), "}"])


def _split(keys, values, m):
    """The values grouped by their keys, which are sorted: one list for each key 0..m-1."""
    cuts, values = np.searchsorted(keys, np.arange(m + 1)).tolist(), values.tolist()
    return [values[i:j] for i, j in zip(cuts, cuts[1:])]


def _two_step(up, a, b, levels=None):
    """For pairs (a, b) grouped by a and packed strict up-rows ``up``: the OR of the rows of the b paired
    with each a, and whether each b lies in its a's OR, about 2**20 bits of rows gathered at a time.  Given
    closure's ``levels`` (where each begins), blocks stop at them and write their ORs, then bits, to ``up``."""
    starts = np.flatnonzero(new := np.diff(a, prepend=-1) != 0)  # the first pair of each a
    row, byte, bit = new.cumsum() - 1, b >> 3, (1 << (b & 7)).astype(np.uint8)  # each pair's a in ors; b's bit
    ors, hit = np.empty((len(starts), up.shape[1]), dtype=np.uint64), np.empty(len(a), dtype=bool)
    per, first = max(1, 2**14 // max(1, up.shape[1])), starts.tolist()  # per block: 2**20 bits of rows
    cuts = sorted({bisect_right(first, k) - 1 for k in [*range(0, len(a), per), *(levels or ())]})
    ends = [first[i] for i in cuts] + [len(a)]
    for i, j, lo, hi in zip(cuts, cuts[1:] + [len(first)], ends, ends[1:]):  # the pairs of a's i..j-1
        ors[i:j] = np.bitwise_or.reduceat(up[b[lo:hi]], starts[i:j] - lo)
        hit[lo:hi] = ors.view(np.uint8)[row[lo:hi], byte[lo:hi]] & bit[lo:hi]
        if levels:
            up[a[starts[i:j]]] = ors[i:j]
            np.bitwise_or.at(up.view(np.uint8), (a[lo:hi], byte[lo:hi]), bit[lo:hi])
    return ors, hit


def _rounds(src, dst, n):
    """Kahn's rounds along the pairs src -> dst, src sorted: the elements each round peels and the round
    of each, following only the pairs out of the last round (slices of dst).  A round with over ``_WIDE``
    of them gathers them with numpy (``np.repeat`` over the slices) and counts each upper end once
    (``np.unique``); a narrower one walks them in Python, as a long chain needs.  CycleDetected on a cycle."""
    cuts, deg, indeg = np.searchsorted(src, np.arange(n + 1)), np.bincount(dst, minlength=n), None  # indeg: deg, in walks
    first, out, widths = cuts.tolist(), dst.tolist(), (width := np.diff(cuts)).tolist()
    levels, r, most = [np.flatnonzero(deg == 0).tolist()], [-1] * n, max(widths, default=0)
    while levels[-1]:
        for x in (level := levels[-1]):
            r[x] = len(levels) - 1
        if len(level) * most > _WIDE and sum(map(widths.__getitem__, level)) > _WIDE:  # most: the widest slice
            deg, indeg, cnt = deg if indeg is None else np.array(indeg), None, width[level]
            y, k = np.unique(dst[np.repeat(cuts[level] - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())], return_counts=True)
            deg[y] -= k
            levels.append(y[deg[y] == 0].tolist())
            continue
        indeg, nxt = deg.tolist() if indeg is None else indeg, []
        for x in level:
            for y in out[first[x] : first[x + 1]]:
                indeg[y] -= 1
                if not indeg[y]:
                    nxt.append(y)
        levels.append(nxt)
    if -1 in r:
        raise CycleDetected("cover relation contains a cycle")
    return levels[:-1], r


def _pack(rows, m):
    """The packed strict up-rows of the order on m elements whose boolean rows at a slice are ``rows(slice)``."""
    up = np.zeros((m, -(-m // 64)), dtype=np.uint64)
    for s in range(0, m, step := max(1, 2**16 // max(m, 1))):  # about 2**16 bits a pass, the diagonal off
        strict = rows(slice(s, s + step)) & ~np.eye(min(step, m - s), m, s, dtype=bool)
        up.view(np.uint8)[s : s + step, : -(-m // 8)] = np.packbits(strict, 1, bitorder="little")
    return up


def _bits(up):
    """The set bits of packed rows ``up`` as sorted (row, column) arrays: the nonzero words, unpacked."""
    flat = np.flatnonzero(up)
    k = np.flatnonzero(np.unpackbits(up.ravel()[flat].view(np.uint8), bitorder="little").view(bool))
    row, word = (x[k >> 6] for x in np.divmod(flat, up.shape[1]))
    return row, word << 6 | k & 63


def _covers(up):
    """The covers of the order with packed strict up-rows ``up``, a sorted (k, 2) array: its pairs less
    those two steps up, about 2**17 bits of rows at a time.  ValueError if an OR leaves its row."""
    m, out = len(up), [np.zeros((0, 2), dtype=np.int64)]
    for s in range(0, m, step := max(1, 2**17 // max(m, 1))):
        a, b = _bits(blk := up[s : s + step])
        ors, hit = _two_step(up, a + s, b)
        if (ors & ~blk[blk.any(axis=1)]).any():  # the rows of the a's, in order
            raise ValueError("order matrix is not transitive")
        out.append(np.stack([a[~hit] + s, b[~hit]], axis=1))
    return np.concatenate(out)


class FinitePoset:
    """A finite partial order with dense integer ids and decoded labels, from an order matrix or packed up-rows;
    ``labels`` may be a callable that makes them, called only when they are first read."""

    def __init__(self, leq, covers, labels=None):
        if (up := np.asarray(leq)).dtype != np.uint64:
            if up.ndim != 2 or up.shape[0] != up.shape[-1]:
                raise ValueError(f"order matrix must be square, got shape {up.shape}")
            up = _pack(up.astype(bool, copy=False).__getitem__, len(up))
        elif up.ndim != 2 or up.shape[1] != -(-len(up) // 64):
            raise ValueError(f"packed rows must have shape (m, ceil(m / 64)), got {up.shape}")
        up.setflags(write=False)
        self.n, self._up = (n := len(up)), up
        key = np.sort(np.ravel_multi_index(tuple(_pairs(covers)), (n, n)))  # ValueError past 0..n-1
        self._ends = tuple(e.astype(np.int32) for e in np.divmod(key, n))  # the covers' ends, sorted
        self._labels = labels  # a list, a callable that makes one when ``labels`` is first read, or None for the ids
        if not callable(labels):
            self.labels  # noqa: B018  (a wrong count raises here; a callable's labels are counted when first read)

    @cached_property
    def labels(self):
        labels = self._labels() if callable(self._labels) else self._labels
        labels = list(labels) if labels is not None else [str(i) for i in range(self.n)]
        if len(labels) != self.n:
            raise ValueError(f"{len(labels)} labels for {self.n} elements")
        return labels

    # -- construction ---------------------------------------------------

    @classmethod
    def closure(cls, covers, m, labels=None):
        """The poset generated by cover pairs on m elements: top down by height (``_rounds``), each strict
        up-row is the OR of (row c | bit c) over the upper covers c, one ``_two_step`` over the pairs by level.
        CycleDetected if the pairs are cyclic; NotCover if a pair (a, b) is no cover: b is in a's OR."""
        a, b = _pairs(covers)
        if (bad := (outside := (a < 0) | (a >= m) | (b < 0) | (b >= m)) | (a == b)).any():
            i = int(np.argmax(bad))  # the first bad pair, in input order
            if outside[i]:
                raise ValueError(f"element id out of range: ({a[i]}, {b[i]})")
            raise CycleDetected(f"loop at element {a[i]}")
        key = np.sort(a * m + b)
        a, b = np.divmod(key[np.diff(key, prepend=-1) != 0], m)  # sorted, repeats dropped
        peeled = _rounds(a, b, m)  # CycleDetected on a cycle
        down = np.argsort(-(h := np.asarray(peeled[1])[a]), kind="stable")  # by the height of a, descending
        up = np.zeros((m, -(-m // 64)), dtype=np.uint64)  # the strict up-rows
        hit = _two_step(up, a[down], b[down], np.flatnonzero(np.diff(h[down], prepend=-1)).tolist())[1]
        p = cls(up, np.stack([a, b], axis=1), labels)
        p._peeled = peeled  # the rounds of its covers, as ``heights`` finds them
        if hit.any():  # another upper cover of a lies below b; the least such pair
            a, b = divmod(int((a * m + b)[down][hit].min()), m)
            size = (p.le(a, np.arange(m)) & p.le(np.arange(m), b)).sum()
            raise NotCover(f"({a}, {b}) is not a cover: interval has {size} elements")
        return p

    @classmethod
    def from_leq(cls, leq, labels=None):
        """Build a poset from a reflexive, antisymmetric order matrix; ``_covers`` finds the covers and transitivity."""
        up = cls(leq := np.asarray(leq, dtype=bool), [])._up  # ValueError unless square
        if not leq.diagonal().all():
            raise ValueError("order matrix is not reflexive")
        if leq[_bits(up)[::-1]].any():  # leq[b, a] for the strict pairs (a, b)
            raise CycleDetected("order matrix is not antisymmetric")
        return cls(up, _covers(up), labels)

    @classmethod
    def from_masks(cls, masks, labels=None):
        """The inclusion order of distinct int masks (int64, or Python ints past 63 bits); CycleDetected on a repeat."""
        if (np.diff(np.sort(masks := np.asarray(masks))) == 0).any():
            raise CycleDetected("a repeated mask: inclusion is not antisymmetric")
        up = _pack(lambda rows: (masks[rows, None] & ~masks) == 0, len(masks))  # masks[a] inside masks[b]
        return cls(up, _covers(up), labels)

    @cached_property
    def leq(self):
        """The order as a read-only boolean matrix (leq[a, b] iff a <= b), unpacked on first read."""
        leq = np.unpackbits(self._up.view(np.uint8), axis=1, count=self.n, bitorder="little").view(bool)
        np.fill_diagonal(leq, True)
        leq.flags.writeable = False
        return leq

    def le(self, a, b):
        """Whether a <= b for int ids or, elementwise, broadcast id arrays (a column, a row, a block of ``leq``)."""
        return (self._up.view(np.uint8)[a, b >> 3] >> (b & 7) & 1).astype(bool) | (a == b)

    def _lower_covers_join(self):
        """The first two lower covers (b, c) of the least x whose up-set is not the AND of the strict up-rows
        of b and c, or None; the rows are gathered in blocks of about 2**17 bytes (see ``lattice._certify``)."""
        order = np.argsort(self._ends[1], kind="stable")  # by upper end, then lower end
        lo, hi = self._ends[0][order], self._ends[1][order]
        i = np.flatnonzero((np.diff(hi, prepend=-1) != 0)[:-1] & (hi[1:] == hi[:-1]))  # first of 2 or more
        ends, up = np.stack([hi[i], lo[i], lo[i + 1]], axis=1), self._up.view(np.uint8)  # x, b, c
        step = max(1, 2**17 // (3 * up.shape[1]))
        for s in range(0, len(i), step):
            g, x = up[ends[s : s + step]], ends[s : s + step, 0]  # strict up-rows of x, b, c
            g[np.arange(len(x)), 0, x >> 3] |= (1 << (x & 7)).astype(np.uint8)  # x into its own row
            if len(bad := np.flatnonzero(~(g[:, 1] & g[:, 2] == g[:, 0]).all(axis=1))):
                return tuple(ends[s + bad[0], 1:].tolist())
        return None

    # -- basic queries ---------------------------------------------------

    @cached_property
    def covers(self):
        """The cover pairs (a, b) as a tuple, sorted."""
        return tuple(zip(*(e.tolist() for e in self._ends)))

    @cached_property
    def _up_adj(self):
        return _split(*self._ends, self.n)

    @cached_property
    def _down_adj(self):
        a, b = self._ends
        order = np.argsort(b, kind="stable")  # by upper end, then lower end
        return _split(b[order], a[order], self.n)

    def upper_covers(self, a):
        return list(self._up_adj[a])

    def lower_covers(self, a):
        return list(self._down_adj[a])

    @cached_property
    def _topo(self):
        return np.argsort(self.heights, kind="stable").tolist()

    def minimal_elements(self):
        return np.flatnonzero(np.bincount(self._ends[1], minlength=self.n) == 0).tolist()

    def maximal_elements(self):
        return np.flatnonzero(np.bincount(self._ends[0], minlength=self.n) == 0).tolist()

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
    def _peeled(self):
        return _rounds(*self._ends, self.n)

    @property
    def heights(self):
        """heights[a] = longest chain ending at a, in cover steps: its round in ``_rounds`` on the covers."""
        return self._peeled[1]

    def length(self):
        """Longest chain length of the whole poset (cover steps)."""
        return max(self.heights, default=0)

    # -- Mobius function and zeta polynomial -----------------------------

    def _above(self, idx, w):
        """For each a in idx, the sum of the rows b > a of w, over the set bits of a's up-row (``_bits``)."""
        out = np.zeros((len(idx), *w.shape[1:]), dtype=w.dtype)
        for s in range(0, len(idx), step := max(1, 2**17 // max(self.n, 1))):
            r, b = _bits(self._up[idx[s : s + step]])
            starts = np.flatnonzero(np.diff(r, prepend=-1))  # the first bit of each nonzero row
            out[s + r[starts]] = np.add.reduceat(w[b], starts)
        return out

    def _top_down(self, first, what, row):
        """An int64 array like ``first`` filled a height level (an antichain) at a time, top down, as ``row(level,
        sums of the filled rows above each)``; check_int64 bounds every sum by max |first| plus each filled row's max."""
        out, bound = np.zeros_like(first), max(int(first.max(initial=0)), -int(first.min(initial=0)))
        for level in self._peeled[0][::-1]:
            check_int64(what, bound)
            out[level] = row(level, self._above(level, out))
            bound += sum(np.abs(out[level]).reshape(len(level), -1).max(axis=1, initial=0).tolist())
        check_int64(what, bound)
        return out

    def mobius_times(self, rhs):
        """mu @ rhs in int64: solves zeta @ W = rhs, each row of W that of rhs less the rows above it."""
        rhs = np.asarray(rhs, dtype=np.int64)
        return self._top_down(rhs, "Mobius solve", lambda level, above: rhs[level] - above)

    def mobius(self, a, b):
        """Mobius function mu(a, b); 0 when a and b are incomparable.  One column of mobius_times."""
        return int(self.mobius_times(np.arange(self.n) == b)[a])

    @cached_property
    def _chain_counts(self):
        """counts[j] = number of chains x0 < ... < xj, the column sums of c, where c[a, j] counts those
        with x0 = a: c[a, 0] = 1 and c[a, j + 1] sums c[b, j] over b > a."""
        ones = np.ones((self.n, self.length() + 1), dtype=np.int64)
        return self._top_down(ones, "chain count", lambda lv, above: np.hstack([ones[lv, :1], above[:, :-1]])).sum(0).tolist()

    def zeta(self, q):
        """Number of weakly increasing (q-1)-tuples; zeta(1) = 1, zeta(2) = n.  Those with
        j+1 distinct values are the chains of j+1 elements, each in comb(q-2, j) ways."""
        if q < 1:
            raise ValueError("zeta is a counting function only for q >= 1")
        return 1 if q == 1 else sum(s * comb(q - 2, j) for j, s in enumerate(self._chain_counts))

    def zeta_points(self):
        """Exact samples (q, zeta(q)) for q = 1 .. length+2."""
        return [(q, self.zeta(q)) for q in range(1, self.length() + 3)]

    # -- grading ----------------------------------------------------------

    def rank_vector(self):
        """Ranks when graded (all maximal chains share one length); NotGraded otherwise."""
        h, (a, b) = self.heights, self._ends
        if len(skips := np.flatnonzero(np.take(h, b) != np.take(h, a) + 1)):
            raise NotGraded(f"cover ({a[skips[0]]}, {b[skips[0]]}) skips a rank")
        tops = {h[x] for x in self.maximal_elements()}
        if len(tops) > 1:
            raise NotGraded(f"maximal elements at distinct ranks {sorted(tops)}")
        return list(h)

    def rank_corank_counts(self):
        """R^T zeta C of a graded poset (NotGraded otherwise), R and C its rank and corank indicators: one bincount of the
        diagonal and one of the set bits (``_bits``) of each block of about 2**20 bits of up-rows, never unpacked."""
        rows = np.array(self.rank_vector())
        cols, width = rows.max(initial=0) - rows, rows.max(initial=0) + 1
        acc = np.bincount(rows * width + cols, minlength=width * width)  # the diagonal
        for s in range(0, self.n, step := max(1, 2**20 // max(self.n, 1))):
            a, b = _bits(self._up[s : s + step])
            acc += np.bincount(rows[a + s] * width + cols[b], minlength=width * width)
        return acc.reshape(-1, width)

    def rank_profile(self):
        """Count of elements of each rank, index 0 = minimal rank."""
        return np.bincount(self.rank_vector(), minlength=1).tolist()

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

    def _antichain_masks(self):
        """Every antichain as a Python-int bitmask of its elements, the empty one included, depth first:
        each antichain is followed by its extensions by a larger element, in ascending order.  The
        candidates for the next element are a bitmask too, cut by the incomparability row of each one taken."""
        x = np.arange(self.n)
        inc = [int.from_bytes(np.packbits(~(self.le(a, x) | self.le(x, a)), bitorder="little").tobytes(), "little") for a in x]
        out = []

        def grow(chosen, cand):
            out.append(chosen)
            while cand:
                low = cand & -cand
                cand ^= low  # only elements above this one remain
                grow(chosen | low, cand & inc[low.bit_length() - 1])

        grow(0, (1 << self.n) - 1)
        return out

    def antichains(self):
        """All antichains as frozensets, in the order of ``_antichain_masks``, whose masks they decode."""
        return [frozenset(a for a in range(self.n) if m >> a & 1) for m in self._antichain_masks()]

    # -- export ------------------------------------------------------------

    def to_json(self):
        return {"n_elements": self.n, "covers": [[a, b] for a, b in self.covers], "labels": [str(lbl) for lbl in self.labels]}

    def to_dot(self, name="poset"):
        return _dot(name, self.labels, self.covers, ["  rankdir=BT;"]) + "\n"

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
    on P's covers.  A componentwise order on a subset of P x 2 is an order by construction; its
    covers are closed and checked by ``FinitePoset.closure``.  Labels become (old label, copy).
    The input should be a lattice for the output to be one."""
    lo, hi = b
    if not (0 <= lo < p.n and 0 <= hi < p.n):
        raise ValueError(f"element id out of range: ({lo}, {hi})")
    if not p.le(lo, hi):
        raise NotInterval(f"({lo}, {hi}) is not an interval: lo is not below hi")
    ids, copies, covers = _double(*p._ends, down := p.le(np.arange(p.n), hi), ~down | p.le(lo, np.arange(p.n)))
    labels = [(p.labels[a], c) for a, c in zip(ids.tolist(), copies.tolist())]
    return FinitePoset.closure(covers, len(ids), labels)


def are_isomorphic(p, q, image):
    """Whether ``image`` (the q-id of each p-id) is an order isomorphism from p onto q: a bijection
    mapping covers onto covers, compared as the sorted keys a * n + b of the cover ends, so the map is
    certified as it stands.  A size mismatch, an id that is no integer, a repeated id or an out-of-range id gives False."""
    if p.n != q.n or (image := _ints(image)) is None or not np.array_equal(np.sort(image), np.arange(q.n)):
        return False
    (a, b), (c, d) = p._ends, q._ends
    return np.array_equal(np.sort(image[a] * q.n + image[b]), c.astype(np.int64) * q.n + d)
