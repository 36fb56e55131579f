"""Definitional routes the tests compare the library's fast routes against.

Each one computes its object straight from the definition, one element or
one vertex at a time, and is only run at small sizes:

- ``core_label_set``: the oracle for ``lattice.psi_map``;
- ``canonical_joinreps_by_covers``: each element's canonical join
  representation as the labels of its lower covers, looked up one cover at a
  time in ``lattice.jsd_labeling``, the oracle for the masks that
  ``lattice.canonical_joinrep`` decodes;
- ``cjc_by_sets``: the canonical join complex certified and reduced on those
  representations as frozensets, one set and one vertex at a time, the
  oracle for the ``searchsorted`` passes of ``complexes.cjc``;
- ``partial_cores``: the oracle for ``triangles._partial_cores`` on the
  lattice's cover counts and for ``triangles.face_vector``;
- ``cover_counts_by_element``: each element's lower covers and its
  atom-labelled ones counted one element at a time, the oracle for the
  bincounts of ``triangles._cover_counts`` behind ``face_vector`` and the
  H-triangles of Hoch(n) and of ``boolean_baselines``;
- ``graded_by_unpacking``: R^T leq C on the unpacked order, the oracle for the
  bincount over packed bits in ``FinitePoset.rank_corank_counts``;
- ``reconstruction_image_by_pairs``: each orthogonal pair decoded to a
  lattice element by ``join_all`` over its A side, one pair at a time, the
  oracle for the mask passes of ``galois.reconstruction_isomorphic``;
- ``rank_poly`` and ``char_poly``: the graded sums over a poset that the
  closed forms ``rank_poly_closed`` and ``char_poly_closed`` must equal;
- ``is_shedding_vertex``: the admissibility test inside
  ``complexes.shedding_witness``, restated for one vertex;
- ``f_transform_by_grid`` and ``h_transform_by_grid``: the rational
  substitutions of ``triangles.f_transform`` and ``triangles.h_transform``,
  sampled on an integer grid and interpolated;
- ``shuffle_words``: every shuffle word listed by choosing letters and slots,
  the oracle for the words ``shuffles.shuffle_lattice`` grows as codes;
- ``shuffle_lattice_by_words``: Shuf(a, b) a word at a time, the up-closure of
  the full A-word under the cover rule (``up_steps``), sorted by ``word_rank``
  and then as tuples, with eager ``render_word`` labels, the oracle for the
  ids, covers and labels that ``shuffles.shuffle_lattice`` finds by array
  passes over the codes;
- ``max_orthogonal_pairs``: the maximal orthogonal pairs of a digraph found by
  trying every pair of disjoint vertex sets, the oracle for the pairs of
  ``galois.max_ortho_pairs_lattice``;
- ``maximal_pairs_by_seeds``: the same pairs as the fixed points of the two
  antitone maps, found from all 2**k seeds, the oracle for the intersection
  closure in ``galois._maximal_pairs``;
- ``pair_order``: the pairs of a rebuilt pair lattice ordered by inclusion of
  their A sides and reduced to covers by ``FinitePoset.from_leq``, the oracle for
  the covers ``galois.max_ortho_pairs_lattice`` reads off the column meets;
- ``induced``: the subposet on a list of elements, for tests that renumber or
  cut out part of a poset;
- ``dual``: the opposite order, for tests that read a poset upside down;
- ``from_leq_by_product``: an explicit order matrix checked and reduced to
  covers by one float32 product of its strict order, the oracle for the bit
  arithmetic of ``FinitePoset.from_leq``;
- ``toposort`` and ``heights_by_queue``: Kahn's algorithm with a Python queue,
  one element at a time, and the longest chain below each element relaxed one
  cover at a time in that order, the oracles for the rounds of
  ``FinitePoset.heights`` and the order ``FinitePoset._topo`` sorted by them;
- ``mobius_times_by_rows`` and ``chain_counts_by_matvec``: the Mobius solve one
  row at a time in reverse topological order, guarded before every row, and
  the chain counts by one mat-vec with the dense order a chain length, the
  oracles for the height-level solves of ``FinitePoset.mobius_times`` and
  ``FinitePoset.zeta``;
- ``closure_by_covers``: a cover list validated pair by pair, closed one
  cover at a time in topological order and checked for non-covers by one
  float32 product of its strict order, the oracle for the level-wise packed
  rows of ``FinitePoset.closure``;
- ``lower_cover_triwords``: the lower covers of one triword by the
  one-position-change rule, the oracle for the base-3 key arithmetic of
  ``hochschild.build_hoch``;
- ``hoch_by_poset_doublings``: Hoch(n) rebuilt one ``poset.doubling`` at a
  time, each step closing its covers into a poset and relabelling its
  words, the oracle for the cover-array replay in
  ``hochschild.build_hoch_by_doubling``;
- ``interval``: the elements between two elements of a poset, for tests that
  cut an interval out;
- ``enumerate_triwords``: the triwords grown by recursion, a prefix at a
  time, the oracle for the chained level-by-level generators of
  ``hochschild.enumerate_triwords``;
- ``l1``, ``f0``, ``core_labels_formula``, ``canrep_formula``,
  ``psi_inverse``, ``sigma`` and ``sigma_inverse``: the word functions of
  ``hochschild`` and ``shuffles`` with one Python step per letter and one
  ``set.add`` per label, the oracles for their scans by ``tuple.index`` and
  ``tuple.count`` and label sets cut from per-n tables of a-runs;
- ``neg_stat``: the number of atoms among a triword's canonical joinands,
  one word at a time, the oracle for the letter counts that
  ``triangles._word_stats`` reads off all the words as one array;
- ``f_tilde_by_products``: the F-triangle as one product of powers of x, x+1
  and y+1 per triword, the oracle for the binomial expansion of the word
  statistics in ``triangles.f_tilde``;
- ``is_shuffle_word``: the shape of a shuffle word, letter ranges and
  ascending parts, which the oracle ``sigma_inverse`` tests before it
  decodes (``shuffles.sigma_inverse`` checks the shape in its decoding pass);
- ``antichains``: every antichain of a poset grown by recursion, each
  candidate tested against every element already chosen, the oracle for the
  bitmask search of ``FinitePoset._antichain_masks`` that ``antichains``
  decodes;
- ``antichain_counts``: the antichains of a poset counted by size and by
  atoms among them, one frozenset at a time, the oracle for the mask
  popcounts of ``triangles.h_from_antichains``;
- ``lattice_law_by_pairs``: every join and meet of Hoch(n) compared with OR and
  a meet formula on the codes, row by row, and every cover with one changed
  letter, the oracle for the irreducible-row certificate
  ``checks.check_lattice_law``;
- ``closed_under_intersection``: every pairwise AND of a list of masks looked
  up among them, the oracle for the certificate
  ``lattice.has_intersection_property``;
- ``masks_embed_order``: every pair of masks compared by inclusion against the
  order, the oracle for the cover check ``FinitePoset._lower_covers_join``.
"""

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import index

import numpy as np

from hochlat.complexes import SimplicialComplex, is_vertex_decomposable
from hochlat.errors import CycleDetected, InvariantViolated, MalformedLabelSet, MalformedWord, NotCover
from hochlat.galois import _columns
from hochlat.hochschild import HochIrreducible, a_irr, b_irr, build_hoch, hoch_meet_code, is_triword
from hochlat.limits import check_n
from hochlat.lattice import jsd_labeling
from hochlat.limits import check_int64
from hochlat.polynomials import BiPoly, interpolate_from_grid
from hochlat.poset import FinitePoset, doubling
from hochlat.shuffles import render_word, shuffle_count
from hochlat.triangles import _indicator


@dataclass(frozen=True)
class CoreLabelSet:
    element: int
    nucleus: int
    labels: frozenset


def core_label_set(lat, a):
    """Nucleus (meet of a with all its lower covers) and the labels in between."""
    cover_labels = jsd_labeling(lat)
    nucleus = lat.meet_all([a] + lat.poset.lower_covers(a))
    poset = lat.poset
    labels = frozenset(
        cover_labels[(b, c)]
        for c in interval(poset, nucleus, a)
        for b in poset.lower_covers(c)
        if poset.leq[nucleus, b]
    )
    return CoreLabelSet(a, nucleus, labels)


def canonical_joinreps_by_covers(lat):
    """The canonical join representation of every element: the labels of its lower covers."""
    labels = jsd_labeling(lat)
    return [frozenset(labels[(b, a)] for b in lat.poset.lower_covers(a)) for a in range(lat.n)]


def cjc_by_sets(lat):
    """The canonical join complex from the representations as frozensets: InvariantViolated unless they
    are lat.n distinct sets closed under dropping a vertex; the facets are the faces no vertex extends."""
    faces, irr = set(canonical_joinreps_by_covers(lat)), lat.join_irreducibles()
    if len(faces) != lat.n:
        raise InvariantViolated(f"{len(faces)} distinct canonical join representations for {lat.n} elements")
    if any(f - {v} not in faces for f in faces for v in f):
        raise InvariantViolated("the canonical join representations are not closed under dropping a vertex")
    facets = [f for f in faces if not any(j not in f and f | {j} in faces for j in irr)]
    return SimplicialComplex(facets, {a: str(lat.poset.labels[a]) for a in irr})


def cover_counts_by_element(lat):
    """Counter of (d, t) over the elements: d lower covers, t of them labelled by an atom."""
    labels, atomset, out = jsd_labeling(lat), set(lat.atoms()), Counter()
    for u in range(lat.n):
        lows = lat.poset.lower_covers(u)
        out[(len(lows), sum(1 for a in lows if labels[(a, u)] in atomset))] += 1
    return out


def graded_by_unpacking(p, rows, cols):
    """R^T leq C as a BiPoly, R and C the indicators of rows and cols: the row sums of the unpacked order,
    one per grade of rows, then summed by the grades of cols."""
    rows, leq = np.asarray(rows), p.leq
    acc = np.stack([leq[rows == g].sum(0) for g in range(rows.max(initial=0) + 1)]) @ _indicator(cols)
    return BiPoly({(i, j): int(c) for (i, j), c in np.ndenumerate(acc)})


def reconstruction_image_by_pairs(lat, geo, mo):
    """The element of lat each pair (A, B) of mo decodes to: the join of joins[s] over s in A."""
    return [lat.join_all(geo.joins[s] for s in mo.pair_sets(a)[0]) for a in range(mo.poset.n)]


@dataclass(frozen=True)
class PartialCore:
    """One element together with a chosen subset of its lower covers.

    ``nucleus`` is the meet of the element with the chosen covers, and
    ``neg`` counts the atoms among the element's canonical joinands whose
    cover was NOT chosen (the cover itself is never an atom; its label is
    what gets tested).
    """

    element: int
    covers: frozenset
    nucleus: int
    neg: int


def partial_cores(lat):
    """All (element, cover subset) pairs of a join-semidistributive lattice."""
    labels = jsd_labeling(lat)
    atomset = set(lat.atoms())
    out = []
    for u in range(lat.n):
        lows = lat.poset.lower_covers(u)
        total = sum(1 for a in lows if labels[(a, u)] in atomset)
        for r in range(len(lows) + 1):
            for chosen in combinations(lows, r):
                drop = sum(1 for a in chosen if labels[(a, u)] in atomset)
                out.append(
                    PartialCore(
                        element=u,
                        covers=frozenset(chosen),
                        nucleus=lat.meet_all([u, *chosen]),
                        neg=total - drop,
                    )
                )
    return out


def rank_poly(p):
    """Sum of x^rank over a graded poset: R^T 1."""
    return BiPoly({(r, 0): c for r, c in enumerate(np.bincount(p.rank_vector()).tolist())})


def char_poly(p):
    """Sum of mu(bottom, v) x^rank(v) over a graded bounded poset: the bottom row of mu R."""
    ranks = p.rank_vector()
    row = p.mobius_times(_indicator(ranks))[p.bottom()]
    return BiPoly({(r, 0): int(c) for r, c in enumerate(row)})


def is_shedding_vertex(cx, v):
    """Admissibility of one vertex: the three conditions checked directly."""
    link = cx.link([v])
    gone = cx.deletion([v])
    if any(f in gone.facets for f in link.facets):
        return False
    return is_vertex_decomposable(link) and is_vertex_decomposable(gone)


def f_transform_by_grid(m, n):
    """y^n * m((y+1)/(y-x), (y-x)/y), sampled with y > x >= 0 so no denominator vanishes."""

    def value(x0, y0):
        return Fraction(y0) ** n * m.eval_at(Fraction(y0 + 1, y0 - x0), Fraction(y0 - x0, y0))

    return interpolate_from_grid(list(range(n + 2)), list(range(n + 2, 2 * n + 4)), value)


def h_transform_by_grid(m, n):
    """(x(y-1)+1)^n * m(y/(y-1), x(y-1)/(x(y-1)+1)), sampled with x >= 0 and y >= 2."""

    def value(x0, y0):
        base = x0 * (y0 - 1) + 1
        return Fraction(base) ** n * m.eval_at(Fraction(y0, y0 - 1), Fraction(x0 * (y0 - 1), base))

    return interpolate_from_grid(list(range(n + 2)), list(range(2, n + 4)), value)


def word_rank(w, a):
    """Steps above the bottom word: missing A-letters plus present markers."""
    pos = sum(1 for x in w if x > 0)
    neg = len(w) - pos
    return a - pos + neg


def up_steps(w, a, b):
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


def shuffle_lattice_by_words(a, b):
    """Shuf(a, b) as (words, sorted cover pairs, labels): every word reached from the full A-word by
    ``up_steps``, one word at a time, ordered by ``word_rank`` and then as tuples, and rendered."""
    steps, todo = {}, [tuple(range(2, a + 2))]  # every word lies above the full A-word
    while todo:
        w = todo.pop()
        if w not in steps:
            steps[w] = up_steps(w, a, b)
            todo += steps[w]
    if len(steps) != shuffle_count(a, b):
        raise InvariantViolated(f"the cover rule reaches {len(steps)} words, not {shuffle_count(a, b)}")
    words = sorted(steps, key=lambda w: (word_rank(w, a), w))
    index = {w: i for i, w in enumerate(words)}
    return words, sorted((index[w], index[v]) for w in words for v in steps[w]), [render_word(w) for w in words]


def shuffle_words(a, b):
    """Every shuffle of a subword of 2..a+1 with a subword of the markers."""
    out = []
    letters_a = list(range(2, a + 2))
    letters_b = [-(j + 1) for j in range(b)]
    for ka in range(a + 1):
        for sub_a in combinations(letters_a, ka):
            for kb in range(b + 1):
                for sub_b in combinations(letters_b, kb):
                    ordered_b = sorted(sub_b, reverse=True)
                    for slots in combinations(range(ka + kb), ka):
                        word, ia, ib = [], 0, 0
                        for pos in range(ka + kb):
                            if pos in slots:
                                word.append(sub_a[ia])
                                ia += 1
                            else:
                                word.append(ordered_b[ib])
                                ib += 1
                        out.append(tuple(word))
    return sorted(set(out), key=lambda w: (word_rank(w, a), w))


def max_orthogonal_pairs(g):
    """Every maximal pair (A, B) of disjoint vertex sets of g with no edge from A into B, as
    bitmasks.  Orthogonality passes to smaller pairs, so a pair is maximal iff no single vertex
    can join either side."""
    full = (1 << g.k) - 1
    pairs = set()
    for a in range(full + 1):
        heads = 0  # vertices an edge from a lands on
        for s, t in g.edges:
            if a >> s & 1:
                heads |= 1 << t
        b = rest = full & ~a
        while True:  # every subset b of the vertices outside a
            if b & heads == 0:
                pairs.add((a, b))
            if b == 0:
                break
            b = (b - 1) & rest
    return {
        (a, b)
        for a, b in pairs
        if not any(
            (a | 1 << v, b) in pairs or (a, b | 1 << v) in pairs
            for v in range(g.k)
            if not (a | b) >> v & 1
        )
    }


def maximal_pairs_by_seeds(g):
    """The maximal orthogonal pairs (A, B) of g as bitmasks, sorted by (|A|, A): the fixed points
    of the antitone maps B -> the intersection of col[t] over t in B and A -> {t : A in col[t]},
    found by mapping every one of the 2**k seeds B there and back."""
    k = g.k
    col = _columns(g)
    seeds = np.arange(1 << k, dtype=np.int64)
    best_a = np.full_like(seeds, (1 << k) - 1)
    for t in range(k):
        best_a &= np.where(seeds >> t & 1 == 1, col[t], -1)  # -1: every bit kept
    back_b = np.zeros_like(seeds)
    for t in range(k):
        back_b |= (best_a & ~col[t] == 0).astype(np.int64) << t
    fixed = np.nonzero(back_b == seeds)[0]
    return sorted(((int(best_a[b]), int(b)) for b in fixed), key=lambda ab: (bin(ab[0]).count("1"), ab[0]))


def pair_order(mo):
    """The A-inclusion order on the pairs of ``mo``, with its covers from one product."""
    a_vals = np.array([a for a, _ in mo.pairs], dtype=np.int64)
    return FinitePoset.from_leq((a_vals[:, None] & ~a_vals[None, :]) == 0)


def induced(p, elements):
    """Subposet of p on the given elements, ids renumbered in the given order."""
    idx = list(elements)
    return FinitePoset.from_leq(p.leq[np.ix_(idx, idx)], labels=[p.labels[a] for a in idx])


def dual(p):
    """The opposite order of p, on the same ids and labels."""
    return FinitePoset(p.leq.T.copy(), [(b, a) for a, b in p.covers], p.labels)


def from_leq_by_product(leq, labels=None):
    """``FinitePoset.from_leq`` with one float32 product of the strict order: a reflexive,
    antisymmetric ``leq`` is transitive iff every two-step pair is strict, and its covers are
    the strict pairs with no two-step path.  The product counts two-step paths, which is exact
    while every count stays below 2**24, as it does at the sizes the tests use."""
    leq = np.asarray(leq, dtype=bool)
    if not leq.diagonal().all():
        raise ValueError("order matrix is not reflexive")
    lt = leq & ~np.eye(len(leq), dtype=bool)
    if np.any(lt & lt.T):
        raise CycleDetected("order matrix is not antisymmetric")
    strict = lt.astype(np.float32)
    two = (strict @ strict) > 0.5
    if np.any(two & ~lt):
        raise ValueError("order matrix is not transitive")
    covers = np.argwhere(lt & ~two).tolist()
    return FinitePoset(leq, covers, labels)


def toposort(m, up_adj, in_deg):
    """A topological order of the m elements with upper covers up_adj and in-degrees in_deg, by
    Kahn's queue; CycleDetected when some element is never reached."""
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


def heights_by_queue(p):
    """The longest chain ending at each element of p, in cover steps, relaxed cover by cover in
    the order of ``toposort``."""
    h, ups = [0] * p.n, [p.upper_covers(a) for a in range(p.n)]
    for a in toposort(p.n, ups, [len(p.lower_covers(a)) for a in range(p.n)]):
        for b in ups[a]:
            h[b] = max(h[b], h[a] + 1)
    return h


def mobius_times_by_rows(p, rhs):
    """``FinitePoset.mobius_times`` a row at a time: zeta @ W = rhs solved in reverse topological
    order, row a of W being rhs[a] less ``leq[a] @ W`` (row a is still zero, so this sums the rows
    above a), with the int64 bound checked before every row and once more at the end."""
    rhs = np.asarray(rhs, dtype=np.int64)
    w = np.zeros_like(rhs)
    bound = max(int(rhs.max(initial=0)), -int(rhs.min(initial=0)))  # grows by each row's max |w|
    for a in reversed(p._topo):
        check_int64("Mobius solve", bound)
        w[a] = rhs[a] - p.leq[a] @ w
        bound += int(np.abs(w[a]).max(initial=0))
    check_int64("Mobius solve", bound)
    return w


def chain_counts_by_matvec(p):
    """The chain counts behind ``FinitePoset.zeta``: the chains of j + 1 elements by their top
    element, one int64 mat-vec with the strict order for each j."""
    ends, counts = np.ones(p.n, dtype=np.int64), [p.n]
    for _ in range(p.length()):
        ends = np.einsum("a,ab->b", ends, p.leq) - ends
        counts.append(sum(ends.tolist()))
    return counts


def closure_by_covers(covers, m, labels=None):
    """``FinitePoset.closure`` a pair and a cover at a time: the pairs are validated in input order,
    then each row of the order is the OR of the rows of its upper covers, filled in reverse
    topological order, and the least input pair (a, b) with an element strictly between is named
    as no cover.  One float32 product of the strict order counts the elements between, which is
    exact while every count stays below 2**24, as it does at the sizes the tests use."""
    pairs = set()
    for a, b in covers:
        a, b = int(a), int(b)
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"element id out of range: ({a}, {b})")
        if a == b:
            raise CycleDetected(f"loop at element {a}")
        pairs.add((a, b))
    a, b = np.divmod(np.sort(np.fromiter((x * m + y for x, y in pairs), np.int64, len(pairs))), m)
    up_adj = [ups.tolist() for ups in np.split(b, np.searchsorted(a, np.arange(1, m)))]
    leq = np.zeros((m, m), dtype=bool)
    for x in reversed(toposort(m, up_adj, np.bincount(b, minlength=m).tolist())):
        row = leq[x]
        row[x] = True
        for y in up_adj[x]:
            np.logical_or(row, leq[y], out=row)
    strict = leq.astype(np.float32)
    np.fill_diagonal(strict, 0)
    if (hit := (strict @ strict)[a, b] > 0.5).any():
        a, b = int(a[np.argmax(hit)]), int(b[np.argmax(hit)])
        raise NotCover(f"({a}, {b}) is not a cover: interval has {(leq[a] & leq[:, b]).sum()} elements")
    return FinitePoset(leq, sorted(pairs), labels)


def lower_cover_triwords(u):
    """Lower covers of the triword u by the one-position-change rule."""
    last1, first0 = l1(u), f0(u)
    out = []
    if last1 > 0:
        out.append(u[: last1 - 1] + (0,) + u[last1:])
    for i, x in enumerate(u, start=1):
        if x == 2:
            drop = 1 if i < first0 else 0
            out.append(u[: i - 1] + (drop,) + u[i:])
    return out


def hoch_by_poset_doublings(n):
    """The doubling rebuild of Hoch(n) as a chain of posets: every step is a ``doubling``, whose
    covers ``FinitePoset.closure`` closes, then a re-wrap that flips the last letter of the new copy of the interval."""
    poset = FinitePoset.closure([], 1, labels=[()])  # labels are the triwords

    def double_and_decode(lo, hi, flip_to):
        nonlocal poset
        words = poset.labels
        members = {words[a] for a in interval(poset, lo, hi)}
        doubled = doubling(poset, (lo, hi))
        fresh = [u[:-1] + (flip_to,) if copy == 1 and u in members else u for u, copy in doubled.labels]
        poset = FinitePoset(doubled.leq, doubled.covers, labels=fresh)

    for step in range(1, n + 1):
        poset = FinitePoset(poset.leq, poset.covers, labels=[u + (0,) for u in poset.labels])
        double_and_decode(poset.bottom(), poset.top(), 1 if step == 1 else 2)
        if step > 1:
            index = {u: i for i, u in enumerate(poset.labels)}
            double_and_decode(index[(1,) * (step - 1) + (0,)], index[(1,) + (2,) * (step - 2) + (0,)], 1)
    return poset


def interval(p, a, b):
    """Elements c with a <= c <= b, ascending by id."""
    return [int(c) for c in np.nonzero(p.leq[a] & p.leq[:, b])[0]]


def enumerate_triwords(n):
    """All triwords of length n in lexicographic order, grown by recursion one letter at a time."""
    check_n(n)
    words = []

    def grow(prefix, seen_zero):
        if len(prefix) == n:
            words.append(prefix)
            return
        for x in (0, 1, 2):
            if x == 2 and not prefix:
                continue
            if x == 1 and seen_zero:
                continue
            grow(prefix + (x,), seen_zero or x == 0)

    grow((), False)
    return tuple(words)


def l1(u):
    """Position of the last 1 (1-based), 0 if none."""
    out = 0
    for i, x in enumerate(u, start=1):
        if x == 1:
            out = i
    return out


def f0(u):
    """Position of the first 0 (1-based), n+1 if none."""
    for i, x in enumerate(u, start=1):
        if x == 0:
            return i
    return len(u) + 1


def canrep_formula(u):
    """Canonical join representation: a at the last 1, b at every 2."""
    out = set()
    last1 = l1(u)
    if last1 > 0:
        out.add(a_irr(last1))
    for i, x in enumerate(u, start=1):
        if x == 2:
            out.add(b_irr(i))
    return frozenset(out)


def core_labels_formula(u):
    """Core label set: a-run from the last 1 up to the first 0, plus all b's."""
    out = set()
    last1, first0 = l1(u), f0(u)
    if last1 > 0:
        for i in range(last1, first0):
            out.add(a_irr(i))
    for i, x in enumerate(u, start=1):
        if x == 2:
            out.add(b_irr(i))
    return frozenset(out)


def psi_inverse(n, labels):
    """The triword whose core label set is ``labels``: the b's as 2s, the least a as the last 1."""
    check_n(n)
    try:
        labels = frozenset(labels)
    except TypeError:
        raise MalformedLabelSet("not a set of labels") from None
    if not all(isinstance(j, HochIrreducible) for j in labels):
        raise MalformedLabelSet("an element is not a label")
    a_idx = sorted(j.index for j in labels if j.kind == "a")
    b_idx = sorted(j.index for j in labels if j.kind == "b")
    if any(not 1 <= j.index <= n for j in labels):
        raise MalformedLabelSet(f"label index out of range for n={n}")
    w = [None] * n
    for i in b_idx:
        if w[i - 1] is not None:
            raise MalformedLabelSet("repeated position")
        w[i - 1] = 2
    if a_idx:
        last1 = a_idx[0]
        if w[last1 - 1] is not None:
            raise MalformedLabelSet("a-run begins on an occupied position")
        w[last1 - 1] = 1
        for i in range(1, last1):
            if w[i - 1] is None:
                w[i - 1] = 1
    u = tuple(0 if x is None else x for x in w)
    if not is_triword(u) or core_labels_formula(u) != labels:
        raise MalformedLabelSet(f"no triword has core label set {sorted(labels)}")
    return u


def is_shuffle_word(w, a, b):
    """Letters in 2..a+1 or -1..-b, each part ascending without repeats (markers by -x)."""
    pos = [x for x in w if x > 0]
    neg = [-x for x in w if x < 0]
    if any(x == 0 or x == 1 or x > a + 1 or -x > b for x in w):
        return False
    return sorted(set(pos)) == pos and sorted(set(neg)) == neg


def sigma(u):
    """Triword to one-marker shuffle word: the non-2 positions 2..n, the marker after l1(u)."""
    n = len(u)
    tau = [i for i in range(2, n + 1) if u[i - 1] != 2]
    last1 = l1(u)
    if last1 == 0:
        return tuple(tau)
    if last1 == 1:
        return tuple([-1] + tau)
    k = tau.index(last1)
    return tuple(tau[: k + 1] + [-1] + tau[k + 1 :])


def sigma_inverse(n, w):
    """The triword sigma sends to w: absent letters are 2s, present ones 1 up to the marker.  A w that is
    no iterable, or a letter that is no int by ``operator.index`` (a TypeError), is a MalformedWord too."""
    try:
        w = tuple(w)
        for x in w:
            index(x)
        return _sigma_inverse(n, w)
    except TypeError:
        raise MalformedWord(f"{w!r} is not a valid one-marker shuffle word for n={n}") from None


def _sigma_inverse(n, w):
    if not is_shuffle_word(w, n - 1, 1):
        raise MalformedWord(f"{w!r} is not a valid one-marker shuffle word for n={n}")
    present = [x for x in w if x > 0]
    u = [None] * n
    for i in range(2, n + 1):
        if i not in present:
            u[i - 1] = 2
    if -1 not in w:
        u[0] = 0
        for i in present:
            u[i - 1] = 0
    else:
        k = w.index(-1)
        prev = w[k - 1] if k > 0 else 1
        u[0] = 1
        for i in present:
            u[i - 1] = 1 if i <= prev else 0
    out = tuple(u)
    if sigma(out) != tuple(w):
        raise MalformedWord(f"{w!r} does not come from a triword of length {n}")
    return out


def neg_stat(u):
    """Number of 2s in the word, plus one when the last 1 sits in slot 1."""
    return sum(1 for c in u if c == 2) + (1 if l1(u) == 1 else 0)


def f_tilde_by_products(n):
    """The sum of x^(n-c) (x+1)^(c-g) (y+1)^g over the triwords, c a word's canonical joinands and g its
    ``neg_stat``, each power raised afresh."""
    x, y, one, acc = BiPoly.x(), BiPoly.y(), BiPoly.const(1), BiPoly()
    for u in enumerate_triwords(n):
        c, g = len(canrep_formula(u)), neg_stat(u)
        acc += x ** (n - c) * (x + one) ** (c - g) * (y + one) ** g
    return acc


def antichains(p):
    """All antichains of p as frozensets, the empty one first, each followed by its extensions."""
    incomparable = ~(p.leq | p.leq.T)
    out = []
    chosen = []

    def grow(start):
        out.append(frozenset(chosen))
        for a in range(start, p.n):
            if all(incomparable[a, c] for c in chosen):
                chosen.append(a)
                grow(a + 1)
                chosen.pop()

    grow(0)
    return out


def antichain_counts(p, atoms):
    """{(size, atoms in it): count} over the antichains of p, one frozenset at a time."""
    counts = {}
    for anti in antichains(p):
        key = (len(anti), len(anti & atoms))
        counts[key] = counts.get(key, 0) + 1
    return counts


def lattice_law_by_pairs(n, meet_code=hoch_meet_code):
    """Join and meet rows of Hoch(n) against OR and ``meet_code`` on the codes; both are symmetric,
    so row a only up to a.  A cover changes one letter: its codes' XOR, halves ORed, is a single bit."""
    h = build_hoch(n)
    lat, codes = h.lattice, h.codes
    rows_ok = all(
        (codes[lat.join(a)[: a + 1]] == codes[a] | codes[: a + 1]).all()
        and (codes[lat.meet(a)[: a + 1]] == meet_code(codes[a], codes[: a + 1], n)).all()
        for a in range(lat.n)
    )
    ends = codes.take(lat.covers, axis=0)
    d = ends[:, 0] ^ ends[:, 1]
    e = d & ((1 << n) - 1) | d >> n
    return rows_ok and bool(((e != 0) & (e & (e - 1) == 0)).all())


def closed_under_intersection(masks):
    """Whether every pairwise intersection of the masks (int64 or Python ints) is again one."""
    values = np.sort(masks)
    values = values[np.diff(values, prepend=-1) != 0]  # repeats dropped; masks are >= 0
    for a in range(len(values) - 1):
        meets = values[a] & values[a + 1 :]  # each <= values[a], so searchsorted stays in range
        if (values[np.searchsorted(values, meets)] != meets).any():
            return False
    return True


def masks_embed_order(masks, leq):
    """Whether x <= y exactly when masks[x] lies inside masks[y], over all m x m pairs, rows in blocks
    of about 2**16 pairs."""
    step = max(1, 2**16 // max(len(masks), 1))
    return all(
        (((masks[s : s + step, None] & masks) == masks[s : s + step, None]) == leq[s : s + step]).all()
        for s in range(0, len(masks), step)
    )
