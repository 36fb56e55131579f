import hashlib
import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochlat import limits
from hochlat import poset as poset_module
from hochlat.errors import (
    CycleDetected,
    InvariantViolated,
    NotBounded,
    NotCover,
    NotGraded,
    NotInterval,
    SizeBound,
)
from hochlat.hochschild import build_hoch
from hochlat.poset import (
    FinitePoset,
    are_isomorphic,
    doubling,
)
from hochlat.polynomials import interpolate_univariate
from hochlat.shuffles import shuffle_lattice
from oracles import closure_by_covers, dual, from_leq_by_product, induced, interval


def chain(k):
    return FinitePoset.closure([(i, i + 1) for i in range(k - 1)], k)


def antichain(k):
    return FinitePoset.closure([], k)


def boolean(n):
    """Subset lattice on bitmask ids, built from single-bit covers."""
    covers = []
    for s in range(1 << n):
        for i in range(n):
            if not s >> i & 1:
                covers.append((s, s | 1 << i))
    return FinitePoset.closure(covers, 1 << n)


def pentagon():
    # 0 < 1 < 2 < 4 and 0 < 3 < 4: maximal chains of two different lengths
    return FinitePoset.closure([(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], 5)


def brute_leq(covers, m):
    """Independent reflexive-transitive closure by fixpoint iteration."""
    rel = {(a, a) for a in range(m)} | {(a, b) for a, b in covers}
    while True:
        extra = {(a, d) for a, b in rel for c, d in rel if b == c} - rel
        if not extra:
            return rel
        rel |= extra


def test_closure_three_chain_has_six_pairs():
    p = chain(3)
    assert int(np.count_nonzero(p.leq)) == 6
    assert p.covers == ((0, 1), (1, 2))


def test_closure_matches_brute_force_closure():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randrange(2, 9)
        edges = set()
        for a in range(m):
            for b in range(a + 1, m):
                if rng.random() < 0.3:
                    edges.add((a, b))
        rel = brute_leq(edges, m)
        # keep only the covers of the generated order
        cov = [
            (a, b)
            for a, b in edges
            if not any((a, c) in rel and (c, b) in rel and c not in (a, b) for c in range(m))
        ]
        p = FinitePoset.closure(cov, m)
        expect = brute_leq(cov, m)
        got = {(a, b) for a in range(m) for b in range(m) if p.leq[a, b]}
        assert got == expect


def test_closure_rejects_cycles_and_non_covers():
    with pytest.raises(CycleDetected):
        FinitePoset.closure([(0, 1), (1, 0)], 2)
    with pytest.raises(CycleDetected):
        FinitePoset.closure([(0, 0)], 1)
    with pytest.raises(NotCover):
        FinitePoset.closure([(0, 1), (1, 2), (0, 2)], 3)


def test_closure_reports_the_least_non_cover():
    # the chain 0 < 1 < 2 < 3 with shortcuts; the least of the non-cover pairs is named, whatever
    # the order of the input
    with pytest.raises(NotCover, match=r"^\(0, 2\) is not a cover: interval has 3 elements$"):
        FinitePoset.closure([(1, 3), (0, 3), (0, 1), (1, 2), (2, 3), (0, 2)], 4)
    with pytest.raises(NotCover, match=r"^\(0, 3\) is not a cover: interval has 4 elements$"):
        FinitePoset.closure([(2, 3), (1, 3), (0, 1), (1, 2), (0, 3)], 4)


def test_closure_cover_check_matches_interval_counts():
    """NotCover fires exactly when some input pair's interval has other than 2 elements (the
    per-pair count), and its message names such a pair with that count."""
    rng = random.Random(12)
    fired = 0
    for _ in range(400):
        m = rng.randrange(2, 10)
        edges = {(a, b) for a in range(m) for b in range(a + 1, m) if rng.random() < 0.35}
        rel = brute_leq(edges, m)
        strict = sorted((a, b) for a, b in rel if a != b)
        pairs = {
            (a, b) for a, b in strict if not any((a, c) in rel and (c, b) in rel for c in set(range(m)) - {a, b})
        }
        pairs |= set(rng.sample(strict, min(len(strict), rng.randrange(3))))  # shortcut edges
        perm = rng.sample(range(m), m)
        pairs = [(perm[a], perm[b]) for a, b in pairs]
        leq = np.zeros((m, m), dtype=bool)
        for a, b in rel:
            leq[perm[a], perm[b]] = True
        counts = {(a, b): int(np.count_nonzero(leq[a] & leq[:, b])) for a, b in pairs}
        if all(k == 2 for k in counts.values()):
            assert (FinitePoset.closure(pairs, m).leq == leq).all()
            continue
        fired += 1
        with pytest.raises(NotCover) as err:
            FinitePoset.closure(pairs, m)
        found = re.fullmatch(r"\((\d+), (\d+)\) is not a cover: interval has (\d+) elements", str(err.value))
        a, b, k = map(int, found.groups())
        assert counts[(a, b)] == k != 2
    assert 50 < fired < 350


def closure_outcome(build, covers, m, labels=None):
    """The SHA-256 digests of the order, the covers and the labels a closure builds, or the type
    and message of the error it raises."""
    try:
        p = build(covers, m, labels)
    except (ValueError, CycleDetected, NotCover) as err:
        return type(err), str(err)
    parts = p.leq.tobytes(), repr(p.covers).encode(), repr(p.labels).encode()
    return tuple(hashlib.sha256(x).hexdigest() for x in parts)


def scrambled(covers, rng):
    """The pairs in random order, about a quarter of them twice."""
    pairs = [tuple(pair) for pair in covers]
    pairs += rng.sample(pairs, len(pairs) // 4)
    rng.shuffle(pairs)
    return pairs


def random_dag_covers(rng):
    """The covers of the order a random DAG generates, on random ids: (covers, m)."""
    m = rng.randrange(1, 40)
    perm = np.array(rng.sample(range(m), m))
    lt = np.triu(np.array([[rng.random() < 0.15 for _ in range(m)] for _ in range(m)]), 1)
    for c in range(m):  # transitive closure, one intermediate element at a time
        lt |= lt[:, c : c + 1] & lt[c]
    two = (lt.astype(np.int64) @ lt.astype(np.int64)) > 0
    a, b = np.nonzero(lt & ~two)
    return list(zip(perm[a].tolist(), perm[b].tolist())), m


def test_closure_matches_the_per_cover_oracle():
    """Digest-identical order, covers and labels to the per-cover closure on Hoch(1..10),
    Bool(0..12), Shuf(a <= 3, b <= 2) and 200 random orders, given shuffled and with repeats."""
    rng = random.Random(21)
    lattices = [build_hoch(n).lattice for n in range(1, 11)]
    lattices += [shuffle_lattice(a, b).lattice for a in range(4) for b in range(3)]
    cases = [(lat.covers, lat.n, lat.poset.labels) for lat in lattices]
    cases += [(boolean(n).covers, 1 << n, None) for n in range(13)]
    cases += [(*random_dag_covers(rng), None) for _ in range(200)]
    for covers, m, labels in cases:
        pairs = scrambled(covers, rng)
        got = closure_outcome(FinitePoset.closure, pairs, m, labels)
        assert len(got) == 3 and got == closure_outcome(closure_by_covers, pairs, m, labels)
    lat = build_hoch(6).lattice
    pairs = np.array(scrambled(lat.covers, rng))  # a (k, 2) array is taken as it is
    got = closure_outcome(FinitePoset.closure, pairs, lat.n)
    assert len(got) == 3 and got == closure_outcome(closure_by_covers, pairs, lat.n)


def test_closure_errors_match_the_per_cover_oracle():
    """The same error type and message as the per-cover closure on seeded bad inputs: an id out
    of range, a loop, both (the first in input order is named), a cycle, and added transitive
    pairs (the least non-cover is named)."""
    rng = random.Random(22)
    seen = set()
    for _ in range(300):
        covers, m = random_dag_covers(rng)
        p = FinitePoset.closure(covers, m)
        strict = [(int(a), int(b)) for a, b in zip(*np.nonzero(p.leq)) if a != b and (a, b) not in p.covers]
        x = rng.randrange(m)
        out_of_range = rng.choice([(x, m + rng.randrange(3)), (-1, x), (m, m)])
        kind = rng.choice(["range", "loop", "both", "cycle"] + ["shortcut"] * bool(strict))
        if kind == "both":
            bad = rng.sample([out_of_range, (x, x)], 2)
            expect = ValueError if bad[0] == out_of_range else CycleDetected
        else:
            bad = {
                "range": [out_of_range],
                "loop": [(x, x)],
                "cycle": [tuple(reversed(rng.choice(strict + list(p.covers))))] if covers else [(x, x)],
                "shortcut": rng.sample(strict, min(len(strict), rng.randrange(1, 4))),
            }[kind]
            expect = {"range": ValueError, "shortcut": NotCover}.get(kind, CycleDetected)
        pairs = scrambled(covers, rng)
        for at, pair in zip(sorted(rng.sample(range(len(pairs) + len(bad)), len(bad))), bad):
            pairs.insert(at, pair)  # in the order of bad
        got = closure_outcome(FinitePoset.closure, pairs, m)
        assert got[0] is expect and got == closure_outcome(closure_by_covers, pairs, m)
        seen.add(kind)
    assert seen == {"range", "loop", "both", "cycle", "shortcut"}


def test_bounds_and_length():
    p = boolean(3)
    assert p.bottom() == 0 and p.top() == 7
    assert p.length() == 3
    assert chain(4).length() == 3
    with pytest.raises(NotBounded):
        antichain(2).bottom()


def test_mobius_boolean_is_alternating():
    p = boolean(3)
    for s in range(8):
        for t in range(8):
            expect = 0
            if s & t == s:
                expect = (-1) ** bin(t ^ s).count("1")
            assert p.mobius(s, t) == expect
    assert p.mobius(0, 7) == -1


def test_mobius_incomparable_is_zero():
    p = antichain(3)
    assert p.mobius(0, 1) == 0


def test_mobius_dual_sum_identity():
    # for a < b the interval sums of mu(a, .) telescope to zero
    for p in (boolean(3), chain(5), pentagon()):
        for a in range(p.n):
            for b in range(p.n):
                if a != b and p.leq[a, b]:
                    assert sum(p.mobius(a, c) for c in interval(p, a, b)) == 0


def brute_multichains(p, k):
    if k == 0:
        return 1
    total = 0
    for tup in itertools.product(range(p.n), repeat=k):
        if all(p.leq[tup[i], tup[i + 1]] for i in range(k - 1)):
            total += 1
    return total


def test_zeta_counts_multichains():
    for p in (chain(2), chain(3), boolean(2), pentagon()):
        for q in range(1, 5):
            assert p.zeta(q) == brute_multichains(p, q - 1)
        assert p.zeta(1) == 1
        assert p.zeta(2) == p.n


def test_zeta_polynomial_extends_to_all_sampled_counts():
    for p in (boolean(3), chain(4), pentagon()):
        coeffs = interpolate_univariate(p.zeta_points())
        for q in range(1, p.length() + 4):
            assert sum(c * q**k for k, c in enumerate(coeffs)) == p.zeta(q)


def recursive_mobius(p, a, b, memo=None):
    """The per-pair recursion: mu(b, b) = 1 and mu(c, b) = -(sum of mu(d, b) over c < d <= b)."""
    if not p.leq[a, b]:
        return 0
    memo = {} if memo is None else memo
    if (a, b) not in memo:
        above = (recursive_mobius(p, d, b, memo) for d in interval(p, a, b) if d != a)
        memo[(a, b)] = 1 if a == b else -sum(above)
    return memo[(a, b)]


@st.composite
def random_posets(draw):
    """Closure of a random DAG on 1..8 elements, with ids shuffled so id order is no linear extension."""
    m = draw(st.integers(1, 8))
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    perm = draw(st.permutations(range(m)))
    leq = np.zeros((m, m), dtype=bool)
    for a, b in brute_leq(edges, m):
        leq[perm[a], perm[b]] = True
    return FinitePoset.from_leq(leq)


POSET_SETTINGS = settings(max_examples=150, deadline=None, database=None)


@POSET_SETTINGS
@given(random_posets(), st.integers(0, 2**32))
def test_mobius_solve_matches_recursion(p, seed):
    memo = {}
    mu = np.array([[recursive_mobius(p, a, b, memo) for b in range(p.n)] for a in range(p.n)])
    assert (p.mobius_times(np.eye(p.n, dtype=np.int64)) == mu).all()
    rhs = np.random.default_rng(seed).integers(-5, 6, size=(p.n, 3))
    assert (p.mobius_times(rhs) == mu @ rhs).all()
    assert (p.mobius_times(rhs[:, 0]) == mu @ rhs[:, 0]).all()
    assert all(p.mobius(a, b) == mu[a, b] for a in range(p.n) for b in range(p.n))


@POSET_SETTINGS
@given(random_posets())
def test_zeta_matches_multichains_on_random_posets(p):
    for q in range(1, 5):
        assert p.zeta(q) == brute_multichains(p, q - 1)


def test_from_leq_rejects_non_orders():
    with pytest.raises(ValueError, match="not reflexive"):
        FinitePoset.from_leq([[True, True], [False, False]])
    with pytest.raises(CycleDetected, match="not antisymmetric"):
        FinitePoset.from_leq(np.ones((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="not transitive"):  # 0 < 1 < 2 without 0 < 2
        FinitePoset.from_leq([[True, True, False], [False, True, True], [False, False, True]])


def test_from_leq_rejects_non_square_matrices():
    for bad in ([[True, False, True]], [True]):
        with pytest.raises(ValueError, match="order matrix must be square"):
            FinitePoset.from_leq(bad)
    assert FinitePoset.from_leq(np.zeros((0, 0), dtype=bool)).n == 0
    assert FinitePoset.from_leq([[True]]).covers == ()


@POSET_SETTINGS
@given(random_posets(), st.data())
def test_from_leq_covers_and_transitivity_match_brute_force(p, data):
    lt = p.leq & ~np.eye(p.n, dtype=bool)

    def between(a, b):
        return any(lt[a, c] and lt[c, b] for c in range(p.n))

    assert p.covers == tuple((a, b) for a in range(p.n) for b in range(p.n) if lt[a, b] and not between(a, b))
    assert p.covers == from_leq_by_product(p.leq).covers
    # Dropping one strict pair that has an element between leaves a relation that is not transitive.
    gaps = [(a, b) for a in range(p.n) for b in range(p.n) if lt[a, b] and between(a, b)]
    if gaps:
        a, b = data.draw(st.sampled_from(gaps))
        leq = p.leq.copy()
        leq[a, b] = False
        for build in (FinitePoset.from_leq, from_leq_by_product):
            with pytest.raises(ValueError, match="not transitive"):
                build(leq)


def test_mobius_solve_guards_int64(monkeypatch):
    assert boolean(3).mobius(0, 7) == -1
    monkeypatch.setattr(limits, "INT64_BOUND", 4)
    with pytest.raises(SizeBound, match="Mobius solve"):
        boolean(3).mobius(0, 7)
    assert chain(2).mobius(0, 1) == -1  # every sum stays below 4


def test_chain_counts_guard_int64(monkeypatch):
    assert boolean(3).zeta(4) == 64
    monkeypatch.setattr(limits, "INT64_BOUND", 8)
    with pytest.raises(SizeBound, match="chain count"):
        boolean(3).zeta(4)  # 8 one-element chains already reach the bound
    assert chain(3).zeta(4) == 10


def test_mobius_invariant_via_zeta_matches_recursion():
    for p in (chain(2), chain(5), boolean(2), boolean(3), boolean(4), pentagon()):
        assert p.mobius_invariant_via_zeta() == p.mobius(p.bottom(), p.top())


def test_rank_profile():
    assert boolean(4).rank_profile() == [1, 4, 6, 4, 1]
    assert chain(3).rank_profile() == [1, 1, 1]
    with pytest.raises(NotGraded):
        pentagon().rank_profile()


def test_count_maximal_chains():
    assert boolean(3).count_maximal_chains() == 6
    assert chain(6).count_maximal_chains() == 1
    assert pentagon().count_maximal_chains() == 2


def test_antichains():
    assert len(antichain(3).antichains()) == 8
    assert len(chain(4).antichains()) == 5
    # Dedekind count for the free distributive lattice side: antichains of 2^[3]
    assert len(boolean(3).antichains()) == 20
    for a in boolean(3).antichains():
        for x, y in itertools.combinations(sorted(a), 2):
            assert not boolean(3).leq[x, y] and not boolean(3).leq[y, x]


def test_interval_and_induced():
    p = boolean(3)
    assert interval(p, 0, 7) == list(range(8))
    assert interval(p, 1, 1) == [1]
    sub = induced(p, interval(p, 0, 3))  # square on {0,1,2,3}
    assert sub.n == 4 and len(sub.covers) == 4


def test_dual_flips_covers():
    p = dual(chain(3))
    assert p.covers == ((1, 0), (2, 1))
    assert p.bottom() == 2


def test_doubling_singleton_gives_two_chain():
    single = FinitePoset.closure([], 1)
    d = doubling(single, (0, 0))
    assert d.n == 2 and d.covers == ((0, 1),)


def test_doubling_size_formula():
    for p, (lo, hi) in [
        (chain(2), (0, 1)),
        (boolean(2), (1, 3)),
        (boolean(3), (1, 5)),
        (chain(4), (1, 2)),
    ]:
        d = doubling(p, (lo, hi))
        ideal = sum(1 for a in range(p.n) if p.leq[a, hi])
        members = len(interval(p, lo, hi))
        assert d.n == ideal + (p.n - ideal) + members


def test_doubling_requires_interval():
    with pytest.raises(NotInterval):
        doubling(antichain(2), (0, 1))


def test_doubling_chain_by_full_is_grid():
    d = doubling(chain(2), (0, 1))
    # (a, copy) sits at bitmask a + 2 * copy of the square
    assert are_isomorphic(d, boolean(2), [int(a) + 2 * c for a, c in d.labels])


def test_are_isomorphic_positive_cases():
    assert are_isomorphic(chain(4), chain(4), range(4))
    assert are_isomorphic(boolean(4), boolean(4), range(16))
    # complement is an isomorphism from the subset lattice onto its dual
    assert are_isomorphic(boolean(3), dual(boolean(3)), [7 - s for s in range(8)])
    assert are_isomorphic(antichain(0), antichain(0), [])


def test_are_isomorphic_random_relabelings():
    rng = random.Random(11)
    base = boolean(3)
    for _ in range(5):
        perm = list(range(base.n))
        rng.shuffle(perm)
        covers = [(perm[a], perm[b]) for a, b in base.covers]
        q = FinitePoset.closure(covers, base.n)
        assert are_isomorphic(base, q, perm)
        inverse = [perm.index(x) for x in range(base.n)]
        assert are_isomorphic(q, base, inverse)


def test_are_isomorphic_negative_cases():
    # size mismatch, with every short or long image
    assert not are_isomorphic(chain(3), chain(4), range(3))
    assert not are_isomorphic(chain(3), chain(4), range(4))
    assert not are_isomorphic(chain(4), chain(3), range(4))
    # not a bijection: a repeated id, an out-of-range id, a short image
    assert not are_isomorphic(chain(3), chain(3), [0, 1, 1])
    assert not are_isomorphic(chain(3), chain(3), [0, 1, -1])
    assert not are_isomorphic(chain(3), chain(3), [0, 1, 3])
    assert not are_isomorphic(chain(3), chain(3), [0, 1])
    # ... also where the mapped covers match: no covers at all, or -1 keyed as the id below it
    assert not are_isomorphic(antichain(2), antichain(2), [0, 0])
    assert not are_isomorphic(antichain(2), antichain(2), [0, 2])
    assert not are_isomorphic(chain(2), chain(2), [1, -1])
    # a bijection that breaks covers
    assert not are_isomorphic(chain(3), chain(3), [1, 0, 2])
    # covers land in covers but do not cover them all
    assert not are_isomorphic(antichain(4), chain(4), range(4))
    assert not are_isomorphic(chain(4), antichain(4), range(4))
    # same size and cover count, different shape
    v = FinitePoset.closure([(0, 2), (1, 2), (2, 3)], 4)
    y = FinitePoset.closure([(0, 1), (1, 2), (1, 3)], 4)
    for perm in itertools.permutations(range(4)):
        assert not are_isomorphic(v, y, perm)


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError, match="square"):
        FinitePoset(np.ones((2, 3), dtype=bool), [])
    with pytest.raises(ValueError, match="square"):
        FinitePoset(np.ones(3, dtype=bool), [])
    with pytest.raises(ValueError, match="labels"):
        FinitePoset(np.eye(2, dtype=bool), [], labels=["only one"])


def test_mobius_via_zeta_rejects_fractional_value(monkeypatch):
    monkeypatch.setattr(poset_module, "interpolate_univariate", lambda points: [Fraction(1, 2)])
    with pytest.raises(InvariantViolated, match="not an integer"):
        chain(3).mobius_invariant_via_zeta()


def test_json_and_dot_exports_are_deterministic():
    p = chain(3)
    data = p.to_json()
    assert data == {"n_elements": 3, "covers": [[0, 1], [1, 2]], "labels": ["0", "1", "2"]}
    dot = p.to_dot()
    assert dot == p.to_dot()
    assert "0 -> 1;" in dot and "rankdir=BT" in dot
