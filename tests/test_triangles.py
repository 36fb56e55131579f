"""Agreement tests between the independent routes to each polynomial."""

import random
import re
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from test_lattice import certification_corpus, chain_lattice, mask_corpus, seeded_lattices
from test_poset import recursive_mobius

from hochlat import triangles
from hochlat.checks import check_h_triangle
from hochlat.errors import InvariantViolated, NotGraded, SizeBound
from hochlat.hochschild import build_hoch, canrep_formula, enumerate_triwords, l1, triword_count
from hochlat.lattice import build_bool, canonical_joinrep, clo
from hochlat.limits import MAX_N
from hochlat.polynomials import BiPoly
from hochlat.poset import FinitePoset
from hochlat.shuffles import shuffle_lattice
from hochlat.triangles import (
    JPoset,
    boolean_baselines,
    char_poly_closed,
    f_closed,
    f_from_m,
    f_tilde,
    f_transform,
    face_count_closed,
    face_vector,
    g_conjecture_check,
    g_conjecture_closed,
    g_triangle,
    h_closed,
    h_from_antichains,
    h_from_m,
    h_tilde,
    h_transform,
    j_poset,
    m_closed,
    m_triangle,
    rank_poly_closed,
    shuffle_char_closed,
)
from oracles import (
    antichain_counts,
    antichains,
    canonical_joinreps_by_covers,
    f_tilde_by_products,
    char_poly,
    core_label_set,
    cover_counts_by_element,
    f_transform_by_grid,
    graded_by_unpacking,
    h_transform_by_grid,
    interval,
    neg_stat,
    partial_cores,
    rank_poly,
    word_rank,
)

X = BiPoly.x()
Y = BiPoly.y()
ONE = BiPoly.const(1)

# Ten terms, fixed by hand once and for all.
M3 = (
    ONE
    + 5 * X * Y
    + 5 * X**2 * Y**2
    + X**3 * Y**3
    - 5 * Y
    + 7 * Y**2
    - 3 * Y**3
    - 12 * X * Y**2
    + 7 * X * Y**3
    - 5 * X**2 * Y**3
)

# (canonical joinand count, atom joinand count) per length-3 triword.
STATS_3 = {
    (0, 0, 0): (0, 0),
    (0, 0, 2): (1, 1),
    (0, 2, 0): (1, 1),
    (0, 2, 2): (2, 2),
    (1, 0, 0): (1, 1),
    (1, 0, 2): (2, 2),
    (1, 1, 0): (1, 0),
    (1, 1, 1): (1, 0),
    (1, 1, 2): (2, 1),
    (1, 2, 0): (2, 2),
    (1, 2, 1): (2, 1),
    (1, 2, 2): (3, 3),
}


def clo_of(n):
    return clo(build_hoch(n).lattice)


def at_y1(p):
    terms = {}
    for (i, j), c in p.terms.items():
        terms[(i, 0)] = terms.get((i, 0), 0) + c
    return BiPoly(terms)


def x_section(p):
    """Terms of p with no x, re-read as a polynomial in one variable."""
    return BiPoly({(j, 0): c for (i, j), c in p.terms.items() if i == 0})


# -- rank and characteristic ---------------------------------------------------


def test_rank_poly_matches_closed():
    for n in range(1, 7):
        assert rank_poly(clo_of(n)) == rank_poly_closed(n)
    assert rank_poly_closed(3) == X**3 + 5 * X**2 + 5 * X + ONE


def test_char_poly_matches_closed():
    for n in range(1, 7):
        assert char_poly(clo_of(n)) == char_poly_closed(n)
    assert char_poly_closed(3) == (ONE - X) ** 2 * (ONE - 3 * X)
    assert char_poly_closed(3) == -3 * X**3 + 7 * X**2 - 5 * X + ONE


def test_shuffle_char_matches_definitional():
    for a, b in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (2, 3), (4, 1)]:
        assert char_poly(shuffle_lattice(a, b).lattice.poset) == shuffle_char_closed(a, b)


def test_shuffle_char_special_cases():
    assert shuffle_char_closed(0, 0) == ONE
    assert shuffle_char_closed(1, 1) == 2 * X**2 - 3 * X + ONE
    for n in range(1, 5):
        assert shuffle_char_closed(n, 0) == (ONE - X) ** n
    for n in range(2, 7):
        assert shuffle_char_closed(n - 1, 1) == char_poly_closed(n)


# -- the per-pair loops, kept as oracles for the graded solves --------------------


def m_by_pairs(p):
    """Sum of mu(a, b) x^rank(a) y^rank(b) over comparable pairs, mu by the per-pair recursion."""
    ranks, memo, terms = p.rank_vector(), {}, {}
    for b in range(p.n):
        for a in range(p.n):
            if p.leq[a, b]:
                key = (ranks[a], ranks[b])
                terms[key] = terms.get(key, 0) + recursive_mobius(p, a, b, memo)
    return BiPoly(terms)


def char_by_pairs(p):
    ranks, bot, memo, terms = p.rank_vector(), p.bottom(), {}, {}
    for v in range(p.n):
        terms[(ranks[v], 0)] = terms.get((ranks[v], 0), 0) + recursive_mobius(p, bot, v, memo)
    return BiPoly(terms)


def rank_corank_pairs(p, ranks, top):
    """Comparable pairs a <= b counted by x^ranks[a] y^(top - ranks[b])."""
    terms = {}
    for b in range(p.n):
        for a in range(p.n):
            if p.leq[a, b]:
                key = (ranks[a], top - ranks[b])
                terms[key] = terms.get(key, 0) + 1
    return BiPoly(terms)


def oracle_posets():
    yield from (clo_of(n) for n in range(1, 7))
    yield from (shuffle_lattice(a, b).lattice.poset for a in range(4) for b in range(3))
    yield from (build_bool(n).poset for n in range(6))


def test_m_and_char_match_pair_loops():
    for p in oracle_posets():
        assert m_triangle(p) == m_by_pairs(p)
        assert char_poly(p) == char_by_pairs(p)


def test_g_triangle_and_boolean_f_match_pair_loops():
    for a in range(4):
        for b in range(3):
            sl = shuffle_lattice(a, b)
            ranks = [word_rank(w, a) for w in sl.words]
            assert g_triangle(a, b) == rank_corank_pairs(sl.lattice.poset, ranks, a + b)
    for n in range(6):
        p = build_bool(n).poset
        assert boolean_baselines(n)["f"] == rank_corank_pairs(p, p.rank_vector(), n)


# -- M-triangle ----------------------------------------------------------------


def test_m_triangle_matches_closed():
    for n in range(1, 6):
        assert m_triangle(clo_of(n)) == m_closed(n)


def test_m3_pinned():
    assert m_closed(3) == M3
    assert m_triangle(clo_of(3)) == M3


def test_m_triangle_small_posets():
    single = FinitePoset.closure([], 1)
    assert m_triangle(single) == ONE
    assert m_triangle(build_bool(3).poset) == (X * Y - Y + ONE) ** 3


def test_m_triangle_rejects_ungraded():
    with pytest.raises(NotGraded):
        m_triangle(build_hoch(3).lattice.poset)


def test_m_x0_section_is_char_poly():
    for n in range(1, 6):
        assert x_section(m_closed(n)) == char_poly_closed(n)


def test_m_at_one_one():
    # Sum of mu over all intervals of a bounded poset telescopes to 1.
    for n in range(1, 9):
        assert m_closed(n).eval_at(1, 1) == 1
    assert M3.eval_at(1, 1) == 1


def test_m_decomposes_over_upper_intervals():
    # Each element contributes its interval-to-top characteristic polynomial,
    # and that interval is a smaller core label order or a Boolean lattice
    # depending on whether the word still has a 1 in it.
    for n in range(2, 6):
        h = build_hoch(n)
        c = clo_of(n)
        ranks = c.rank_vector()
        top = c.top()
        total = BiPoly()
        for u in range(c.n):
            k = ranks[u]
            got = BiPoly()
            for v in interval(c, u, top):
                got += c.mobius(u, v) * Y ** ranks[v]
            if l1(h.triword(u)) == 0:
                base = char_poly_closed(n - k)
            else:
                base = (ONE - X) ** (n - k)
            want = Y**k * BiPoly({(0, e): co for (e, _), co in base.terms.items()})
            assert got == want
            total += (X * Y) ** k * BiPoly(
                {(0, e): co for (e, _), co in base.terms.items()}
            )
        assert total == m_closed(n)


# -- F-triangle ----------------------------------------------------------------


def test_f_four_ways_agree():
    for n in range(1, 6):
        closed = f_closed(n)
        assert f_from_m(n) == closed
        assert f_tilde(n) == closed
        assert triangles._partial_cores(triangles._cover_counts(build_hoch(n).lattice), n) == closed


def test_f3_pinned():
    want = (X + Y + ONE) * (3 * X**2 + 2 * X * Y + 4 * X + (Y + ONE) ** 2)
    assert f_closed(3) == want
    assert f_closed(3).terms.get((1, 1), 0) == 8
    assert f_closed(3).eval_at(0, 0) == 1


def test_inexact_closed_counts_raise(monkeypatch):
    monkeypatch.setattr(triangles, "comb", lambda a, b: 1)
    with pytest.raises(InvariantViolated, match="face count 8/3"):
        face_count_closed(3, 2)  # 2**-1 * (18 - 2) / 3


def test_f_tilde_term_by_term_n3():
    want = (
        X**3
        + 3 * X**2 * (Y + ONE)
        + 3 * X * (Y + ONE) ** 2
        + (Y + ONE) ** 3
        + 2 * X**2 * (X + ONE)
        + 2 * X * (X + ONE) * (Y + ONE)
    )
    assert f_tilde(3) == want


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_word_stats_count_joinands_as_canrep_formula_does(n):
    """The counts read off the words as one array against the size of the canonical join representation
    and the oracle's neg_stat, one word at a time; every key and count an int."""
    want = Counter((len(canrep_formula(u)), neg_stat(u)) for u in enumerate_triwords(n))
    got = triangles._word_stats(n)
    assert dict(got) == want
    assert all(type(v) is int for item in got.items() for v in (*item[0], item[1]))


@pytest.mark.parametrize("n", range(1, 9))
def test_f_tilde_grouped_sum_matches_per_word_sum(n):
    """f_tilde expands the grouped word statistics by the binomial theorem: the product form summed one
    word at a time gives the same terms, of the same types."""
    assert _typed(f_tilde(n)) == _typed(f_tilde_by_products(n))


def test_transforms_send_boolean_m_to_boolean_f_and_h():
    for n in range(1, 5):
        m_bool = (X * Y - Y + ONE) ** n
        assert f_transform(m_bool, n) == (X + Y + ONE) ** n
        assert h_transform(m_bool, n) == (X * Y + ONE) ** n


def _typed(p):
    return {k: (type(c), c) for k, c in p.terms.items()}


@pytest.mark.parametrize("n", range(1, 7))
def test_transforms_match_grid_interpolation(n):
    for m in (m_closed(n), (X * Y - Y + ONE) ** n):
        assert _typed(f_transform(m, n)) == _typed(f_transform_by_grid(m, n))
        assert _typed(h_transform(m, n)) == _typed(h_transform_by_grid(m, n))


@pytest.mark.parametrize("term", [X, X**2 * Y, Y**4, X**4 * Y**4])
def test_transforms_reject_terms_outside_the_triangle(term):
    m = m_closed(3) + term
    for transform in (f_transform, h_transform):
        with pytest.raises(InvariantViolated, match="outside 0 <= i <= j <= 3"):
            transform(m, 3)


def test_transforms_check_every_term_before_any_arithmetic(monkeypatch):
    def no_product(*_):
        raise AssertionError("BiPoly product formed before the range check")

    m, factors = m_closed(3) + X**4 * Y**4, [(Y + ONE, Y - X, Y), (X * Y, X * (Y - ONE), X * (Y - ONE) + ONE)]
    monkeypatch.setattr(BiPoly, "__mul__", no_product)
    monkeypatch.setattr(BiPoly, "__rmul__", no_product)
    for p, q, r in factors:
        with pytest.raises(InvariantViolated, match="x\\^4 y\\^4 is outside"):
            triangles._substitute(m, 3, p, q, r)


@pytest.mark.parametrize("n", range(7))
def test_horner_matches_grid_interpolation_on_seeded_random_m_triangles(n):
    """Integer terms on 0 <= i <= j <= n, a third of them zero, so whole rows and diagonals may vanish."""
    rng = random.Random(3500 + n)
    for _ in range(8):
        m = BiPoly({(i, j): rng.choice((0, rng.randint(-9, 9))) for j in range(n + 1) for i in range(j + 1)})
        assert _typed(f_transform(m, n)) == _typed(f_transform_by_grid(m, n))
        assert _typed(h_transform(m, n)) == _typed(h_transform_by_grid(m, n))


# -- H-triangle ----------------------------------------------------------------


def test_h_four_ways_agree():
    for n in range(1, 6):
        closed = h_closed(n)
        assert h_from_m(n) == closed
        assert h_tilde(n) == closed
        assert h_from_antichains(n) == closed


def test_h_pinned_values():
    want3 = X**3 * Y**3 + 3 * X**2 * Y**2 + 2 * X**2 * Y + 3 * X * Y + 2 * X + ONE
    assert h_closed(3) == want3
    assert h_closed(3) == (X * Y + ONE) * ((X * Y + ONE) ** 2 + 2 * X)
    assert h_closed(4) == (X * Y + ONE) ** 2 * ((X * Y + ONE) ** 2 + 3 * X)


def test_h_at_y1_is_rank_poly():
    for n in range(1, 7):
        assert at_y1(h_closed(n)) == rank_poly_closed(n)


def test_h_triangle_check_fails_on_a_faulty_h_transform(monkeypatch):
    assert check_h_triangle(4)
    monkeypatch.setattr(triangles, "h_transform", lambda m, n: h_transform(m, n) + X)
    assert not check_h_triangle(4)


# -- triword statistics --------------------------------------------------------


def test_stat_table_n3():
    assert set(enumerate_triwords(3)) == set(STATS_3)
    for u, (c, g) in STATS_3.items():
        assert len(canrep_formula(u)) == c
        assert neg_stat(u) == g


def test_neg_stat_counts_atom_joinands():
    for n in range(1, 6):
        h = build_hoch(n)
        lat = h.lattice
        atomset = set(lat.atoms())
        for e in range(lat.n):
            can = canonical_joinrep(lat, e)
            assert len(can & atomset) == neg_stat(h.triword(e))


# -- partial cores and the face vector ------------------------------------------


def test_partial_core_invariants():
    h = build_hoch(3)
    lat = h.lattice
    cores = partial_cores(lat)
    assert len(cores) == 39
    assert len(cores) == sum(face_vector(3))
    by_elem = {}
    for core in cores:
        by_elem.setdefault(core.element, []).append(core)
    for u, group in by_elem.items():
        lows = set(lat.poset.lower_covers(u))
        assert {c.covers for c in group} == {
            frozenset(s)
            for r in range(len(lows) + 1)
            for s in combinations(sorted(lows), r)
        }
        for core in group:
            if not core.covers:
                assert core.nucleus == u
            if core.covers == frozenset(lows):
                assert core.nucleus == core_label_set(lat, u).nucleus


def test_partial_core_example():
    h = build_hoch(3)
    u = h.id_of((1, 2, 1))
    acc = BiPoly()
    for core in partial_cores(h.lattice):
        if core.element == u:
            acc += X ** (3 - len(core.covers) - core.neg) * Y**core.neg
    assert acc == X**2 * Y + X * Y + X**2 + X
    assert acc == X * (X + ONE) * (Y + ONE)


def test_face_vector_matches_closed():
    for n in range(1, 9):
        got = face_vector(n)
        assert got == [face_count_closed(n, i) for i in range(n + 1)]
        assert got[0] == triword_count(n)
        assert got[n] == 1
        assert sum((-1) ** i * f for i, f in enumerate(got)) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_core_counts_match_enumeration(n):
    terms, faces = {}, [0] * (n + 1)
    for core in partial_cores(build_hoch(n).lattice):
        key = (n - len(core.covers) - core.neg, core.neg)
        terms[key] = terms.get(key, 0) + 1
        faces[len(core.covers)] += 1
    assert triangles._partial_cores(triangles._cover_counts(build_hoch(n).lattice), n) == BiPoly(terms)
    assert face_vector(n) == faces


def test_cover_counts_match_the_per_element_oracle():
    """The (d, t) bincounts behind face_vector and the H-triangles of Hoch(n) and Bool(n): d lower covers and
    t atom-labelled ones per element, as the oracle counts them, and as the sizes of the canonical join
    representation and of its atoms (the labels of distinct lower covers are distinct)."""
    for lat in mask_corpus():
        got = triangles._cover_counts(lat)
        assert got == cover_counts_by_element(lat)
        atoms = set(lat.atoms())
        assert got == Counter((len(rep), len(rep & atoms)) for rep in canonical_joinreps_by_covers(lat))


def test_graded_counts_match_the_unpacked_sum():
    """FinitePoset.rank_corank_counts counts the packed bits of an order by rank and corank, about 2**20 bits of
    rows a block (g_triangle wraps the counts in a BiPoly by triangles._graded); the oracle sums the rows of the
    unpacked order.  On Bool(0..6), on Shuf(a <= 3, b <= 2) and as g_triangle(n - 1, 1) for n <= 8 and n = 10
    (eleven blocks of rows), by the word ranks, and on the graded seeded lattices; an ungraded one raises NotGraded."""
    cases = [(build_bool(k).poset, np.array(build_bool(k).poset.rank_vector())) for k in range(7)]
    for a, b in [(a, b) for a in range(4) for b in range(3)] + [(n - 1, 1) for n in (*range(1, 9), 10)]:
        sl = shuffle_lattice(a, b)
        cases.append((sl.lattice.poset, np.array([word_rank(w, a) for w in sl.words])))
        if b == 1:
            assert g_triangle(a, b) == graded_by_unpacking(cases[-1][0], cases[-1][1], a + b - cases[-1][1])
    ungraded = []
    for lat in seeded_lattices():
        try:
            cases.append((lat.poset, np.array(lat.poset.rank_vector())))
        except NotGraded:
            ungraded.append(lat.poset)
    for p, ranks in cases:
        counts = {(i, j): int(c) for (i, j), c in np.ndenumerate(p.rank_corank_counts()) if c}
        assert counts == graded_by_unpacking(p, ranks, ranks.max() - ranks).terms
    assert len(cases) > 50 and ungraded
    with pytest.raises(NotGraded):
        ungraded[0].rank_corank_counts()


def test_face_vector_pinned():
    assert face_vector(3) == [12, 18, 8, 1]
    assert face_count_closed(6, 1) == 432
    assert face_count_closed(8, 1) == 2816


# -- antichain route to H --------------------------------------------------------


def test_j_poset_shape():
    jp = j_poset(4)
    p = jp.poset
    name = {i: p.labels[i] for i in range(p.n)}
    covers = {(name[a], name[b]) for a, b in p.covers}
    assert covers == {("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("b2", "a2")}
    assert {name[i] for i in jp.atoms} == {"a1", "b2", "b3", "b4"}


def test_j_poset_antichain_counts():
    assert len(j_poset(1).poset.antichains()) == 2
    assert len(j_poset(3).poset.antichains()) == 12
    assert len(j_poset(4).poset.antichains()) == 28
    for n in range(1, 7):
        assert len(j_poset(n).poset.antichains()) == triword_count(n)


def antichain_corpus():
    """j_poset(1..8), Bool(0..4), the orders of certification_corpus() with at most 16 elements (Bool(6) alone
    has 7,828,354 antichains) and chain(65), whose masks pass 64 bits."""
    posets = [j_poset(n).poset for n in range(1, 9)] + [build_bool(k).poset for k in range(5)]
    return posets + [p for p in certification_corpus() if p.n <= 16] + [chain_lattice(65).poset]


def test_antichain_masks_decode_to_the_oracle_in_order_and_count_as_its_frozensets():
    for p in antichain_corpus():
        masks, atoms = p._antichain_masks(), frozenset(range(0, p.n, 2))
        assert p.antichains() == antichains(p)
        atom_mask = sum(1 << a for a in atoms)
        assert Counter((m.bit_count(), (m & atom_mask).bit_count()) for m in masks) == antichain_counts(p, atoms)


def test_h_from_antichains_counts_the_masks_alone(monkeypatch):
    want = {n: BiPoly(antichain_counts(j_poset(n).poset, j_poset(n).atoms)) for n in range(1, 9)}

    def no_frozensets(self):
        raise AssertionError("h_from_antichains decoded the antichains")

    monkeypatch.setattr(FinitePoset, "antichains", no_frozensets)
    for n, h in want.items():
        assert h_from_antichains(n) == h == h_closed(n)


@pytest.mark.parametrize("n", [0, -1, MAX_N + 1, 10**9])
def test_antichain_route_rejects_sizes_past_the_policy_before_building(monkeypatch, n):
    def no_build(*_, **__):
        raise AssertionError("built a poset for an out-of-range n")

    monkeypatch.setattr(FinitePoset, "closure", no_build)
    monkeypatch.setattr(FinitePoset, "_antichain_masks", no_build)
    for route in (j_poset, h_from_antichains):
        with pytest.raises(SizeBound, match=f"^n must satisfy 1 <= n <= {MAX_N}, got {n}$"):
            route(n)


CLOSED_FORMS = (m_closed, f_closed, h_closed, rank_poly_closed, char_poly_closed, g_conjecture_closed)


@pytest.mark.parametrize("closed", [char_poly_closed, h_closed, rank_poly_closed], ids=lambda f: f.__name__)
def test_closed_forms_take_n_as_an_integer_only(closed):
    """A float n is a TypeError from the size guard, not a ValueError from the power it would reach."""
    with pytest.raises(TypeError):
        closed(2.0)


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_closed_face_counts_and_m_mass_at_every_n(n):
    """Identities of the closed forms alone: the face counts run from the triword count down to 1 with
    alternating sum 1, and the M-triangle's Mobius values sum to 1, as on every bounded poset."""
    faces = [face_count_closed(n, i) for i in range(n + 1)]
    assert faces[0] == triword_count(n) and faces[n] == 1
    assert sum((-1) ** i * f for i, f in enumerate(faces)) == 1
    assert m_closed(n).eval_at(1, 1) == 1


@pytest.mark.parametrize("closed", CLOSED_FORMS, ids=lambda f: f.__name__)
def test_closed_forms_reject_n_below_one_and_have_no_upper_cap(closed):
    for n in (0, -1, -(10**9)):
        with pytest.raises(SizeBound, match=f"^n must satisfy n >= 1, got {n}$"):
            closed(n)
    assert closed(MAX_N + 5).terms


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: face_count_closed(0, 0), "n must satisfy n >= 1, got 0"),
        (lambda: face_count_closed(3, -1), "i must satisfy i >= 0, got -1"),
        (lambda: shuffle_char_closed(-1, 2), "min(a, b) must satisfy min(a, b) >= 0, got -1"),
        (lambda: shuffle_char_closed(2, -3), "min(a, b) must satisfy min(a, b) >= 0, got -3"),
    ],
    ids=["faces-n0", "faces-i-1", "shuffle-a-1", "shuffle-b-3"],
)
def test_two_argument_closed_forms_reject_arguments_below_their_ranges(call, message):
    """face_count_closed and shuffle_char_closed raise SizeBound below their ranges, where they used to raise
    ZeroDivisionError or ValueError or return the zero polynomial; neither has an upper cap."""
    with pytest.raises(SizeBound, match=f"^{re.escape(message)}$"):
        call()
    assert face_count_closed(MAX_N + 5, 1) > 0 and face_count_closed(3, 4) == 0
    assert shuffle_char_closed(MAX_N + 5, 2).terms


# -- G-triangle -------------------------------------------------------------------


def test_g_triangle_closed_cases():
    assert g_triangle(1, 0) == X + Y + ONE
    for n in range(1, 5):
        assert g_triangle(n, 0) == (X + Y + ONE) ** n
    assert g_conjecture_closed(1) == X + Y + ONE


def test_g_conjecture_reported_not_asserted(capsys):
    for n in range(2, 7):
        report = g_conjecture_check(n)
        assert set(report) == {"n", "match", "computed", "conjectured"}
        verdict = "matches" if report["match"] else "MISMATCH"
        print(f"G-triangle conjecture at n={n}: {verdict}")
    out = capsys.readouterr().out
    assert out.count("G-triangle conjecture") == 5


def test_g_triangle_size_guard():
    with pytest.raises(SizeBound):
        g_triangle(12, 1)


# -- Boolean baselines -------------------------------------------------------------


def test_boolean_baselines():
    for n in range(0, 6):
        bb = boolean_baselines(n)
        assert bb["m"] == bb["m_closed"] == (X * Y - Y + ONE) ** n
        assert bb["f"] == bb["f_closed"] == (X + Y + ONE) ** n
        assert bb["h"] == bb["h_closed"] == (X * Y + ONE) ** n
