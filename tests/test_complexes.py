import random

import numpy as np
import pytest

from hochlat import complexes
from hochlat.complexes import (
    SimplicialComplex,
    cjc,
    is_vertex_decomposable,
    shedding_witness,
)
from hochlat.errors import InvariantViolated, NotAFace, NotJoinSemidistributive
from hochlat.hochschild import build_hoch, irreducible_of_triword, parse_triword
from hochlat.lattice import as_lattice, build_bool, canonical_joinrep, is_semidistributive
from hochlat.poset import FinitePoset
from oracles import cjc_by_sets, is_shedding_vertex
from test_lattice import chain_lattice, mask_corpus, seeded_lattices


def _maximal(sets):
    pool = sorted({frozenset(f) for f in sets}, key=len)
    return [f for f in pool if not any(f < g for g in pool)]


def brute_vd(facets):
    """Memoless shedding recursion straight from the definition."""
    facets = _maximal(facets or [frozenset()])
    if len(facets) == 1:
        return True
    for v in sorted(set().union(*facets)):
        link = _maximal([f - {v} for f in facets if v in f])
        gone = _maximal(
            [f for f in facets if v not in f] + [f - {v} for f in facets if v in f]
        )
        if any(f in gone for f in link):
            continue
        if brute_vd(link) and brute_vd(gone):
            return True
    return False


def irr_name(lat, v):
    return str(irreducible_of_triword(parse_triword(str(lat.poset.labels[v]))))


def named_facets(cx, lat=None):
    if lat is None:
        return {frozenset(cx.label(v) for v in f) for f in cx.facets}
    return {frozenset(irr_name(lat, v) for v in f) for f in cx.facets}


def test_facets_n3():
    lat = build_hoch(3).lattice
    cx = cjc(lat)
    assert named_facets(cx, lat) == {
        frozenset({"a1", "b2", "b3"}),
        frozenset({"a2", "b3"}),
        frozenset({"a3", "b2"}),
    }


def test_facets_n4():
    lat = build_hoch(4).lattice
    cx = cjc(lat)
    assert len(cx.vertices) == 7
    assert sorted(len(f) for f in cx.facets) == [3, 3, 3, 4]
    assert named_facets(cx, lat) == {
        frozenset({"a1", "b2", "b3", "b4"}),
        frozenset({"a2", "b3", "b4"}),
        frozenset({"a3", "b2", "b4"}),
        frozenset({"a4", "b2", "b3"}),
    }


@pytest.mark.parametrize("n", range(1, 7))
def test_face_count_equals_lattice_size(n):
    lat = build_hoch(n).lattice
    assert cjc(lat).face_count() == lat.n


@pytest.mark.parametrize("n", range(5))
def test_boolean_complex_is_simplex(n):
    lat = build_bool(n)
    cx = cjc(lat)
    assert cx.is_simplex()
    assert cx.face_count() == 2**n
    assert is_vertex_decomposable(cx)


@pytest.mark.parametrize("n", range(2, 7))
def test_faces_are_antichains_with_one_a_vertex(n):
    lat = build_hoch(n).lattice
    cx = cjc(lat)
    leq = lat.poset.leq
    for face in cx.faces():
        members = sorted(face)
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                assert not leq[x, y] and not leq[y, x]
        kinds = [irr_name(lat, v)[0] for v in face]
        assert kinds.count("a") <= 1


def test_not_join_semidistributive_rejected():
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    diamond = as_lattice(FinitePoset.closure(covers, 5))
    with pytest.raises(NotJoinSemidistributive):
        cjc(diamond)


def planted(lat, reps):
    """lat, freshly built so no cached lattice is touched, with its canonical join masks (the faces
    cjc reads) replaced by the masks of reps, one set of join-irreducibles per element."""
    bit = {j: 1 << i for i, j in enumerate(lat.join_irreducibles())}
    lat._canonical = np.array([sum(bit[j] for j in rep) for rep in reps], dtype=np.int64)
    return lat


def test_face_count_mismatch_raises():
    with pytest.raises(InvariantViolated):
        cjc(planted(build_bool.__wrapped__(2), [frozenset()] * 4))


def test_facets_match_the_maximal_representations():
    lattices = [build_hoch(n).lattice for n in range(1, 9)] + [build_bool(n) for n in range(7)]
    lattices += [lat for lat in seeded_lattices() if is_semidistributive(lat)] + [chain_lattice(65)]
    for lat in lattices:
        reps = [canonical_joinrep(lat, a) for a in range(lat.n)]
        assert cjc(lat).facets == complexes._maximal_sets(reps)
    assert len(lattices) > 200


def test_cjc_matches_the_per_set_oracle():
    """cjc's searchsorted passes over the sorted masks give the complex, vertex labels included, that the
    frozenset oracle finds one set and one vertex at a time."""
    for lat in mask_corpus():
        got, want = cjc(lat), cjc_by_sets(lat)
        assert got == want and got.labels == want.labels


def test_duplicated_representation_raises():
    """Bool(2) with the representation {2} replaced by {1}: four elements, three distinct sets, whose
    subsets are still four faces."""
    lat = build_bool.__wrapped__(2)
    reps = [canonical_joinrep(lat, 1 if a == 2 else a) for a in range(lat.n)]
    with pytest.raises(InvariantViolated, match="3 distinct canonical join representations for 4"):
        cjc(planted(lat, reps))


def test_representation_gaining_a_vertex_raises():
    lat = build_hoch.__wrapped__(3).lattice
    reps = [canonical_joinrep(lat, a) for a in range(lat.n)]
    a, v = next((a, v) for a in range(lat.n) if reps[a] for v in lat.join_irreducibles() if reps[a] | {v} not in reps)
    reps[a] |= {v}
    with pytest.raises(InvariantViolated, match="not closed under dropping a vertex"):
        cjc(planted(lat, reps))


def test_link_and_deletion():
    lat = build_hoch(4).lattice
    cx = cjc(lat)
    assert cx.link([]) == cx
    by_name = {irr_name(lat, v): v for v in cx.vertices}
    for i in (2, 3, 4):
        link = cx.link([by_name[f"a{i}"]])
        assert link.is_simplex()
        assert named_facets(link, lat) == {frozenset(f"b{j}" for j in (2, 3, 4) if j != i)}
    gone = cx
    for i in (2, 3, 4):
        gone = gone.deletion([by_name[f"a{i}"]])
    assert gone.is_simplex()
    assert named_facets(gone, lat) == {frozenset({"a1", "b2", "b3", "b4"})}
    with pytest.raises(NotAFace):
        cx.link([by_name["a2"], by_name["b2"]])
    with pytest.raises(NotAFace):
        cx.deletion([])


@pytest.mark.parametrize("n", range(1, 7))
def test_hoch_complex_is_vertex_decomposable(n):
    cx = cjc(build_hoch(n).lattice)
    witness = shedding_witness(cx)
    assert witness is not None
    if n >= 2:
        assert witness[0] == "shed"


@pytest.mark.parametrize("n", range(2, 6))
def test_canonical_shedding_sequence(n):
    lat = build_hoch(n).lattice
    cx = cjc(lat)
    by_name = {irr_name(lat, v): v for v in cx.vertices}
    assert not is_shedding_vertex(cx, by_name["a1"])
    for j in range(2, n + 1):
        assert not is_shedding_vertex(cx, by_name[f"b{j}"])
    for i in range(2, n + 1):
        assert is_shedding_vertex(cx, by_name[f"a{i}"])
        cx = cx.deletion([by_name[f"a{i}"]])
    assert cx.is_simplex()


def test_two_disjoint_edges_not_decomposable():
    cx = SimplicialComplex([{0, 1}, {2, 3}])
    assert not is_vertex_decomposable(cx)
    assert not brute_vd(cx.facets)


def test_point_plus_edge_is_decomposable():
    cx = SimplicialComplex([{0}, {1, 2}])
    assert is_vertex_decomposable(cx)
    assert brute_vd(cx.facets)


def test_matches_brute_recursion():
    rng = random.Random(7)
    cases = [
        [{0, 1}, {2, 3}],
        [{0, 1}, {2, 3}, {4, 5}],
        [{0, 1}, {1, 2}, {3, 4}],
        [{0, 1, 2}, {3, 4}],
    ]
    for _ in range(40):
        verts = list(range(rng.randint(3, 6)))
        facets = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, len(verts))
            facets.append(frozenset(rng.sample(verts, size)))
        cases.append(facets)
    results = []
    for facets in cases:
        cx = SimplicialComplex(facets)
        got = is_vertex_decomposable(cx)
        assert got == brute_vd(cx.facets)
        results.append(got)
    assert False in results and True in results
    for n in (3, 4):
        cx = cjc(build_hoch(n).lattice)
        assert brute_vd(cx.facets)


def test_empty_complex_is_simplex():
    cx = SimplicialComplex([])
    assert cx.is_simplex()
    assert cx.faces() == [frozenset()]
    assert is_vertex_decomposable(cx)


def test_serialization():
    cx = cjc(build_hoch(3).lattice)
    data = cx.to_json()
    assert len(data["vertices"]) == 5
    assert sorted(map(len, data["facets"])) == [2, 2, 3]
    off = cx.to_off_text()
    assert off.splitlines()[0] == "OFF"
    assert off.splitlines()[1] == "5 3 0"
    assert cx.to_off_text() == off
