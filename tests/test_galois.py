import random

import numpy as np
import pytest

from hochlat import checks
from hochlat import galois as galois_module
from hochlat.checks import check_mo_reconstruction
from hochlat.errors import NotALattice, NotExtremal, SizeBound
from hochlat.galois import (
    DiGraph,
    GaloisGraph,
    galois_graph,
    hoch_galois_characterization,
    max_ortho_pairs_lattice,
    reconstruction_isomorphic,
)
from hochlat.hochschild import build_hoch, irreducible_of_triword, parse_triword
from hochlat.lattice import as_lattice, build_bool
from hochlat.limits import MAX_ELEMENTS, MAX_N
from hochlat.poset import FinitePoset, are_isomorphic
from oracles import (
    closed_under_intersection,
    induced,
    max_orthogonal_pairs,
    maximal_pairs_by_seeds,
    pair_order,
    reconstruction_image_by_pairs,
)

EDGES_3 = {("b3", "a3"), ("b2", "a2"), ("a2", "a1"), ("a3", "a1"), ("a3", "a2")}
EDGES_4 = EDGES_3 | {("b4", "a4"), ("a4", "a3"), ("a4", "a2"), ("a4", "a1")}

PAIRS_3 = {
    (frozenset(), frozenset({"a1", "a2", "a3", "b2", "b3"})),
    (frozenset({"a1"}), frozenset({"a2", "a3", "b2", "b3"})),
    (frozenset({"a1", "a2"}), frozenset({"a3", "b2", "b3"})),
    (frozenset({"b2"}), frozenset({"a1", "a3", "b3"})),
    (frozenset({"b3"}), frozenset({"a1", "a2", "b2"})),
    (frozenset({"a1", "a2", "b2"}), frozenset({"a3", "b3"})),
    (frozenset({"a1", "a2", "a3"}), frozenset({"b2", "b3"})),
    (frozenset({"a1", "b3"}), frozenset({"a2", "b2"})),
    (frozenset({"a1", "a2", "a3", "b2"}), frozenset({"b3"})),
    (frozenset({"a1", "a2", "a3", "b3"}), frozenset({"b2"})),
    (frozenset({"b2", "b3"}), frozenset({"a1"})),
    (frozenset({"a1", "a2", "a3", "b2", "b3"}), frozenset()),
}


def edge_labels(graph):
    return {(graph.labels[s], graph.labels[t]) for s, t in graph.edges}


def named_edges(graph):
    out = set()
    for s, t in edge_labels(graph):
        out.add((str(irreducible_of_triword(parse_triword(s))), str(irreducible_of_triword(parse_triword(t)))))
    return out


def test_pinned_edges_small_n():
    g3 = galois_graph(build_hoch(3).lattice).graph
    assert named_edges(g3) == EDGES_3
    g4 = galois_graph(build_hoch(4).lattice).graph
    assert named_edges(g4) == EDGES_4
    assert len(g4.edges) == 9


@pytest.mark.parametrize("n", [0, -2, MAX_N + 1])
def test_characterization_checks_the_size(n):
    with pytest.raises(SizeBound):
        hoch_galois_characterization(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_characterization_matches_chain_construction(n):
    lat = build_hoch(n).lattice
    chain_graph = galois_graph(lat).graph
    direct = hoch_galois_characterization(n)
    assert chain_graph.k == direct.k == max(2 * n - 1, 1)
    assert named_edges(chain_graph) == edge_labels(direct)
    assert len(direct.edges) == (n - 1) + n * (n - 1) // 2


def test_graph_does_not_depend_on_element_order():
    lat = build_hoch(3).lattice
    base = edge_labels(galois_graph(lat).graph)
    shuffled = as_lattice(induced(lat.poset, list(reversed(range(lat.n)))))
    assert edge_labels(galois_graph(shuffled).graph) == base


def test_pinned_ortho_pairs_n3():
    lat = build_hoch(3).lattice
    gg = galois_graph(lat)
    name = [
        str(irreducible_of_triword(parse_triword(lbl))) for lbl in gg.graph.labels
    ]
    mo = max_ortho_pairs_lattice(gg.graph)
    assert mo.poset.n == 12
    seen = set()
    for a in range(mo.poset.n):
        left, right = mo.pair_sets(a)
        seen.add((frozenset(name[i] for i in left), frozenset(name[i] for i in right)))
    assert seen == PAIRS_3


@pytest.mark.parametrize("n", range(1, 6))
def test_reconstruction_recovers_lattice(n):
    lat = build_hoch(n).lattice
    geo = galois_graph(lat)
    mo = max_ortho_pairs_lattice(geo.graph)
    assert mo.poset.n == lat.n
    assert reconstruction_isomorphic(lat, geo, mo)


def test_reconstruction_image_matches_the_per_pair_joins(monkeypatch):
    """The image reconstruction_isomorphic certifies, from a pass per vertex over the A sides' bits, is
    join_all over each A side, pair by pair, on Hoch(1..8) and Bool(1..6)."""
    images, real = [], galois_module.are_isomorphic
    monkeypatch.setattr(galois_module, "are_isomorphic", lambda p, q, image: images.append(image) or real(p, q, image))
    for lat in [build_hoch(n).lattice for n in range(1, 9)] + [build_bool(n) for n in range(1, 7)]:
        geo = galois_graph(lat)
        mo = max_ortho_pairs_lattice(geo.graph)
        assert reconstruction_isomorphic(lat, geo, mo)
        assert np.asarray(images[-1]).tolist() == reconstruction_image_by_pairs(lat, geo, mo)
    assert len(images) == 14


def test_mo_reconstruction_fails_on_a_corrupted_decode(monkeypatch):
    def permuted_joins(lat):
        geo = galois_graph(lat)
        return GaloisGraph(geo.graph, geo.chain, geo.joins[1:] + geo.joins[:1], geo.meets)

    assert check_mo_reconstruction(4)
    monkeypatch.setattr(checks, "galois_graph", permuted_joins)
    assert not check_mo_reconstruction(4)


def test_boolean_graph_is_edgeless():
    for n in (2, 3, 4):
        g = galois_graph(build_bool(n)).graph
        assert g.k == n
        assert g.edges == frozenset()


@pytest.mark.parametrize("k", range(5))
def test_edgeless_graph_rebuilds_boolean(k):
    mo = max_ortho_pairs_lattice(DiGraph(k, []))
    assert mo.poset.n == 2**k
    # build_bool's ids are bitmasks, so each pair maps to its A side
    assert are_isomorphic(mo.poset, build_bool(k).poset, [a for a, _ in mo.pairs])


def test_two_cycle_gives_chain():
    mo = max_ortho_pairs_lattice(DiGraph(2, [(0, 1), (1, 0)]))
    assert mo.poset.n == 2
    assert mo.pairs == ((0, 3), (3, 0))


def random_digraphs(count=200, max_k=7, seed=2024):
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(0, max_k)
        p = rng.random()
        yield DiGraph(k, [(s, t) for s in range(k) for t in range(k) if s != t and rng.random() < p])


def oracle_graphs():
    yield from (galois_graph(build_hoch(n).lattice).graph for n in range(1, 7))
    yield from (DiGraph(k, []) for k in range(5))
    yield DiGraph(2, [(0, 1), (1, 0)])
    yield from random_digraphs()


def test_pairs_match_the_definition_and_order_laws():
    """The seed enumeration finds exactly the maximal orthogonal pairs, and in the certified
    pair order the join is B-intersection and the meet A-intersection, read off every row."""
    for g in oracle_graphs():
        mo = max_ortho_pairs_lattice(g)
        assert set(mo.pairs) == max_orthogonal_pairs(g) and len(set(mo.pairs)) == len(mo.pairs), g
        lat = as_lattice(mo.poset)
        a_vals = np.array([a for a, _ in mo.pairs], dtype=np.int64)
        b_vals = np.array([b for _, b in mo.pairs], dtype=np.int64)
        for a in range(lat.n):
            assert (b_vals[lat.join(a)] == b_vals[a] & b_vals).all(), g
            assert (a_vals[lat.meet(a)] == a_vals[a] & a_vals).all(), g


def test_intersection_closure_matches_the_seed_scan():
    """The column-by-column intersection closure finds the same pairs, in the same order, as the
    fixed points of all 2**k seeds."""
    graphs = [galois_graph(build_hoch(n).lattice).graph for n in range(1, 11)]
    graphs += [DiGraph(k, []) for k in range(13)] + list(oracle_graphs())
    for g in graphs:
        assert galois_module._maximal_pairs(g) == maximal_pairs_by_seeds(g), g
    assert len(galois_module._maximal_pairs(graphs[9])) == 3328  # Hoch(10), on 19 vertices


def test_covers_and_order_match_the_inclusion_order():
    """The covers read off the column meets, and the order they generate, equal the A-inclusion
    order reduced by from_leq."""
    graphs = [galois_graph(build_hoch(n).lattice).graph for n in range(1, 9)]
    for g in graphs + [DiGraph(k, []) for k in range(9)] + list(oracle_graphs()):
        mo = max_ortho_pairs_lattice(g)
        oracle = pair_order(mo)
        assert mo.poset.covers == oracle.covers, g
        assert (mo.poset.leq == oracle.leq).all(), g


def test_closed_under_intersection():
    assert not closed_under_intersection(np.array([0b01, 0b10, 0b11]))
    assert closed_under_intersection(np.array([0, 0b01, 0b10, 0b11]))


@pytest.mark.parametrize(
    "corrupt, side",
    [
        (lambda pairs: pairs[1:], "A"),  # no bottom: {a1} & {b2} is no A side
        (lambda pairs: pairs[:-1], "A"),  # no top: the union of the A sides is none
        (lambda pairs: [(a, 0b11111 ^ a) for a, _ in pairs], "B"),  # complements of A sides
        # ({a2}, the B side of {a1, a2}): passes the A checks, but {a2} is no intersection of columns
        (lambda pairs: pairs[:2] + [(0b00010, 0b11100)] + pairs[2:], "B"),
    ],
    ids=["no-bottom", "no-top", "complement-b", "unclosed-a"],
)
def test_corrupted_pair_families_are_not_lattices(monkeypatch, corrupt, side):
    enumerate_pairs = galois_module._maximal_pairs
    monkeypatch.setattr(galois_module, "_maximal_pairs", lambda g: corrupt(enumerate_pairs(g)))
    with pytest.raises(NotALattice, match=f"^{side} sides of the orthogonal pairs"):
        max_ortho_pairs_lattice(hoch_galois_characterization(3))


def test_not_extremal_raises():
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    diamond = as_lattice(FinitePoset.closure(covers, 5))
    with pytest.raises(NotExtremal):
        galois_graph(diamond)


def test_digraph_rejects_bad_input():
    with pytest.raises(ValueError, match="loop"):
        DiGraph(2, [(0, 0)])
    with pytest.raises(ValueError, match="loop"):
        DiGraph(2, [(0, 2)])
    with pytest.raises(ValueError, match="labels"):
        DiGraph(2, [], labels=["x"])


def test_size_cap():
    """The vertex masks are int64, so 63 vertices are the most; past MAX_ELEMENTS pairs the enumeration stops."""
    complete = DiGraph(63, [(s, t) for s in range(63) for t in range(63) if s != t])
    assert max_ortho_pairs_lattice(complete).pairs == ((0, (1 << 63) - 1), ((1 << 63) - 1, 0))
    with pytest.raises(SizeBound, match="int64"):
        max_ortho_pairs_lattice(DiGraph(64, []))
    k = MAX_ELEMENTS.bit_length()  # the edgeless graph has 2**k pairs, past MAX_ELEMENTS
    with pytest.raises(SizeBound, match=f"{2**k} elements"):
        max_ortho_pairs_lattice(DiGraph(k, []))
    with pytest.raises(SizeBound, match=f"{2**k} elements"):  # found within k passes, not after 63
        max_ortho_pairs_lattice(DiGraph(63, []))


def test_digraph_serialization():
    g = hoch_galois_characterization(3)
    data = g.to_json()
    assert data["vertices"] == ["a1", "a2", "a3", "b2", "b3"]
    assert data["edges"] == sorted(data["edges"])
    dot = g.to_dot()
    assert dot.startswith("digraph") and "->" in dot
    assert g.to_dot() == dot
