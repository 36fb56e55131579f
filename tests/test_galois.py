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
from hochlat.lattice import Lattice, as_lattice, build_bool
from hochlat.poset import FinitePoset, are_isomorphic

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
    shuffled = as_lattice(lat.poset.induced(list(reversed(range(lat.n)))))
    assert edge_labels(galois_graph(shuffled).graph) == base


def test_pinned_ortho_pairs_n3():
    lat = build_hoch(3).lattice
    gg = galois_graph(lat)
    name = [
        str(irreducible_of_triword(parse_triword(lbl))) for lbl in gg.graph.labels
    ]
    mo = max_ortho_pairs_lattice(gg.graph)
    assert mo.lattice.n == 12
    seen = set()
    for a in range(mo.lattice.n):
        left, right = mo.pair_sets(a)
        seen.add((frozenset(name[i] for i in left), frozenset(name[i] for i in right)))
    assert seen == PAIRS_3


@pytest.mark.parametrize("n", range(1, 6))
def test_reconstruction_recovers_lattice(n):
    lat = build_hoch(n).lattice
    geo = galois_graph(lat)
    mo = max_ortho_pairs_lattice(geo.graph)
    assert mo.lattice.n == lat.n
    assert reconstruction_isomorphic(lat, geo, mo)


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
    assert mo.lattice.n == 2**k
    # build_bool's ids are bitmasks, so each pair maps to its A side
    assert are_isomorphic(mo.lattice.poset, build_bool(k).poset, [a for a, _ in mo.pairs])


def test_two_cycle_gives_chain():
    mo = max_ortho_pairs_lattice(DiGraph(2, [(0, 1), (1, 0)]))
    assert mo.lattice.n == 2
    assert mo.pairs == ((0, 3), (3, 0))


@pytest.mark.parametrize("side", ["join", "meet"])
def test_pair_lattice_tables_are_checked_against_intersections(monkeypatch, side):
    def corrupted(poset):  # the other table in place of the checked one
        lat = as_lattice(poset)
        return Lattice(poset, lat.meet, lat.meet) if side == "join" else Lattice(poset, lat.join, lat.join)

    monkeypatch.setattr(galois_module, "as_lattice", corrupted)
    with pytest.raises(NotALattice, match=f"^{side} of orthogonal pairs is not intersection"):
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
    with pytest.raises(SizeBound):
        max_ortho_pairs_lattice(DiGraph(23, []))


def test_digraph_serialization():
    g = hoch_galois_characterization(3)
    data = g.to_json()
    assert data["vertices"] == ["a1", "a2", "a3", "b2", "b3"]
    assert data["edges"] == sorted(data["edges"])
    dot = g.to_dot()
    assert dot.startswith("digraph") and "->" in dot
    assert g.to_dot() == dot
