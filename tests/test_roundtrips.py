"""Property-based round trips of the word bijections, and the cover closure against networkx."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochlat.errors import NotCover
from hochlat.hochschild import core_labels_formula, format_triword, is_triword, parse_triword, psi_inverse
from hochlat.limits import MAX_N
from hochlat.poset import FinitePoset
from hochlat.shuffles import sigma, sigma_inverse

SETTINGS = settings(max_examples=200, deadline=None, database=None)


@st.composite
def triwords(draw):
    """Letters 0, 1, 2 with no leading 2 and no 1 after a 0."""
    n = draw(st.integers(1, MAX_N))
    u = [draw(st.sampled_from((0, 1)))]
    for _ in range(n - 1):
        u.append(draw(st.sampled_from((0, 2) if 0 in u else (0, 1, 2))))
    return tuple(u)


@st.composite
def dags(draw):
    """A random DAG on 1..12 vertices, every edge going from a smaller to a larger id."""
    m = draw(st.integers(1, 12))
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = nx.DiGraph(edges)
    graph.add_nodes_from(range(m))
    return graph


@SETTINGS
@given(triwords())
def test_word_round_trips(u):
    n = len(u)
    assert is_triword(u)
    assert sigma_inverse(n, sigma(u)) == u
    assert psi_inverse(n, core_labels_formula(u)) == u
    assert parse_triword(format_triword(u)) == u


@SETTINGS
@given(dags())
def test_cover_closure_matches_networkx(graph):
    m = graph.number_of_nodes()
    reduction = sorted(nx.transitive_reduction(graph).edges)
    poset = FinitePoset.closure(reduction, m)
    want = np.zeros((m, m), dtype=bool)
    for a, b in nx.transitive_closure(graph, reflexive=True).edges:
        want[a, b] = True
    assert (poset.leq == want).all()
    assert list(poset.covers) == reduction
    if set(graph.edges) != set(reduction):
        with pytest.raises(NotCover):
            FinitePoset.closure(list(graph.edges), m)
