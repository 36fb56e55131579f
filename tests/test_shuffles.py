import ast
import gc
import weakref
from fractions import Fraction
from graphlib import TopologicalSorter
from math import comb
from pathlib import Path

import numpy as np
import pytest

import hochlat
from hochlat import checks, shuffles
from hochlat import lattice as lattice_module
from hochlat import poset as poset_module
from hochlat.checks import check_m_triangle, check_shuffle_stats, check_sigma
from hochlat.errors import InvariantViolated, MalformedWord, NotSemidistributive, SizeBound
from hochlat.hochschild import build_hoch, canrep_formula, enumerate_triwords, is_triword, l1
from hochlat.lattice import as_lattice, build_bool, clo
from hochlat.limits import MAX_N
from hochlat.poset import FinitePoset, are_isomorphic
from hochlat.shuffles import (
    render_word,
    shuffle_count,
    shuffle_lattice,
    shuffle_stats,
    shuffle_stats_closed,
    sigma,
    sigma_codes,
    sigma_inverse,
)
from hochlat.triangles import g_conjecture_check
from oracles import induced, interval, is_shuffle_word, shuffle_lattice_by_words, shuffle_words, word_rank

ONE = "\U0001d7d9"

TABLE_1 = {
    (0, 0, 0): "23",
    (0, 0, 2): "2",
    (0, 2, 0): "3",
    (0, 2, 2): "ε",
    (1, 0, 0): f"{ONE}23",
    (1, 0, 2): f"{ONE}2",
    (1, 1, 0): f"2{ONE}3",
    (1, 1, 1): f"23{ONE}",
    (1, 1, 2): f"2{ONE}",
    (1, 2, 0): f"{ONE}3",
    (1, 2, 1): f"3{ONE}",
    (1, 2, 2): ONE,
}

# Covers of the core label order of the length-3 triword lattice.
CLO_3 = {
    (0, 0, 0): {(0, 0, 2), (1, 1, 1), (1, 0, 0), (0, 2, 0), (1, 1, 0)},
    (0, 0, 2): {(0, 2, 2), (1, 0, 2), (1, 1, 2)},
    (1, 1, 1): {(1, 1, 2), (1, 2, 1)},
    (1, 0, 0): {(1, 0, 2), (1, 2, 0)},
    (0, 2, 0): {(0, 2, 2), (1, 2, 1), (1, 2, 0)},
    (1, 1, 0): {(1, 1, 2), (1, 2, 0)},
    (0, 2, 2): {(1, 2, 2)},
    (1, 0, 2): {(1, 2, 2)},
    (1, 1, 2): {(1, 2, 2)},
    (1, 2, 0): {(1, 2, 2)},
    (1, 2, 1): {(1, 2, 2)},
}


def test_word_enumeration():
    assert shuffle_words(0, 0) == [()]
    assert shuffle_count(2, 1) == 12
    words = shuffle_words(2, 1)
    assert len(words) == 12
    assert all(is_shuffle_word(w, 2, 1) for w in words)
    assert not is_shuffle_word((3, 2), 2, 1)
    assert not is_shuffle_word((2, 2), 2, 1)
    assert not is_shuffle_word((-1, -1), 2, 1)
    assert not is_shuffle_word((1,), 2, 1)


def test_cover_rule_reaches_every_word_in_order():
    for a, b in [(a, b) for a in range(5) for b in range(3)] + [(1, 4), (2, 3), (7, 1)]:
        assert list(shuffle_lattice(a, b).words) == shuffle_words(a, b)


def test_cover_rule_word_count_mismatch_raises(monkeypatch):
    monkeypatch.setattr(shuffles, "shuffle_count", lambda a, b: 11)
    with pytest.raises(InvariantViolated, match="reaches 12 words, not 11"):
        shuffles.shuffle_lattice.__wrapped__(2, 1)


@pytest.mark.parametrize("a, b", [(a, b) for a in range(5) for b in range(4)] + [(7, 1)])
def test_code_builder_matches_the_word_at_a_time_builder(a, b):
    """The ids, words, covers and rendered labels of the array builder are those of the word-at-a-time
    oracle, and each code finds its own id; the words, their index and the labels wait to be read."""
    words, covers, labels = shuffle_lattice_by_words(a, b)
    sl = shuffles.shuffle_lattice.__wrapped__(a, b)
    assert not {"words", "index"} & set(vars(sl)) and "labels" not in vars(sl.lattice.poset)
    assert sl.find(sl.codes).tolist() == list(range(len(words))) == [sl.id_of(w) for w in words]
    assert list(sl.words) == words and list(sl.lattice.covers) == covers and sl.lattice.poset.labels == labels
    assert sl.letters.shape == (len(words), a + b) and not sl.codes.flags.writeable


def test_fig5_lattice():
    sl = shuffle_lattice(2, 1)
    lat = sl.lattice
    assert lat.n == 12
    assert sl.words[lat.bottom] == (2, 3)
    assert sl.words[lat.top] == (-1,)
    eps, two = sl.id_of(()), sl.id_of((2,))
    assert lat.poset.leq[two, eps]
    assert lat.poset.leq[eps, lat.top]
    profile = lat.poset.rank_profile()
    assert profile == [1, 5, 5, 1]
    for i, w in enumerate(sl.words):
        assert lat.poset.heights[i] == word_rank(w, 2)


@pytest.mark.parametrize("n", range(5))
def test_no_marker_is_boolean(n):
    sl = shuffle_lattice(n, 0)
    assert sl.lattice.n == 2**n
    # a word sits at the bitmask of the letters it has lost from the bottom word
    full = max(sl.words, key=len)
    image = [sum(1 << i for i, x in enumerate(full) if x not in w) for w in sl.words]
    assert are_isomorphic(sl.lattice.poset, build_bool(n).poset, image)


def test_size_bound():
    with pytest.raises(SizeBound):
        shuffle_lattice(12, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_stats_match_closed_formulas(n):
    assert shuffle_stats(n) == shuffle_stats_closed(n)


@pytest.mark.parametrize("n", [0, -1, MAX_N + 1])
def test_closed_stats_check_the_size(n):
    with pytest.raises(SizeBound):
        shuffle_stats_closed(n)


def test_shuffle_lattice_is_built_once_per_size():
    shuffle_lattice.cache_clear()
    first = shuffle_lattice(3, 1)
    assert shuffle_lattice(3, 1) is first
    assert check_sigma(4) and check_shuffle_stats(4) and g_conjecture_check(4)["match"]
    assert shuffle_lattice.cache_info().misses == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_sigma_codes_match_scalar_sigma(n):
    """The array map sends every triword code to the code of sigma of the triword."""
    h, sl = build_hoch(n), shuffle_lattice(n - 1, 1)
    assert sigma_codes(h.codes, n).tolist() == [int(sl.codes[sl.id_of(sigma(u))]) for u in h.triwords]


@pytest.mark.parametrize("fault", ["repeated image", "non-word image", "two images swapped"])
def test_sigma_check_fails_on_a_faulty_sigma(monkeypatch, fault):
    """The array map gets the last triword's image wrong: a repeat of the first, a code no shuffle word
    has (past the 2n bits of every field), or the second-to-last triword's image, which keeps the map
    a bijection that breaks the covers."""

    def planted(codes, n):
        out = sigma_codes(codes, n)
        if fault == "repeated image":
            out[-1] = out[0]
        elif fault == "non-word image":
            out[-1] = 1 << 2 * n
        else:
            out[-2:] = out[-2:][::-1].copy()
        return out

    assert check_sigma(4)
    monkeypatch.setattr(checks, "sigma_codes", planted)
    assert not check_sigma(4)


def test_render():
    assert render_word(()) == "ε"
    assert render_word((), ascii_mode=True) == "eps"
    assert render_word((2, -1, 3)) == f"2{ONE}3"
    assert render_word((2, -1, 3), ascii_mode=True) == "2 1* 3"
    assert render_word((3, 4, -1, 6, 9, 10)) == f"3 4 {ONE} 6 9 10"


def test_table_of_small_words():
    for u, text in TABLE_1.items():
        assert render_word(sigma(u)) == text
    for u in enumerate_triwords(3):
        tau = [i for i in (2, 3) if u[i - 1] != 2]
        got = [x for x in sigma(u) if x > 0]
        assert got == tau


def test_ten_letter_example():
    u = (1, 2, 1, 1, 2, 0, 2, 2, 0, 0)
    w = (3, 4, -1, 6, 9, 10)
    assert sigma(u) == w
    assert sigma_inverse(10, w) == u


@pytest.mark.parametrize("n", range(1, 7))
def test_sigma_is_a_bijection(n):
    words = set(shuffle_words(n - 1, 1))
    image = {sigma(u) for u in enumerate_triwords(n)}
    assert image == words
    for u in enumerate_triwords(n):
        assert sigma_inverse(n, sigma(u)) == u


@pytest.mark.parametrize("n", range(1, 9))
def test_sigma_inverse_gives_a_triword_that_sigma_sends_back(n):
    """sigma_inverse makes no round trip through sigma, so on every one-marker shuffle word it must
    give a triword whose sigma is that word."""
    for w in shuffle_words(n - 1, 1):
        u = sigma_inverse(n, w)
        assert is_triword(u) and sigma(u) == w


def test_sigma_inverse_rejects_bad_words():
    with pytest.raises(MalformedWord):
        sigma_inverse(3, (3, 2))
    with pytest.raises(MalformedWord):
        sigma_inverse(3, (4,))
    with pytest.raises(MalformedWord):
        sigma_inverse(3, (-1, -1))
    with pytest.raises(MalformedWord):
        sigma_inverse(3, (0,))


@pytest.mark.parametrize("n", [0, -1, MAX_N + 1])
def test_sigma_inverse_checks_the_size_first(n):
    with pytest.raises(SizeBound):
        sigma_inverse(n, ())


def test_clo_fixture_n3():
    h = build_hoch(3)
    order = clo(h.lattice)
    assert order.n == 12
    assert len(order.covers) == 22
    seen = {}
    for a, b in order.covers:
        seen.setdefault(h.triword(a), set()).add(h.triword(b))
    assert seen == CLO_3


@pytest.mark.parametrize("n", range(1, 7))
def test_clo_matches_shuffle_lattice(n):
    h = build_hoch(n)
    order = clo(h.lattice)
    shuf = shuffle_lattice(n - 1, 1)
    as_lattice(order)
    to_word = [shuf.id_of(sigma(h.triword(a))) for a in range(order.n)]
    assert sorted(to_word) == list(range(shuf.lattice.n))
    mapped = {(to_word[a], to_word[b]) for a, b in order.covers}
    assert mapped == set(shuf.lattice.covers)


@pytest.mark.parametrize("n", range(1, 7))
def test_clo_rank_structure(n):
    h = build_hoch(n)
    lat = h.lattice
    order = clo(lat)
    assert order.rank_profile() == [comb(n, k) + (n - k) * comb(n - 1, k - 1) if k else 1 for k in range(n + 1)]
    for a in range(lat.n):
        u = h.triword(a)
        rank = sum(1 for x in u if x == 2) + (1 if l1(u) > 0 else 0)
        assert order.heights[a] == rank
        assert rank == len(canrep_formula(u))
        assert rank == len(lat.poset.lower_covers(a))


@pytest.mark.parametrize("n", range(2, 7))
def test_clo_upper_intervals(n):
    h = build_hoch(n)
    order = clo(h.lattice)
    top = order.top()
    for a in range(order.n):
        u = h.triword(a)
        k = order.heights[a]
        above = interval(order, a, top)
        part = induced(order, above)
        if l1(u) == 0:
            # drop the k positions where u has a 2: CLO(Hoch(n - k))
            small = build_hoch(n - k)
            image = [small.id_of(tuple(x for x, y in zip(h.triword(c), u) if y != 2)) for c in above]
            assert are_isomorphic(part, clo(small.lattice), image)
        else:
            # the bitmask of the interval's atoms below each element: Bool(n - k)
            atoms = part.upper_covers(part.bottom())
            image = [sum(1 << i for i, t in enumerate(atoms) if part.leq[t, c]) for c in range(part.n)]
            assert are_isomorphic(part, build_bool(n - k).poset, image)


def test_clo_of_boolean_and_chain():
    for n in range(4):
        assert are_isomorphic(clo(build_bool(n)), build_bool(n).poset, range(2**n))
    chain2 = as_lattice(FinitePoset.closure([(0, 1)], 2))
    assert clo(chain2).covers == ((0, 1),)


def test_clo_needs_semidistributivity():
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    diamond = as_lattice(FinitePoset.closure(covers, 5))
    with pytest.raises(NotSemidistributive):
        clo(diamond)
    assert "_psi" not in vars(diamond)  # raised before any core label mask is read


def test_clo_rejects_repeated_core_label_sets(monkeypatch):
    lat = build_bool.__wrapped__(2)  # a fresh Bool(2), whose core label order is not built yet
    monkeypatch.setattr(lat, "_psi", np.zeros(lat.n, dtype=np.int64))
    with pytest.raises(InvariantViolated):
        clo(lat)


def test_clo_is_built_once_and_freed_with_its_lattice():
    lat = build_hoch.__wrapped__(4).lattice  # no builder cache holds it
    order = weakref.ref(clo(lat))
    assert clo(lat) is order() and hochlat.clo is lattice_module.clo is shuffles.clo
    del lat
    gc.collect()
    assert order() is None


def _module_imports():
    """{module: the hochlat modules it imports}, with each import that sits inside a function."""
    graph, nested = {}, []
    for path in sorted(Path(hochlat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        graph[path.stem] = {
            name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module] if node.module else [alias.name for alias in node.names])
        }
        nested += [
            (path.stem, inner.lineno)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(fn)
            if isinstance(inner, (ast.Import, ast.ImportFrom))
        ]
    return graph, nested


def test_the_package_imports_at_module_level_without_a_cycle():
    graph, nested = _module_imports()
    assert nested == []
    assert "shuffles" in graph["__init__"] and "shuffles" not in graph["lattice"]
    order = list(TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert order.index("lattice") < order.index("shuffles")


def test_sigma_and_m_triangle_share_one_core_label_order(monkeypatch):
    """The covers of the core label order are found once (FinitePoset.from_masks calls poset._covers)."""
    built = []
    real = poset_module._covers

    def counted(up):
        built.append(len(up))
        return real(up)

    build_hoch.cache_clear()
    monkeypatch.setattr(poset_module, "_covers", counted)
    assert check_sigma(5) and check_m_triangle(5)
    assert built == [build_hoch(5).lattice.n]
    assert clo(build_hoch(5).lattice) is clo(build_hoch(5).lattice)


def test_stats_values_pinned():
    stats = shuffle_stats(3)
    assert stats["maximal_chains"] == 12
    assert stats["mobius"] == -3
    assert stats["zeta_coefficients"] == [0, 0, -1, 2]
    assert shuffle_stats(2)["zeta_coefficients"] == [0, Fraction(-1, 2), Fraction(3, 2)]
