"""Acceptance gate: thirteen guarantees, one printed verdict line each, and a fault table.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines appear.
Every equality is exact; nothing is rounded and nothing is tolerated.  The
fault table shows that the eight bundles of ``check all`` that no other test
makes fail can fail: one planted fault turns each of them alone to FAIL.
"""

import dataclasses
import time

import numpy as np
import pytest

from hochlat import checks, triangles
from hochlat import lattice as lattice_module
from hochlat.checks import (
    check_baselines,
    check_cardinality,
    check_cjc,
    check_doubling,
    check_f_triangle,
    check_faces,
    check_galois,
    check_h_triangle,
    check_lattice_law,
    check_m_triangle,
    check_mo_reconstruction,
    check_shuffle_stats,
    check_sigma,
    check_structure,
)
from hochlat.cli import _sigma_table_lines, main
from hochlat.complexes import SimplicialComplex, cjc
from hochlat.galois import DiGraph, galois_graph, max_ortho_pairs_lattice
from hochlat.hochschild import build_hoch, enumerate_triwords, irreducible_of_triword, triword_count
from hochlat.polynomials import BiPoly
from hochlat.poset import FinitePoset
from hochlat.shuffles import clo_rank_counts, shuffle_stats
from hochlat.triangles import (
    f_closed,
    face_vector,
    g_conjecture_check,
    g_triangle,
    h_closed,
    j_poset,
    m_closed,
)

X = BiPoly.x()
Y = BiPoly.y()
ONE = BiPoly.const(1)

TABLE_3 = """u        tau(u)  l1(u)  sigma(u)
(0,0,0)  23      0      23
(0,0,2)  2       0      2
(0,2,0)  3       0      3
(0,2,2)  ε       0      ε
(1,0,0)  23      1      \U0001d7d923
(1,0,2)  2       1      \U0001d7d92
(1,1,0)  23      2      2\U0001d7d93
(1,1,1)  23      3      23\U0001d7d9
(1,1,2)  2       2      2\U0001d7d9
(1,2,0)  3       1      \U0001d7d93
(1,2,1)  3       3      3\U0001d7d9
(1,2,2)  ε       1      \U0001d7d9"""

M3 = (
    ONE + 5 * X * Y + 5 * X**2 * Y**2 + X**3 * Y**3
    - 5 * Y + 7 * Y**2 - 3 * Y**3
    - 12 * X * Y**2 + 7 * X * Y**3 - 5 * X**2 * Y**3
)


def _report(num, name, ok, extra=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_criterion_01_cardinality():
    ok = all(check_cardinality(n) for n in range(1, 11))
    enumerate_triwords.cache_clear()
    start = time.perf_counter()
    count_10 = len(enumerate_triwords(10))
    elapsed = time.perf_counter() - start
    ok = ok and count_10 == 3328 == triword_count(10) and elapsed < 1.0
    _report(1, "triword counts match 2^(n-2)(n+3) for n=1..10", ok, f"n=10 in {elapsed:.3f}s")


def test_criterion_02_lattice_law():
    ok = all(check_lattice_law(n) for n in range(1, 11))
    _report(2, "componentwise join/meet certified on the irreducible rows for n<=10", ok)


def test_criterion_03_structure():
    ok = all(check_structure(n) for n in range(1, 7))
    ok = ok and all(check_doubling(n) for n in range(1, 5))
    _report(3, "extremal/semidistributive/spherical/intersection, doubling rebuild", ok)


def test_criterion_04_galois():
    ok = all(check_galois(n) for n in range(1, 9))
    ok = ok and all(check_mo_reconstruction(n) for n in range(1, 6))
    n3 = max_ortho_pairs_lattice(galois_graph(build_hoch(3).lattice).graph)
    ok = ok and n3.poset.n == 12
    _report(4, "galois characterization n<=8, orthogonal-pair rebuild n<=5", ok)


def test_criterion_05_cjc():
    ok = all(check_cjc(n) for n in range(1, 7))
    for n in range(1, 7):
        h = build_hoch(n)
        cx = cjc(h.lattice)
        named = {
            frozenset(str(irreducible_of_triword(h.triword(v))) for v in f)
            for f in cx.facets
        }
        expected = {frozenset({"a1"} | {f"b{j}" for j in range(2, n + 1)})}
        expected |= {
            frozenset({f"a{i}"} | {f"b{j}" for j in range(2, n + 1) if j != i})
            for i in range(2, n + 1)
        }
        ok = ok and named == expected
    _report(5, "canonical join complex facets and vertex decomposability n<=6", ok)


def test_criterion_06_sigma():
    ok = all(check_sigma(n) for n in range(1, 7))
    ok = ok and "\n".join(_sigma_table_lines(3, False)) == TABLE_3
    ok = ok and clo_rank_counts(3) == [1, 5, 5, 1]
    _report(6, "sigma is an order isomorphism; table bytes pinned at n=3", ok)


def test_criterion_07_shuffle_stats():
    ok = all(check_shuffle_stats(n) for n in range(1, 7))
    stats = shuffle_stats(3)
    ok = ok and stats["maximal_chains"] == 12 and stats["mobius"] == -3
    _report(7, "shuffle chain counts, zeta polynomial, and mobius for n<=6", ok)


def test_criterion_08_m_triangle():
    ok = all(check_m_triangle(n) for n in range(1, 6))
    ok = ok and m_closed(3) == M3
    _report(8, "definitional M equals closed M for n<=5; M_3 pinned", ok)


def test_criterion_09_f_triangle():
    ok = all(check_f_triangle(n) for n in range(1, 6))
    pinned = (X + Y + ONE) * (3 * X**2 + 2 * X * Y + 4 * X + (Y + ONE) ** 2)
    ok = ok and f_closed(3) == pinned
    _report(9, "four F-triangle paths agree for n<=5; F_3 pinned", ok)


def test_criterion_10_h_triangle():
    ok = all(check_h_triangle(n) for n in range(1, 6))
    ok = ok and h_closed(4) == (X * Y + ONE) ** 2 * ((X * Y + ONE) ** 2 + 3 * X)
    ok = ok and all(
        len(j_poset(n).poset.antichains()) == triword_count(n) for n in range(1, 7)
    )
    _report(10, "four H-triangle paths agree for n<=5; antichain counts", ok)


def test_criterion_11_faces():
    ok = all(check_faces(n) for n in range(1, 9))
    ok = ok and face_vector(3) == [12, 18, 8, 1]
    for n in range(1, 7):
        lat = build_hoch(n).lattice
        fv = face_vector(n)
        ok = ok and fv[0] == lat.n and fv[1] == len(lat.covers)
    _report(11, "freehedron face vector matches the closed count for n<=8", ok)


def test_criterion_12_baselines():
    ok = all(check_baselines(n) for n in range(0, 6))
    _report(12, "boolean M/F/H baselines and CLO(Bool) = Bool for n<=5", ok)


def test_criterion_13_conjecture_harness():
    ok = all(g_triangle(n, 0) == (X + Y + ONE) ** n for n in range(1, 5))
    verdicts = []
    for n in range(2, 7):
        report = g_conjecture_check(n)
        verdicts.append(f"n={n} {'match' if report['match'] else 'MISMATCH'}")
    # The closed-form guess is reported, never asserted.
    _report(13, "G-triangle harness", ok, "; ".join(verdicts))


# -- the fault table ------------------------------------------------------------


def _duplicate_a_word(real):
    return lambda n: real(n) + real(n)[:1]


def _drop_the_empty_core_label_set(real):  # the bottom's set, empty, becomes a new one-element set
    def psi_map(lat):
        psi = real(lat).copy()
        psi[lat.bottom] = 1 << len(lat.join_irreducibles())
        return psi

    return psi_map


def _drop_an_edge(real):
    return lambda n: DiGraph(real(n).k, sorted(real(n).edges)[1:], real(n).labels)


def _add_a_disjoint_edge(real):
    return lambda lat: SimplicialComplex([*real(lat).facets, {-1, -2}])


def _clear_the_bottom_row(real):  # the covers stay right; the packed order loses the pairs above the least mask
    def from_masks(masks, labels=None):
        p = real(masks, labels)
        up = p._up.copy()
        up[np.argmin(masks)] = 0
        return FinitePoset(up, np.stack(p._ends, axis=1), labels)

    return from_masks


def _add_x(real):
    return lambda m, n: real(m, n) + X


def _drop_an_atom(real):
    return lambda n: dataclasses.replace(real(n), atoms=real(n).atoms - {0})


def _count_one_pair_more(real):
    def rank_corank_counts(p):
        counts = real(p).copy()
        counts[0, 0] += 1
        return counts

    return rank_corank_counts


def _count_one_coverless_element_more(real):
    def cover_counts(lat):
        counts = real(lat).copy()
        counts[(0, 0)] += 1
        return counts

    return cover_counts


FAULTS = [  # (bundles, owners, name, fault): each owner's name is replaced by fault(the function it replaces)
    (("triword count",), (checks,), "enumerate_triwords", _duplicate_a_word),
    (("extremal/semidistributive/spherical/intersection",), (lattice_module,), "psi_map", _drop_the_empty_core_label_set),
    (("galois characterization",), (checks,), "hoch_galois_characterization", _drop_an_edge),
    (("canonical join complex",), (checks,), "cjc", _add_a_disjoint_edge),
    (("m-triangle",), (FinitePoset,), "from_masks", _clear_the_bottom_row),
    (("f-triangle",), (triangles,), "f_transform", _add_x),
    (("h-triangle",), (triangles,), "j_poset", _drop_an_atom),
    (("boolean baselines",), (FinitePoset,), "rank_corank_counts", _count_one_pair_more),
    (
        ("f-triangle", "h-triangle", "face vector", "boolean baselines"),
        (triangles, checks),
        "_cover_counts",
        _count_one_coverless_element_more,
    ),
]


@pytest.mark.parametrize("bundles, owners, name, fault", FAULTS, ids=[", ".join(row[0]) for row in FAULTS])
def test_a_planted_fault_fails_its_bundle_alone(bundles, owners, name, fault, capsys, monkeypatch):
    """One fault planted in what a bundle reads makes ``check all --n 5`` print FAIL for that bundle and
    no other, and exit 1; a fault in what several bundles read, the lower cover counts, fails each of them
    and no other.  The m-triangle's fault is in the packed order FinitePoset.from_masks returns
    for the core label order (built afresh: build_hoch's cache is emptied first), the baselines' in the
    graded pair counts FinitePoset.rank_corank_counts, so both show that the bundles read those methods."""
    build_hoch.cache_clear()
    for owner in owners:
        monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    code, out = main(["check", "all", "--n", "5"]), capsys.readouterr().out
    assert code == 1 and [line for line in out.splitlines() if line.startswith("FAIL ")] == [f"FAIL {b}" for b in bundles]
