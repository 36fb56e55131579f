"""Re-runnable property battery behind ``check all`` and the acceptance tests.

Each function verifies one bundle of guarantees at a single size n and returns a plain bool;
the registry at the bottom names every bundle, and each runs at every n that ``check_n`` admits.
"""

from __future__ import annotations

from math import comb

from .complexes import cjc, is_vertex_decomposable
from .errors import SizeBound
from .galois import (
    galois_graph,
    hoch_galois_characterization,
    max_ortho_pairs_lattice,
    reconstruction_isomorphic,
)
from .hochschild import (
    build_hoch,
    build_hoch_by_doubling,
    enumerate_triwords,
    hoch_join_array,
    hoch_meet_array,
    irreducible_of_triword,
    parse_triword,
    triword_count,
)
from .lattice import (
    build_bool,
    has_intersection_property,
    is_extremal,
    is_semidistributive,
    is_spherical,
)
from .limits import check_n
from .polynomials import BiPoly
from .poset import are_isomorphic
from .shuffles import clo, clo_rank_counts, shuffle_lattice, shuffle_stats, shuffle_stats_closed, sigma
from .triangles import (
    boolean_baselines,
    char_poly_closed,
    f_closed,
    f_from_cores,
    f_from_m,
    f_tilde,
    face_count_closed,
    face_vector,
    g_conjecture_check,
    h_closed,
    h_from_antichains,
    h_from_m,
    h_tilde,
    m_closed,
    m_triangle,
    rank_poly_closed,
)


def _x_section(p):
    return BiPoly({(j, 0): c for (i, j), c in p.terms.items() if i == 0})


def _at_y1(p):
    terms = {}
    for (i, j), c in p.terms.items():
        terms[(i, 0)] = terms.get((i, 0), 0) + c
    return BiPoly(terms)


def check_cardinality(n):
    words = enumerate_triwords(n)
    return len(words) == len(set(words)) == triword_count(n)


def check_lattice_law(n):
    """Join/meet rows against the word formulas; both are symmetric, so row a only up to a."""
    h = build_hoch(n)
    lat, words = h.lattice, h.word_array
    rows_ok = all(
        (words.take(lat.join(a)[: a + 1], axis=0) == hoch_join_array(words[a], words[: a + 1])).all()
        and (words.take(lat.meet(a)[: a + 1], axis=0) == hoch_meet_array(words[a], words[: a + 1])).all()
        for a in range(lat.n)
    )
    ends = words.take(lat.covers, axis=0)  # (covers, 2, n): the two words of each cover
    return rows_ok and bool(((ends[:, 0] != ends[:, 1]).sum(1) == 1).all())


def check_structure(n):
    lat = build_hoch(n).lattice
    return (
        is_extremal(lat)
        and is_semidistributive(lat)
        and is_spherical(lat)
        and has_intersection_property(lat)
    )


def check_doubling(n):
    """Congruence uniformity of Hoch(n) by Day's characterization: a finite lattice is congruence
    uniform iff it arises from a point by interval doublings.  The rebuild by doublings is
    certified by its isomorphism, the triword map, onto ``build_hoch(n)``."""
    direct = build_hoch(n)
    doubled = build_hoch_by_doubling(n)
    image = [direct.index.get(u, -1) for u in doubled.labels]
    return are_isomorphic(doubled, direct.lattice.poset, image)


def check_galois(n):
    geo = galois_graph(build_hoch(n).lattice)
    want = hoch_galois_characterization(n)

    def irr_name(v):
        return str(irreducible_of_triword(parse_triword(geo.graph.labels[v])))

    got = {(irr_name(s), irr_name(t)) for s, t in geo.graph.edges}
    expected = {(want.labels[s], want.labels[t]) for s, t in want.edges}
    return got == expected and len(got) == (n - 1) + comb(n, 2)


def check_mo_reconstruction(n):
    lat = build_hoch(n).lattice
    geo = galois_graph(lat)
    return reconstruction_isomorphic(lat, geo, max_ortho_pairs_lattice(geo.graph))


def check_cjc(n):
    lat = build_hoch(n).lattice
    cx = cjc(lat)
    return cx.face_count() == lat.n and is_vertex_decomposable(cx)


def check_sigma(n):
    h = build_hoch(n)
    c = clo(h.lattice)
    sl = shuffle_lattice(n - 1, 1)
    images = [sigma(h.triword(e)) for e in range(c.n)]
    if sorted(images) != sorted(sl.words):
        return False
    mapped = {(sl.id_of(images[a]), sl.id_of(images[b])) for a, b in c.covers}
    if mapped != set(sl.lattice.covers):
        return False
    return c.rank_profile() == clo_rank_counts(n)


def check_shuffle_stats(n):
    return shuffle_stats(n) == shuffle_stats_closed(n)


def check_m_triangle(n):
    closed = m_closed(n)
    return (
        m_triangle(clo(build_hoch(n).lattice)) == closed
        and _x_section(closed) == char_poly_closed(n)
        and closed.eval_at(1, 1) == 1
    )


def check_f_triangle(n):
    closed = f_closed(n)
    return f_from_m(n) == closed and f_tilde(n) == closed and f_from_cores(n) == closed


def check_h_triangle(n):
    closed = h_closed(n)
    return (
        h_from_m(n) == closed
        and h_tilde(n) == closed
        and h_from_antichains(n) == closed
        and _at_y1(closed) == rank_poly_closed(n)
    )


def face_vector_ok(n, got):
    """Whether ``got`` is the closed face vector of Hoch(n): triword count to 1, alternating sum 1."""
    if got != [face_count_closed(n, i) for i in range(n + 1)]:
        return False
    alternating = sum((-1) ** i * f for i, f in enumerate(got))
    return got[0] == triword_count(n) and got[n] == 1 and alternating == 1


def check_faces(n):
    return face_vector_ok(n, face_vector(n))


def check_baselines(n):
    bb = boolean_baselines(n)
    if not (bb["m"] == bb["m_closed"] and bb["f"] == bb["f_closed"] and bb["h"] == bb["h_closed"]):
        return False
    lat = build_bool(n)
    return are_isomorphic(clo(lat), lat.poset, range(lat.n))


# The bundles `triangles --check` runs; `check all` runs them among the rest.
TRIANGLE_CHECKS = [
    ("m-triangle", check_m_triangle),
    ("f-triangle", check_f_triangle),
    ("h-triangle", check_h_triangle),
]

CHECKS = [
    ("triword count", check_cardinality),
    ("componentwise join/meet", check_lattice_law),
    ("extremal/semidistributive/spherical/intersection", check_structure),
    ("doubling reconstruction", check_doubling),
    ("galois characterization", check_galois),
    ("orthogonal-pair reconstruction", check_mo_reconstruction),
    ("canonical join complex", check_cjc),
    ("sigma order isomorphism", check_sigma),
    ("shuffle statistics", check_shuffle_stats),
    *TRIANGLE_CHECKS,
    ("face vector", check_faces),
    ("boolean baselines", check_baselines),
]


def run_checks(n, bundles, write=print):
    """Run the (name, fn) bundles at size n; True iff none failed.

    Writes one ok/FAIL line per bundle.  Raises SizeBound when n is out of
    range or the bundle list is empty, so verifying nothing never passes.
    """
    check_n(n)
    if not bundles:
        raise SizeBound(f"no check runs at n={n}")
    verdicts = []
    for name, fn in bundles:
        verdicts.append(fn(n))
        write(("ok   " if verdicts[-1] else "FAIL ") + name)
    return all(verdicts)


def run_all(n, write=print):
    """Run every bundle at size n, then report the G-triangle conjecture."""
    ok = run_checks(n, CHECKS, write)
    verdict = "matches" if g_conjecture_check(n)["match"] else "MISMATCH"
    write(f"note g-triangle conjecture at n={n}: {verdict}")
    return ok
