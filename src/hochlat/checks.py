"""Re-runnable property battery behind ``check all`` and the acceptance tests.

Each function verifies one bundle of guarantees at a single size n and returns a plain bool;
the registry at the bottom names every bundle, and each runs at every n that ``check_n`` admits.
"""

from __future__ import annotations

from math import comb

import numpy as np

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
    hoch_meet_code,
    irreducible_of_triword,
    triword_count,
)
from .lattice import (
    build_bool,
    clo,
    has_intersection_property,
    is_extremal,
    is_semidistributive,
    is_spherical,
)
from .limits import check_n
from .polynomials import BiPoly
from .poset import are_isomorphic
from .shuffles import clo_rank_counts, shuffle_lattice, shuffle_stats, shuffle_stats_closed, sigma
from .triangles import (
    _cover_counts,
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
    """Certified on k rows: each element is the join of the join-irreducibles below it and the meet
    of the meet-irreducibles above it (Davey and Priestley, Introduction to Lattices and Order, 2.41).
    Distinct codes and the join rows make the code an order embedding with join OR.  rho(x) =
    ``hoch_meet_code(x, x, n)`` is a kernel operator on the words with u1 != 2 (ch. 7 there), so its
    fixed points, the codes, meet by rho(x & y) = ``hoch_meet_code(x, y, n)``."""
    h = build_hoch(n)
    lat, codes = h.lattice, h.codes
    x = np.zeros(1, dtype=np.int64)  # the codes of the 2 * 3**(n-1) words with u1 != 2
    for i in range(n):
        x = (x[:, None] | np.array([0, 1 << i, 1 << i | 1 << n + i][: 2 + (i > 0)])).ravel()
    rho = hoch_meet_code(x, x, n)
    ups = (x | np.where(x >> i & 1, 1 << n + i, 1 << i) if i else x | 1 for i in range(n))  # a cover per letter
    d = codes[lat.poset._ends[0]] ^ codes[lat.poset._ends[1]]  # the two codes of each cover, XORed
    e = d & ((1 << n) - 1) | d >> n
    return bool(
        not (rho & ~x).any()
        and (hoch_meet_code(rho, rho, n) == rho).all()
        and not any((rho & ~hoch_meet_code(y, y, n)).any() for y in ups)
        and len(codes) == triword_count(n) and np.array_equal(np.sort(codes), np.sort(x[rho == x]))
        and all((codes[lat.join(a)] == codes[a] | codes).all() for a in lat.join_irreducibles())
        and all((codes[lat.meet(q)] == hoch_meet_code(codes[q], codes, n)).all() for q in lat.meet_irreducibles())
        and ((e != 0) & (e & (e - 1) == 0)).all()
    )


def check_structure(n):
    """Extremal, semidistributive, spherical, and core label sets closed under intersection, certified
    by looking up each set's AND with the sets of the core label order's elements of at most one upper cover."""
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
    h = build_hoch(n)
    geo, want = galois_graph(h.lattice), hoch_galois_characterization(n)

    def irr_name(v):
        return str(irreducible_of_triword(h.triword(geo.joins[v])))

    got = {(irr_name(s), irr_name(t)) for s, t in geo.graph.edges}
    expected = {(want.labels[s], want.labels[t]) for s, t in want.edges}
    return got == expected and len(got) == (n - 1) + comb(n, 2)


def check_mo_reconstruction(n):
    lat = build_hoch(n).lattice
    geo = galois_graph(lat)
    return reconstruction_isomorphic(lat, geo, max_ortho_pairs_lattice(geo.graph))


def check_cjc(n):
    """The canonical join complex is vertex-decomposable.  ``cjc`` certifies that the canonical join
    representations are its faces, one per element, and raises InvariantViolated when they are not."""
    return is_vertex_decomposable(cjc(build_hoch(n).lattice))


def check_sigma(n):
    """sigma is an order isomorphism from the CLO onto Shuf(n - 1, 1); a non-word image is -1."""
    h = build_hoch(n)
    c = clo(h.lattice)
    sl = shuffle_lattice(n - 1, 1)
    image = [sl.index.get(sigma(h.triword(e)), -1) for e in range(c.n)]
    return are_isomorphic(c, sl.lattice.poset, image) and c.rank_profile() == clo_rank_counts(n)


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
    """The closed H-triangle against M's transform, the word statistics, the antichains, Hoch(n)'s own lower
    covers and atom labels, and, at y = 1, the rank polynomial."""
    closed = h_closed(n)
    return (
        h_from_m(n) == closed
        and h_tilde(n) == closed
        and h_from_antichains(n) == closed
        and BiPoly(_cover_counts(build_hoch(n).lattice)) == closed
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
