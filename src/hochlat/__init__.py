"""Hochschild lattice combinatorics: posets, lattices, triwords, and triangles."""

from .complexes import SimplicialComplex, cjc, is_vertex_decomposable, shedding_witness
from .galois import DiGraph, galois_graph, hoch_galois_characterization, max_ortho_pairs_lattice
from .hochschild import (
    HochIrreducible,
    HochLattice,
    build_hoch,
    build_hoch_by_doubling,
    canrep_formula,
    core_labels_formula,
    enumerate_triwords,
    f0,
    hoch_join,
    hoch_meet,
    is_triword,
    l1,
    nucleus_formula,
    psi_inverse,
    triword_count,
)
from .lattice import (
    Lattice,
    as_lattice,
    build_bool,
    canonical_joinrep,
    clo,
    has_intersection_property,
    is_extremal,
    is_join_semidistributive,
    is_meet_semidistributive,
    is_semidistributive,
    is_spherical,
    jsd_labeling,
)
from .polynomials import BiPoly, interpolate_from_grid, interpolate_univariate
from .poset import FinitePoset, are_isomorphic, doubling
from .shuffles import (
    ShuffleLattice,
    render_word,
    shuffle_lattice,
    shuffle_stats,
    shuffle_stats_closed,
    sigma,
    sigma_inverse,
)
from .triangles import (
    JPoset,
    boolean_baselines,
    char_poly_closed,
    f_closed,
    f_from_m,
    f_tilde,
    face_count_closed,
    face_vector,
    g_conjecture_check,
    g_conjecture_closed,
    g_triangle,
    h_closed,
    h_from_antichains,
    h_from_m,
    h_tilde,
    j_poset,
    m_closed,
    m_triangle,
    rank_poly_closed,
    shuffle_char_closed,
)

__version__ = "0.1.0"
