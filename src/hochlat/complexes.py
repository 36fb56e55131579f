"""Canonical join complexes and vertex decomposability.

The canonical join complex of a join-semidistributive lattice has one face
per element: the canonical join representation, read off the lattice's masks
over its join-irreducibles.  Faces are stored by their maximal members
(facets); everything else is derived on demand.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import InvariantViolated, NotAFace, NotJoinSemidistributive
from .lattice import canonical_joinrep, is_join_semidistributive


def _maximal_sets(sets):
    """Inclusion-maximal members, sorted for determinism."""
    pool = sorted(set(sets), key=lambda f: (len(f), sorted(f)))
    out = []
    for i, f in enumerate(pool):
        if not any(f < g for g in pool[i + 1 :]):
            out.append(f)
    return tuple(sorted(out, key=lambda f: (len(f), sorted(f))))


class SimplicialComplex:
    """Finite abstract simplicial complex given by its facets.

    Always contains the empty face.  ``labels`` maps vertex ids to display
    names; vertices are whatever ids the facets mention.
    """

    def __init__(self, facets, labels=None):
        facets = [frozenset(f) for f in facets]
        if not facets:
            facets = [frozenset()]
        self.facets = _maximal_sets(facets)
        self.vertices = tuple(sorted(set().union(*self.facets)))
        self.labels = dict(labels) if labels else {}

    def label(self, v):
        return str(self.labels.get(v, v))

    def is_face(self, face):
        face = frozenset(face)
        return any(face <= f for f in self.facets)

    def faces(self):
        """Every face, the empty one included, deduplicated."""
        seen = set()
        for f in self.facets:
            members = sorted(f)
            for r in range(len(members) + 1):
                for combo in combinations(members, r):
                    seen.add(frozenset(combo))
        return sorted(seen, key=lambda f: (len(f), sorted(f)))

    def face_count(self):
        return len(self.faces())

    def dimension(self):
        return max(len(f) for f in self.facets) - 1

    def is_simplex(self):
        return len(self.facets) == 1

    def link(self, face):
        face = frozenset(face)
        if not self.is_face(face):
            raise NotAFace(f"{sorted(face)} is not a face")
        shrunk = [f - face for f in self.facets if face <= f]
        return SimplicialComplex(shrunk, self.labels)

    def deletion(self, face):
        """Faces that do not contain the whole of ``face``."""
        face = frozenset(face)
        if not self.is_face(face):
            raise NotAFace(f"{sorted(face)} is not a face")
        if not face:
            raise NotAFace("cannot delete the empty face")
        keep = []
        for f in self.facets:
            if not face <= f:
                keep.append(f)
            else:
                keep.extend(f - {x} for x in face)
        return SimplicialComplex(keep, self.labels)

    def degree(self, v):
        return sum(1 for f in self.facets if v in f)

    def to_json(self):
        return {
            "vertices": [self.label(v) for v in self.vertices],
            "facets": [sorted(self.label(v) for v in f) for f in self.facets],
        }

    def to_off_text(self):
        """OFF-like dump: vertex roster, then one facet per line by index."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        lines = ["OFF", f"{len(self.vertices)} {len(self.facets)} 0"]
        lines += [f"# {i} {self.label(v)}" for i, v in enumerate(self.vertices)]
        for f in self.facets:
            idx = sorted(pos[v] for v in f)
            lines.append(" ".join(str(x) for x in [len(idx)] + idx))
        return "\n".join(lines)

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        return f"SimplicialComplex(vertices={len(self.vertices)}, facets={len(self.facets)})"


def cjc(lat):
    """Canonical join complex: one face per element of the lattice.  The canonical join masks are certified to be
    its faces, as lat.n distinct masks closed under dropping one vertex; its facets are then the faces that no
    join-irreducible extends.  Both are tested a vertex at a time: flip its bit, look the results up among the sorted masks."""
    if not is_join_semidistributive(lat):
        raise NotJoinSemidistributive("lattice is not join-semidistributive")
    order, irr = np.argsort(lat._canonical, kind="stable"), lat.join_irreducibles()
    faces = lat._canonical[order]
    if (distinct := 1 + int((faces[1:] != faces[:-1]).sum())) != lat.n:
        raise InvariantViolated(f"{distinct} distinct canonical join representations for {lat.n} elements")
    facet = np.ones(lat.n, dtype=bool)
    for i in range(len(irr)):
        flip = faces ^ 1 << i
        found = faces[np.searchsorted(faces, flip).clip(max=lat.n - 1)] == flip
        if (~found & (had := flip < faces)).any():  # a face with vertex i, not a face without it
            raise InvariantViolated("the canonical join representations are not closed under dropping a vertex")
        facet &= had | ~found
    facets = [canonical_joinrep(lat, a) for a in order[facet].tolist()]
    return SimplicialComplex(facets, {a: str(lat.poset.labels[a]) for a in irr})


def is_vertex_decomposable(cx):
    """Shedding-vertex recursion; see ``shedding_witness`` for the trace."""
    return shedding_witness(cx) is not None


def shedding_witness(cx, _memo=None):
    """A nested shedding certificate, or None.

    A simplex certifies itself as ("simplex", facet).  Otherwise the result
    is ("shed", v, link_witness, deletion_witness) for the first admissible
    shedding vertex, candidates ordered by decreasing facet degree then id.
    A vertex is admissible when link and deletion are both decomposable and
    no facet of the link is also a facet of the deletion.
    """
    if _memo is None:
        _memo = {}
    key = cx.facets
    if key in _memo:
        return _memo[key]
    if cx.is_simplex():
        result = ("simplex", tuple(sorted(cx.facets[0])))
        _memo[key] = result
        return result
    _memo[key] = None
    result = None
    order = sorted(cx.vertices, key=lambda v: (-cx.degree(v), v))
    for v in order:
        link = cx.link([v])
        gone = cx.deletion([v])
        if any(f in gone.facets for f in link.facets):
            continue
        sub_link = shedding_witness(link, _memo)
        if sub_link is None:
            continue
        sub_gone = shedding_witness(gone, _memo)
        if sub_gone is None:
            continue
        result = ("shed", v, sub_link, sub_gone)
        break
    _memo[key] = result
    return result

