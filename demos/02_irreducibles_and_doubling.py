"""
Join-irreducible elements, canonical join representations, and rebuilding
the whole lattice by interval doublings.
"""

from hochlat import (
    are_isomorphic,
    build_hoch,
    build_hoch_by_doubling,
    canonical_joinrep,
    canrep_formula,
    is_extremal,
    is_semidistributive,
    is_spherical,
    has_intersection_property,
)
from hochlat.hochschild import irreducible_of_triword

n = 4
H = build_hoch(n)
L = H.lattice

# two families of join-irreducibles: staircase words 1^i 0^(n-i) and the
# words with a single 2; that's 2n-1 of them
print(f"join-irreducibles of Hoch({n}):")
for j in sorted(L.join_irreducibles()):
    w = H.triword(j)
    print(f"  {w}  ({irreducible_of_triword(w)})")
print(f"total {len(L.join_irreducibles())} = 2*{n}-1")

# every element is the join of its canonical representation, an antichain
# of irreducibles; the formula reads the positions straight off the word
print()
print("canonical join representations:")
for u in [(0, 0, 0, 0), (1, 1, 0, 2), (0, 2, 0, 2), (1, 1, 1, 1)]:
    rep = canonical_joinrep(L, H.id_of(u))
    irrs = {irreducible_of_triword(H.triword(j)) for j in rep}
    assert canrep_formula(u) == frozenset(irrs)
    names = sorted(str(x) for x in irrs)
    print(f"  {u} = join of {names if names else ['(bottom, empty join)']}")

# structural profile
print()
print(f"extremal:              {is_extremal(L)}")
print(f"semidistributive:      {is_semidistributive(L)}")
print(f"spherical:             {is_spherical(L)}")
print(f"intersection property: {has_intersection_property(L)}")

# the lattice is congruence-uniform: it arises from a point by doubling
# intervals.  build_hoch_by_doubling replays that recipe and lands on the
# same lattice; each rebuilt element is labelled by its triword, and sending it
# to the direct build's element of that word is an isomorphism.
D = build_hoch_by_doubling(n)
image = [H.id_of(u) for u in D.labels]
print()
print(f"doubling rebuild of Hoch({n}) isomorphic to direct build:",
      are_isomorphic(D, L.poset, image))
