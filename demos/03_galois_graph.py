"""
The Galois graph of the lattice and reconstruction from maximal
orthogonal pairs.
"""

from hochlat import (
    build_hoch,
    galois_graph,
    hoch_galois_characterization,
    max_ortho_pairs_lattice,
)
from hochlat.galois import reconstruction_isomorphic

n = 4
H = build_hoch(n)
L = H.lattice

# vertices are the join-irreducibles, edges come from the lex-least longest
# chain through the lattice
G = galois_graph(L)
print(f"Galois graph of Hoch({n}): {G.graph.k} vertices, "
      f"{len(G.graph.edges)} edges")
for s, t in sorted(G.graph.edges):
    print(f"  {G.graph.labels[s]} -> {G.graph.labels[t]}")

# the same graph described directly: b_t -> a_t, and a_t -> a_t' for t > t'
C = hoch_galois_characterization(n)
print()
print(f"characterization edge count: {len(C.edges)} "
      f"= (n-1) + C(n,2) = {(n - 1) + n * (n - 1) // 2}")

# the lattice of maximal orthogonal pairs of the Galois graph recovers the
# lattice we started from: the pair (X, Y) stands for the join of the
# join-irreducibles in X, and that map is an isomorphism
MO = max_ortho_pairs_lattice(G.graph)
print()
print(f"maximal orthogonal pairs: {MO.poset.n} "
      f"(elements of Hoch({n}): {L.n})")
print("reconstruction isomorphic to original:",
      reconstruction_isomorphic(L, G, MO))

# one pair, spelled out
X, Y = MO.pair_sets(5)
print()
print("sample pair (X, Y) with no edges from X to Y, maximal both ways:")
print("  X =", sorted(G.graph.labels[v] for v in X))
print("  Y =", sorted(G.graph.labels[v] for v in Y))
