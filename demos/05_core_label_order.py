"""
The core label order of the lattice, and why it is a shuffle lattice in
disguise.
"""

from hochlat import (
    build_hoch,
    clo,
    clo_rank_counts,
    l1,
    render_word,
    shuffle_lattice,
    shuffle_stats,
    sigma,
)

n = 3
H = build_hoch(n)
K = clo(H.lattice)

# same elements, new order: u below v when the label set of u's core sits
# inside that of v.  Unlike the lattice itself this poset is graded.
print(f"core label order on the {K.n} elements of Hoch({n}):")
print(f"  rank profile {K.rank_profile()}")
print(f"  closed form  {clo_rank_counts(n)}")

# the map sigma sends each triword to a shuffle of 2..n with one extra
# letter, inserted right after the position of the last 1 (or in front)
print()
print(f"{'u':<12} {'l1':<3} sigma(u)")
for u in sorted(H.triwords):
    print(f"{str(u):<12} {l1(u):<3} {render_word(sigma(u))}")

# sigma is an order isomorphism onto the shuffle lattice Shuf(n-1, 1)
sl = shuffle_lattice(n - 1, 1)
img = sorted(sigma(u) for u in H.triwords)
print()
print(f"image of sigma == Shuf({n-1},1) word set:", img == sorted(sl.words))

st = shuffle_stats(n)
print()
print(f"Shuf({n-1},1): {st['elements']} elements, "
      f"{st['maximal_chains']} maximal chains, mobius {st['mobius']}")
