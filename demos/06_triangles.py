"""
The M, F and H polynomials: definitional computations against closed
forms, and the substitutions connecting them.
"""

from hochlat import (
    BiPoly,
    boolean_baselines,
    build_hoch,
    char_poly_closed,
    clo,
    f_closed,
    f_from_m,
    f_tilde,
    g_conjecture_check,
    h_closed,
    h_from_antichains,
    h_from_m,
    h_tilde,
    m_closed,
    m_triangle,
    rank_poly_closed,
)

n = 4

# M is the Mobius-weighted rank pairing of the core label order
M_def = m_triangle(clo(build_hoch(n).lattice))
M = m_closed(n)
print(f"M_{n} definitional == closed: {M_def == M}")
print(f"M_{n} =", M.to_str())

# its x = 0 slice is the characteristic polynomial (a one-variable
# polynomial, so the slice is re-keyed onto the x slot), and the total
# Mobius mass is 1
slice0 = BiPoly({(j, 0): c for (i, j), c in M.terms.items() if i == 0})
print("M(0,y) == characteristic polynomial:", slice0 == char_poly_closed(n))
print("M(1,1) =", M.eval_at(1, 1))

# F counts pairs (element, subset of its lower covers); three roads lead to
# the same polynomial
F = f_closed(n)
print()
print(f"F_{n} =", F.to_str())
print("  word statistic:      ", f_tilde(n) == F)
print("  substitution into M: ", f_from_m(n) == F)

# H keeps only the extreme subsets; its y = 1 slice is the rank generating
# function of the core label order
Hp = h_closed(n)
print()
print(f"H_{n} =", Hp.to_str())
print("  from antichains:     ", h_from_antichains(n) == Hp)
print("  word statistic:      ", h_tilde(n) == Hp)
print("  substitution into M: ", h_from_m(n) == Hp)
at_y1 = {}
for (i, j), c in Hp.terms.items():
    at_y1[(i, 0)] = at_y1.get((i, 0), 0) + c
print("  H(x,1) == rank poly: ", BiPoly(at_y1) == rank_poly_closed(n))

# the Boolean lattice runs the same pipeline and lands on binomial products
print()
bb = boolean_baselines(3)
print("Boolean n=3:")
print("  M =", bb["m"].to_str(), "| matches closed:", bb["m"] == bb["m_closed"])
print("  F =", bb["f"].to_str(), "| matches closed:", bb["f"] == bb["f_closed"])
print("  H =", bb["h"].to_str(), "| matches closed:", bb["h"] == bb["h_closed"])

# an open product formula for the two-sided rank pairing of Shuf(n-1,1):
# computed and compared, reported either way
print()
for k in range(2, 6):
    r = g_conjecture_check(k)
    verdict = "matches" if r["match"] else "DIFFERS"
    print(f"G conjecture at n={k}: {verdict}")
