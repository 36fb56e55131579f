from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochlat.errors import InterpolationDegeneracy
from hochlat.polynomials import BiPoly, interpolate_from_grid, interpolate_univariate

X = BiPoly.x()
Y = BiPoly.y()

EXACT = st.integers(-30, 30) | st.fractions(-30, 30, max_denominator=12)
BIPOLYS = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), EXACT, max_size=10).map(BiPoly)
ORACLE_SETTINGS = settings(max_examples=200, deadline=None, database=None)


def _norm_oracle(c):
    c = Fraction(c)
    return int(c) if c.denominator == 1 else c


def eval_at_oracle(p, x, y):
    """Definitional evaluation: one Fraction power product per term."""
    x, y = Fraction(x), Fraction(y)
    return _norm_oracle(sum((c * x**i * y**j for (i, j), c in p.terms.items()), Fraction(0)))


def interpolate_oracle(points):
    """Lagrange interpolation with every quantity a Fraction."""
    xs = [Fraction(x) for x, _ in points]
    coeffs = [Fraction(0)] * len(points)
    for xk, yk in points:
        xk, yk = Fraction(xk), Fraction(yk)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for xo in xs:
            if xo == xk:
                continue
            denom *= xk - xo
            basis = [Fraction(0)] + basis
            for t in range(len(basis) - 1):
                basis[t] -= xo * basis[t + 1]
        for t, b in enumerate(basis):
            coeffs[t] += yk / denom * b
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return [_norm_oracle(c) for c in coeffs]


def typed(values):
    """Values with their types, so an int and an integral Fraction differ."""
    return [(type(v), v) for v in values]


def test_arithmetic():
    p = (X + Y + 1) ** 2
    q = X**2 + Y**2 + 1 + 2 * X * Y + 2 * X + 2 * Y
    assert p == q
    assert p - q == BiPoly()
    assert (X - Y) * (X + Y) == X**2 - Y**2
    assert -(X - Y) == Y - X
    assert (X * 0) == BiPoly()
    assert not BiPoly()


def test_eval_exact():
    p = (X * Y - Y + 1) ** 3
    assert p.eval_at(1, 1) == 1
    assert p.eval_at(Fraction(1, 2), 3) == Fraction(-1, 8)
    assert (X + Y).eval_at(Fraction(2, 3), Fraction(1, 3)) == 1


def test_degrees_and_coeff():
    p = 3 * X**2 * Y + X - 7
    assert p.deg_x() == 2
    assert p.deg_y() == 1
    assert p.terms.get((2, 1), 0) == 3
    assert p.terms.get((0, 0), 0) == -7
    assert p.terms.get((5, 5), 0) == 0


def test_equality_with_other_types_keeps_the_hash_contract():
    assert X != None and X != "x" and not X == [1]
    assert BiPoly.const(3) == 3 and hash(BiPoly.const(3)) == hash(3)
    assert BiPoly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(BiPoly.const(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert BiPoly() == 0 and hash(BiPoly()) == hash(0)
    assert len({BiPoly.const(3), 3, X + 1, 1 + X}) == 2


def test_to_str_deterministic():
    p = X**2 * Y - 5 * Y**2 + X - 1
    assert p.to_str() == "x^2*y - 5*y^2 + x - 1"
    assert BiPoly().to_str() == "0"
    assert (-X).to_str() == "-x"
    assert BiPoly.const(Fraction(1, 2)).to_str() == "1/2"


def test_json_shape():
    data = ((X + 1) * (Y + 2)).to_json()
    assert data == {
        "terms": [
            {"x": 1, "y": 1, "c": "1"},
            {"x": 1, "y": 0, "c": "2"},
            {"x": 0, "y": 1, "c": "1"},
            {"x": 0, "y": 0, "c": "2"},
        ]
    }


def test_univariate_interpolation():
    pts = [(0, 1), (1, 2), (2, 5), (3, 10)]
    assert interpolate_univariate(pts) == [1, 0, 1]
    tri = [(k, k * (k - 1) // 2) for k in range(3)]
    assert interpolate_univariate(tri) == [0, Fraction(-1, 2), Fraction(1, 2)]
    assert interpolate_univariate([(4, 9)]) == [9]
    with pytest.raises(InterpolationDegeneracy):
        interpolate_univariate([(1, 1), (1, 2)])


def test_grid_interpolation_recovers_polynomial():
    p = (X * Y - Y + 1) ** 3 + 5 * X**2
    xs = range(7)
    ys = range(10, 17)
    got = interpolate_from_grid(xs, ys, lambda a, b: p.eval_at(a, b))
    assert got == p
    with pytest.raises(InterpolationDegeneracy):
        interpolate_from_grid([1, 1], [0, 2], lambda a, b: 0)


@ORACLE_SETTINGS
@given(BIPOLYS, EXACT, EXACT)
def test_eval_at_matches_per_term_oracle(p, x, y):
    for a, b in ((x, y), (0, y), (x, 0), (-abs(x) - 1, y), (Fraction(-7, 3), Fraction(5, 9))):
        assert typed([p.eval_at(a, b)]) == typed([eval_at_oracle(p, a, b)])


@ORACLE_SETTINGS
@given(st.lists(EXACT, min_size=1, max_size=9, unique=True), st.data())
def test_interpolation_matches_fraction_oracle(xs, data):
    points = [(x, data.draw(EXACT)) for x in xs]
    assert typed(interpolate_univariate(points)) == typed(interpolate_oracle(points))


def test_interpolation_with_fraction_and_negative_nodes():
    p = [Fraction(3, 4), -2, 0, Fraction(1, 6)]  # 3/4 - 2x + x^3/6
    nodes = (Fraction(-5, 2), -1, Fraction(1, 3), 7)
    points = [(x, sum(c * Fraction(x) ** k for k, c in enumerate(p))) for x in nodes]
    assert interpolate_univariate(points) == p
    assert typed(interpolate_univariate(points)) == typed(interpolate_oracle(points))


def test_empty_node_sets_are_degenerate():
    with pytest.raises(InterpolationDegeneracy, match="no interpolation nodes"):
        interpolate_univariate([])
    with pytest.raises(InterpolationDegeneracy, match="no interpolation nodes"):
        interpolate_from_grid([], [0, 1], lambda a, b: 0)
    with pytest.raises(InterpolationDegeneracy, match="no interpolation nodes"):
        interpolate_from_grid([0, 1], [], lambda a, b: 0)


@pytest.mark.parametrize("e", [-1, 1.5, Fraction(2)])
def test_power_needs_a_non_negative_int(e):
    with pytest.raises(ValueError, match="non-negative int"):
        BiPoly.x() ** e


def test_power_makes_bit_length_plus_popcount_minus_two_products(monkeypatch):
    """Binary powering starts from the first odd power, not from 1 times it, and squares only while bits
    remain, so no product is by 1 and none is thrown away."""
    products, mul = [], BiPoly.__mul__
    monkeypatch.setattr(BiPoly, "__mul__", lambda p, q: products.append(1) or mul(p, q))
    for e in range(1, 70):
        products.clear()
        (X + 1) ** e
        assert len(products) == e.bit_length() + bin(e).count("1") - 2, e
    products.clear()
    assert (X + 1) ** 0 == 1 and not products


def test_power_equals_repeated_products():
    """On integer and Fraction coefficients and on zero, for e = 0..12."""
    for p in (X * Y - Y + 1, Fraction(1, 2) * X**2 - Fraction(2, 3) * Y + Fraction(5, 7), BiPoly()):
        want = BiPoly.const(1)
        for e in range(13):
            assert p**e == want, (p, e)
            want = want * p


@pytest.mark.parametrize("key", [(0.5, 0), ("2", 0), (-1, 0), (0, -3), (1, 2.0), (None, 0)])
def test_constructor_rejects_exponents_that_are_not_non_negative_integers(key):
    for c in (1, 0):  # a zero term is checked too, before it is dropped
        with pytest.raises(ValueError, match="non-negative integers"):
            BiPoly({key: c})


def test_constructor_takes_exponents_by_operator_index():
    p = BiPoly({(np.int64(2), True): 3})
    assert p.terms == {(2, 1): 3} and all(type(e) is int for key in p.terms for e in key)


def product_by_rebuild(p, q):
    """The product of p and q term by term, rebuilt through the constructor."""
    out = {}
    for (i1, j1), c1 in p.terms.items():
        for (i2, j2), c2 in q.terms.items():
            out[(i1 + i2, j1 + j2)] = out.get((i1 + i2, j1 + j2), 0) + c1 * c2
    return BiPoly(out)


@ORACLE_SETTINGS
@given(BIPOLYS, BIPOLYS, EXACT, st.integers(0, 3))
def test_arithmetic_matches_the_result_rebuilt_through_the_constructor(p, q, s, e):
    """+, -, * and ** skip the constructor; each must give the terms the constructor gives, every
    integral coefficient an int (so a constant hashes like the number it equals) and no zero kept."""
    keys = p.terms.keys() | q.terms.keys()
    power = BiPoly.const(1)
    for _ in range(e):
        power = product_by_rebuild(power, p)
    cases = [
        (p * q, product_by_rebuild(p, q)),
        (p * s, BiPoly({k: c * s for k, c in p.terms.items()})),
        (s * p, BiPoly({k: s * c for k, c in p.terms.items()})),
        (p + q, BiPoly({k: p.terms.get(k, 0) + q.terms.get(k, 0) for k in keys})),
        (p + s, BiPoly({**p.terms, (0, 0): p.terms.get((0, 0), 0) + s})),
        (p - q, BiPoly({k: p.terms.get(k, 0) - q.terms.get(k, 0) for k in keys})),
        (s - p, BiPoly({**{k: -c for k, c in p.terms.items()}, (0, 0): s - p.terms.get((0, 0), 0)})),
        (-p, BiPoly({k: -c for k, c in p.terms.items()})),
        (p**e, power),
    ]
    for got, want in cases:
        assert {k: (type(c), c) for k, c in got.terms.items()} == {k: (type(c), c) for k, c in want.terms.items()}
        assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())
        assert 0 not in got.terms.values()


@pytest.mark.parametrize("bad", ["2", 0.1, 1.0, Decimal(2), None, [1]])
def test_coefficients_and_number_operands_are_rational_numbers_only(bad):
    """A coefficient or a number operand that is no numbers.Rational is a TypeError: the constructor raises
    it and every operator returns NotImplemented, so no float or string is parsed into a Fraction."""
    with pytest.raises(TypeError):
        BiPoly({(0, 0): bad})
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__eq__"):
        assert getattr(X, op)(bad) is NotImplemented, op
    with pytest.raises(TypeError):
        X * bad
    assert X != bad and BiPoly.const(1) != 1.0


def test_rational_operands_scale_and_shift_the_terms(monkeypatch):
    """Ints, bools, numpy ints and Fractions are taken as they are, and go into no constant BiPoly."""
    monkeypatch.setattr(BiPoly, "const", None)
    p = X * Y - 2 * Y + 3
    for c, exact in ((2, 2), (True, 1), (np.int64(2), 2), (np.uint8(2), 2), (Fraction(2, 3), Fraction(2, 3))):
        assert (p * c).terms == (c * p).terms == {k: v * exact for k, v in p.terms.items()}
        assert (p + c).terms == (c + p).terms == {**p.terms, (0, 0): 3 + exact}
        assert (p - c).terms == {**p.terms, (0, 0): 3 - exact}
        assert (c - p).terms == {**(-p).terms, (0, 0): exact - 3}
        assert BiPoly({(1, 0): c}).terms == {(1, 0): exact} and p - p + c == c
        assert all(type(v) in (int, Fraction) for v in (p * c).terms.values())
