"""Exact two-variable polynomials over the rationals.

Small and purpose-built: sparse dict of (x-power, y-power) -> int or Fraction,
immutable, with exact evaluation and Lagrange interpolation helpers.  Both work
in unbounded ints and form one Fraction per result, not one per term: evaluation
at x = p/q, y = r/s divides the sum of c p^i q^(dx-i) r^j s^(dy-j) by q^dx s^dy,
and interpolation sums integer Lagrange numerators over one common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from numbers import Rational
from operator import index

from .errors import InterpolationDegeneracy


def _rational(c):
    """c as an int when integral, else as a Fraction; None unless c is a rational number."""
    if type(c) is int:
        return c
    if not isinstance(c, Rational):
        return None
    return int(c) if c.denominator == 1 else Fraction(c)


class BiPoly:
    """Polynomial in x and y whose coefficients and number operands are ``numbers.Rational`` (int, bool,
    numpy ints, Fraction): any other is a TypeError in the constructor and NotImplemented in an operator."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (i, j), c in (terms or {}).items():
            if not all(hasattr(type(e), "__index__") and index(e) >= 0 for e in (i, j)):
                raise ValueError(f"exponents must be non-negative integers, got {(i, j)!r}")
            if (r := _rational(c)) is None:
                raise TypeError(f"coefficients must be rational numbers, got {c!r}")
            if r != 0:
                clean[(index(i), index(j))] = r
        self.terms = clean

    @classmethod
    def _of(cls, terms):
        """The BiPoly of int and Fraction terms on sums of valid keys: zeros dropped, non-ints normalized."""
        out = cls.__new__(cls)
        out.terms = {k: c if type(c) is int else _rational(c) for k, c in terms.items() if c}
        return out

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def x(cls):
        return cls({(1, 0): 1})

    @classmethod
    def y(cls):
        return cls({(0, 1): 1})

    def _shift(self, other, sign):
        """self + sign * other for a number other, which moves the constant term alone."""
        c = _rational(other)
        return NotImplemented if c is None else BiPoly._of({**self.terms, (0, 0): self.terms.get((0, 0), 0) + sign * c})

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            return self._shift(other, 1)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BiPoly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other if isinstance(other, BiPoly) else self._shift(other, -1)

    def __rsub__(self, other):
        return (-self)._shift(other, 1)

    def __mul__(self, other):
        if not isinstance(other, BiPoly):  # a number scales every term
            c = _rational(other)
            return NotImplemented if c is None else BiPoly._of({k: v * c for k, v in self.terms.items()})
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return BiPoly._of(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a non-negative int, got {e!r}")
        out, base = None, self  # the product starts from the lowest set bit's power, not from 1 times it
        while e:
            if e & 1:
                out = base if out is None else out * base
            if e := e >> 1:  # square only while bits remain: bit_length + popcount - 2 products in all
                base = base * base
        return BiPoly.const(1) if out is None else out

    def __eq__(self, other):
        diff = self.__sub__(other)  # no terms exactly when equal, to a BiPoly or a number; NotImplemented for others
        return diff if diff is NotImplemented else not diff

    def __hash__(self):
        """A constant hashes like the number it equals."""
        if self.terms.keys() <= {(0, 0)}:
            return hash(self.terms.get((0, 0), 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def eval_at(self, x, y):
        """With x = p/q and y = r/s: one sum of c p^i q^(dx-i) r^j s^(dy-j), divided once."""
        x, y = Fraction(x), Fraction(y)
        dx, dy = self.deg_x(), self.deg_y()
        xs = [x.numerator**i * x.denominator ** (dx - i) for i in range(dx + 1)]
        ys = [y.numerator**j * y.denominator ** (dy - j) for j in range(dy + 1)]
        num = sum(c * xs[i] * ys[j] for (i, j), c in self.terms.items())
        return _rational(Fraction(num, x.denominator**dx * y.denominator**dy))

    def deg_x(self):
        return max((i for i, _ in self.terms), default=0)

    def deg_y(self):
        return max((j for _, j in self.terms), default=0)

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0]))

    def to_str(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in self._sorted_terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip("xy", (i, j))
                if e > 0
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])

    def to_json(self):
        return {
            "terms": [
                {"x": i, "y": j, "c": str(c)} for (i, j), c in self._sorted_terms()
            ]
        }

    def __repr__(self):
        return f"BiPoly({self.to_str()})"


def interpolate_univariate(points):
    """Coefficients (ascending degree) of the polynomial through the points: the Lagrange bases in
    t = D x (D the nodes' common denominator) are integral, summed over the lcm of their denominators."""
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    if not xs:
        raise InterpolationDegeneracy("no interpolation nodes")
    if len(set(xs)) != len(xs):
        raise InterpolationDegeneracy("repeated interpolation node")
    scale = lcm(*(x.denominator for x in xs))
    ts = [int(x * scale) for x in xs]
    full = [1]  # prod over all nodes of (t - t_o), ascending
    for to in ts:
        full = [a - to * b for a, b in zip([0] + full, full + [0])]
    denoms = [prod(tk - to for to in ts if to != tk) * yk.denominator for tk, yk in zip(ts, ys)]
    common = abs(lcm(*denoms))
    num = [0] * len(ts)
    for tk, yk, denom in zip(ts, ys, denoms):
        basis = [0] * (len(ts) - 1) + [1]  # full / (t - tk), by synthetic division
        for i in range(len(ts) - 1, 0, -1):
            basis[i - 1] = full[i] + tk * basis[i]
        weight = yk.numerator * (common // denom)
        for i, b in enumerate(basis):
            num[i] += weight * b
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return [_rational(Fraction(c * scale**i, common)) for i, c in enumerate(num)]


def interpolate_from_grid(xs, ys, value):
    """BiPoly through value(x, y) sampled on the grid xs × ys, exactly.

    ``value`` must return exact numbers (int or Fraction).  Degenerate node
    sets raise InterpolationDegeneracy.
    """
    if len(xs) == 0 or len(ys) == 0:
        raise InterpolationDegeneracy("no interpolation nodes")
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise InterpolationDegeneracy("repeated interpolation node")
    rows = []
    for x0 in xs:
        pts = [(y0, value(x0, y0)) for y0 in ys]
        rows.append(interpolate_univariate(pts))
    depth = max(len(r) for r in rows)
    out = {}
    for j in range(depth):
        col = [(x0, row[j] if j < len(row) else 0) for x0, row in zip(xs, rows)]
        for i, c in enumerate(interpolate_univariate(col)):
            if c != 0:
                out[(i, j)] = c
    return BiPoly(out)
