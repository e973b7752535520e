"""The jet ring against sympy, an oracle that shares no code with the engine.

Each jet symbol base[upper]_,lower is modelled as the sympy expression
Derivative(Function(base + upper)(x1, ..), *lower).  The coordinates x[i] are
the symbols x_i, and at dim 1 the symbols with a registered rule are the
functions the rules encode: w = 1/y_x, u = 1/(1 - x1) and q = 1 - x1.
Polynomials with coefficients in Q(l0) are drawn from a seeded generator as
plain data, then built twice, as engine objects and as sympy expressions;
products and total derivatives are compared.  Engine results are read back
through their ``.terms`` maps (and the ``num``/``den`` maps of their Scalar
coefficients) only.
"""

import random
from fractions import Fraction

import pytest

import denslift.projective  # noqa: F401  (registers the rules of w, u and q)
from denslift.jets import DiffPolynomial, JetSymbol
from denslift.scalars import Scalar
from test_operator_oracle import L0, X, random_l0_poly_data, sympy_scalar

sympy = pytest.importorskip("sympy")

# (base, upper, lower) of the symbols drawn at each dimension
SYMBOLS = {
    1: [("a", (), ()), ("a", (), (1,)), ("S", (1,), (1, 1)), ("y", (), (1,)),
        ("y", (), (1, 1)), ("x", (1,), ()), ("w", (), ()), ("u", (), ()), ("q", (), ())],
    2: [("a", (), ()), ("a", (), (2,)), ("b", (), (1, 2)), ("S", (1, 2), ()),
        ("S", (1, 1), (2,)), ("x", (1,), ()), ("x", (2,), ())],
}


def random_scalar_data(rng):
    """(l0 data, divide by l0 + 2?): a polynomial in l0, sometimes over l0 + 2."""
    return random_l0_poly_data(rng), rng.random() < 0.3


def random_jet_data(rng, dim):
    """{monomial: scalar data}, a monomial being sorted ((base, upper, lower),
    exponent) pairs.  Exponents reach 3, and a small symbol pool makes the
    same symbol occur in several monomials."""
    pool = SYMBOLS[dim]
    data = {}
    for _ in range(rng.randint(1, 4)):
        syms = rng.sample(pool, rng.randint(0, 3))
        mono = tuple(sorted((s, rng.choice([1, 1, 2, 3])) for s in syms))
        data[mono] = random_scalar_data(rng)
    return data


# -- the engine side: build from data ------------------------------------------

def engine_scalar(data):
    coeffs, over = data
    l0 = Scalar.param("l0")
    out = sum((c * l0 ** e for e, c in coeffs.items()), Scalar.of(0))
    return out / (l0 + 2) if over else out


def engine_jet(data):
    """Built from its terms map directly, without the ring operations under test."""
    return DiffPolynomial({tuple((JetSymbol(*s), e) for s, e in mono): engine_scalar(c)
                           for mono, c in data.items()})


# -- the sympy side: data and .terms in, expressions out -----------------------

def sympy_symbol(base, upper, lower, dim):
    xs = X[:dim]
    if base == "x":
        return X[upper[0] - 1]
    if base in ("w", "u", "q"):
        assert dim == 1
        return {"w": 1 / sympy.Derivative(sympy.Function("y")(*xs), xs[0]),
                "u": 1 / (1 - xs[0]), "q": 1 - xs[0]}[base]
    f = sympy.Function(base + "".join(map(str, upper)))(*xs)
    return sympy.Derivative(f, *(X[i - 1] for i in lower)) if lower else f


def sympy_scalar_data(data):
    coeffs, over = data
    value = sum(sympy.Rational(c.numerator, c.denominator) * L0 ** e for e, c in coeffs.items())
    return value / (L0 + 2) if over else value


def sympy_jet_data(data, dim):
    return sum((sympy_scalar_data(c) * sympy.Mul(*(sympy_symbol(*s, dim) ** e for s, e in mono))
                for mono, c in data.items()), sympy.Integer(0))


def sympy_jet(poly, dim):
    """An engine DiffPolynomial, read through .terms."""
    return sum((sympy_scalar(c) * sympy.Mul(*(sympy_symbol(sym.base, sym.upper, sym.lower, dim) ** e
                                              for sym, e in mono))
                for mono, c in poly.terms.items()), sympy.Integer(0))


def same(a, b):
    return sympy.cancel(sympy.expand(a - b)) == 0


def cases(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        dim = 1 + k % 2
        yield dim, random_jet_data(rng, dim), random_jet_data(rng, dim)


def test_the_generator_covers_powers_repeats_coordinates_and_rules():
    seen = {"power": 0, "repeat": 0, "x": 0, "rule": 0}
    for dim, p, q in cases("jet-ring", 16):
        for data in (p, q):
            syms = [s for mono in data for s, _ in mono]
            seen["power"] += any(e >= 2 for mono in data for _, e in mono)
            seen["repeat"] += len(syms) > len(set(syms))
            seen["x"] += any(s[0] == "x" for s in syms)
            seen["rule"] += any(s[0] in ("w", "u", "q") for s in syms)
    assert all(n >= 3 for n in seen.values()), seen


def test_products_match_sympy():
    for dim, p, q in cases("jet-ring", 16):
        out = engine_jet(p) * engine_jet(q)
        assert same(sympy_jet(out, dim), sympy_jet_data(p, dim) * sympy_jet_data(q, dim))


def test_total_derivatives_match_sympy():
    for dim, p, q in cases("jet-ring", 16):
        for data in (p, q):
            expr = sympy_jet_data(data, dim)
            for axis in range(1, dim + 1):
                out = engine_jet(data).derive(axis)
                assert same(sympy_jet(out, dim), sympy.diff(expr, X[axis - 1]))


def test_second_derivatives_of_rule_symbols_match_sympy():
    w, u, q = (DiffPolynomial.jet(base) for base in "wuq")
    y1 = DiffPolynomial.jet("y", (), (1,))
    for poly in (w ** 3 * y1 * Fraction(1, 2), u ** 2 * w + w * q ** 2):
        out = poly.derive(1).derive(1)
        expr = sympy_jet(poly, 1)
        assert same(sympy_jet(out, 1), sympy.diff(expr, X[0], 2))
