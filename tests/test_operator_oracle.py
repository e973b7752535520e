"""The operator layer against sympy, an oracle that shares no code with the engine.

Operators with polynomial coefficients in the coordinates x1, x2 and
densities f(x) of rational weight are drawn from a seeded generator as plain
data, then built twice: as engine objects, and as sympy expressions on which
the defining formulas are evaluated with sympy.diff.  Engine results are read
back through their ``.terms`` maps (and the ``num``/``den`` maps of their
Scalar coefficients) only.
"""

import random
from fractions import Fraction

import pytest

from denslift.jets import DiffPolynomial
from denslift.operators import Density, DensityOperator, ad_vf
from denslift.scalars import Scalar

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x1 x2")


def random_rational(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def random_poly_data(rng, dim, max_degree):
    """{exponent tuple: Fraction} for a polynomial in x1..x_dim."""
    data = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, max_degree) for _ in range(dim))
        data[exps] = random_rational(rng)
    return data


def random_operator_data(rng, dim):
    """{(r, alpha): polynomial data}.  alpha is left unsorted, and some terms
    repeat with alpha reversed: the constructor must add such keys up."""
    data = {}
    for _ in range(rng.randint(1, 4)):
        r = rng.randint(0, 2)
        alpha = tuple(rng.randint(1, dim) for _ in range(rng.randint(0, 3)))
        data[(r, alpha)] = random_poly_data(rng, dim, 2)
        if rng.random() < 0.5:
            data[(r, alpha[::-1])] = random_poly_data(rng, dim, 2)
    return data


# -- the engine side: build from data ------------------------------------------

def engine_poly(data):
    out = DiffPolynomial.zero()
    for exps, c in data.items():
        term = DiffPolynomial.const(c)
        for i, e in enumerate(exps, start=1):
            term = term * DiffPolynomial.jet("x", (i,)) ** e
        out = out + term
    return out


def engine_operator(dim, data):
    return DensityOperator(dim, {key: engine_poly(p) for key, p in data.items()})


# -- the sympy side: data and .terms in, expressions out -----------------------

def sympy_poly(data):
    return sympy.expand(sum(sympy.Rational(c.numerator, c.denominator)
                            * sympy.Mul(*(x ** e for x, e in zip(X, exps)))
                            for exps, c in data.items()))


def sympy_scalar(scalar):
    def poly(p):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.Mul(*(sympy.Symbol(name) ** e for name, e in mono))
                   for mono, c in p.items())
    return poly(scalar.num) / poly(scalar.den)


def sympy_jet_poly(poly):
    """A DiffPolynomial in the coordinate jets x[i], read through .terms."""
    total = sympy.Integer(0)
    for mono, scalar in poly.terms.items():
        term = sympy_scalar(scalar)
        for sym, e in mono:
            assert sym.base == "x" and not sym.lower
            term *= X[sym.upper[0] - 1] ** e
        total += term
    return sympy.expand(total)


def sympy_terms(op):
    """{(r, alpha): expression} of an engine operator, read through .terms."""
    return {key: sympy_jet_poly(c) for key, c in op.terms.items()}


def partial(expr, alpha):
    return sympy.diff(expr, *(X[a - 1] for a in alpha)) if alpha else expr


def act(terms, f, w):
    """sum c w^r d^alpha f: the action on a density f of weight w."""
    return sympy.expand(sum((c * w ** r * partial(f, alpha) for (r, alpha), c in terms.items()),
                            sympy.Integer(0)))


def adjoint_act(terms, g, mu):
    """sum (-1)^|alpha| (1 - mu)^r d^alpha (c g): integration by parts."""
    return sympy.expand(sum(((-1) ** len(alpha) * (1 - mu) ** r * partial(c * g, alpha)
                             for (r, alpha), c in terms.items()), sympy.Integer(0)))


def cases(seed, count=12):
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 2)
        a_data, b_data = random_operator_data(rng, dim), random_operator_data(rng, dim)
        f_data, g_data = random_poly_data(rng, dim, 4), random_poly_data(rng, dim, 4)
        w, mu = random_rational(rng), random_rational(rng)
        yield dim, a_data, b_data, f_data, g_data, w, mu


def rational(w):
    return sympy.Rational(w.numerator, w.denominator)


def test_apply_matches_sympy():
    for dim, a_data, _, f_data, _, w, _ in cases("apply"):
        out = engine_operator(dim, a_data).apply(Density(engine_poly(f_data), w))
        a_sym = {key: sympy_poly(p) for key, p in a_data.items()}
        assert out.weight == w
        assert sympy_jet_poly(out.coeff) == act(a_sym, sympy_poly(f_data), rational(w))


def test_compose_matches_sympy():
    for dim, a_data, b_data, f_data, _, w, _ in cases("compose"):
        A, B = engine_operator(dim, a_data), engine_operator(dim, b_data)
        out = (A @ B).apply(Density(engine_poly(f_data), w))
        a_sym = {key: sympy_poly(p) for key, p in a_data.items()}
        b_sym = {key: sympy_poly(p) for key, p in b_data.items()}
        f = sympy_poly(f_data)
        assert sympy_jet_poly(out.coeff) == act(a_sym, act(b_sym, f, rational(w)), rational(w))


def test_adjoint_matches_sympy():
    for dim, a_data, _, _, g_data, _, mu in cases("adjoint"):
        adj = engine_operator(dim, a_data).adjoint()
        a_sym = {key: sympy_poly(p) for key, p in a_data.items()}
        g = sympy_poly(g_data)
        assert act(sympy_terms(adj), g, rational(mu)) == adjoint_act(a_sym, g, rational(mu))


def test_restrict_matches_sympy():
    for dim, a_data, _, f_data, _, w, mu in cases("restrict"):
        restricted = engine_operator(dim, a_data).restrict(w)
        assert all(r == 0 for r, _ in restricted.terms)
        a_sym = {key: sympy_poly(p) for key, p in a_data.items()}
        f = sympy_poly(f_data)
        # weight-free now: the density's own weight mu no longer enters
        assert act(sympy_terms(restricted), f, rational(mu)) == act(a_sym, f, rational(w))


# -- coefficients polynomial in l0 -------------------------------------------------
# compose merges the left factor's terms that share a multi-index by jet
# monomial, and its Scalar products and sums then run over polynomials in l0.
# These operators put every L power 0..2 on one multi-index, over a few shared
# x-monomials, with coefficients polynomial in l0; the action is compared at a
# symbolic weight w, so every L power is checked on its own.

L0, W = sympy.symbols("l0 w")


def random_l0_poly_data(rng):
    """{power of l0: nonzero Fraction}."""
    return {rng.randint(0, 2): Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
            for _ in range(rng.randint(1, 3))}


def random_weighted_operator_data(rng, dim, coeff=random_l0_poly_data):
    """{(r, alpha): {x exponents: coeff(rng)}} with L^0, L^1 and L^2 on one
    alpha over shared x-monomials, plus one term on another alpha."""
    alpha = tuple(rng.randint(1, dim) for _ in range(rng.randint(0, 2)))
    monos = [tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(3)]
    data = {(r, alpha): {exps: coeff(rng)
                         for exps in rng.sample(monos, rng.randint(2, 3))} for r in range(3)}
    other = tuple(rng.randint(1, dim) for _ in range(rng.randint(0, 3)))
    data.setdefault((rng.randint(0, 1), other), {monos[0]: coeff(rng)})
    return data


def engine_l0_poly(data):
    l0 = Scalar.param("l0")
    out = DiffPolynomial.zero()
    for exps, coeffs in data.items():
        scalar = sum((c * l0 ** e for e, c in coeffs.items()), Scalar.of(0))
        out = out + engine_poly({exps: Fraction(1)}) * scalar
    return out


def sympy_l0_poly(data):
    return sympy.expand(sum(
        sympy.Rational(c.numerator, c.denominator) * L0 ** e
        * sympy.Mul(*(x ** k for x, k in zip(X, exps)))
        for exps, coeffs in data.items() for e, c in coeffs.items()))


def test_compose_with_l0_coefficients_matches_sympy():
    rng = random.Random("compose-l0")
    for _ in range(10):
        dim = rng.randint(1, 2)
        a_data, b_data = (random_weighted_operator_data(rng, dim),
                          random_weighted_operator_data(rng, dim))
        A = DensityOperator(dim, {key: engine_l0_poly(p) for key, p in a_data.items()})
        B = DensityOperator(dim, {key: engine_l0_poly(p) for key, p in b_data.items()})
        f_data = random_poly_data(rng, dim, 4)
        out = (A @ B).apply(Density(engine_poly(f_data), Scalar.param("w")))
        a_sym = {key: sympy_l0_poly(p) for key, p in a_data.items()}
        b_sym = {key: sympy_l0_poly(p) for key, p in b_data.items()}
        expected = act(a_sym, act(b_sym, sympy_poly(f_data), W), W)
        assert sympy.expand(sympy_jet_poly(out.coeff) - expected) == 0


# -- coefficients in l0 or k1, or over 2 l0 - 1 ------------------------------------
# The kernel sums products of polynomials in one parameter as integers.  A
# factor 1/(2 l0 - 1) takes a product to the open sum's Scalar rest, and a
# slot that began in l0 may meet k1, which goes there too.

K1 = sympy.Symbol("k1")


def random_mixed_poly_data(rng):
    """(l0 data, shape): the data as a polynomial in l0, the same in k1, or in
    l0 over 2 l0 - 1."""
    return random_l0_poly_data(rng), rng.choice(["l0", "k1", "over"])


def engine_mixed_poly(data):
    l0, k1 = Scalar.param("l0"), Scalar.param("k1")
    out = DiffPolynomial.zero()
    for exps, (coeffs, shape) in data.items():
        x = k1 if shape == "k1" else l0
        scalar = sum((c * x ** e for e, c in coeffs.items()), Scalar.of(0))
        out = out + engine_poly({exps: Fraction(1)}) * (
            scalar / (2 * l0 - 1) if shape == "over" else scalar)
    return out


def sympy_mixed_poly(data):
    total = sympy.Integer(0)
    for exps, (coeffs, shape) in data.items():
        poly = sympy_l0_poly({exps: coeffs})
        total += (poly.subs(L0, K1) if shape == "k1" else
                  poly / (2 * L0 - 1) if shape == "over" else poly)
    return total


def over_one_denominator(expr):
    """The expanded numerator of expr brought over one denominator: 0 exactly
    when the rational function expr is 0."""
    return sympy.expand(sympy.numer(sympy.together(expr)))


def mixed_case(seed):
    """Two operators with mixed coefficients, as engine objects and as sympy
    terms, and a test density f over x."""
    rng = random.Random(seed)
    dim = rng.randint(1, 2)
    a_data, b_data = (random_weighted_operator_data(rng, dim, random_mixed_poly_data)
                      for _ in range(2))
    ops = [DensityOperator(dim, {key: engine_mixed_poly(p) for key, p in data.items()})
           for data in (a_data, b_data)]
    syms = [{key: sympy_mixed_poly(p) for key, p in data.items()} for data in (a_data, b_data)]
    return ops, syms, random_poly_data(rng, dim, 4)


def test_compose_with_mixed_coefficients_matches_sympy():
    (A, B), (a_sym, b_sym), f_data = mixed_case("compose-mixed")
    out = (A @ B).apply(Density(engine_poly(f_data), Scalar.param("w")))
    expected = act(a_sym, act(b_sym, sympy_poly(f_data), W), W)
    assert over_one_denominator(sympy_jet_poly(out.coeff) - expected) == 0


def test_commutator_with_mixed_coefficients_matches_sympy():
    (A, B), (a_sym, b_sym), f_data = mixed_case("commutator-mixed")
    out = A.commutator(B).apply(Density(engine_poly(f_data), Scalar.param("w")))
    f = sympy_poly(f_data)
    expected = act(a_sym, act(b_sym, f, W), W) - act(b_sym, act(a_sym, f, W), W)
    assert over_one_denominator(sympy_jet_poly(out.coeff) - expected) == 0


# -- commutators and the Lie action ---------------------------------------------
# [A, B] acts as A(B f) - B(A f).  Each pair of operators is drawn so that one
# shape is certain: both carry L powers, they share multi-indices, the
# multi-indices mix axes, or one side is a pure function.

def commutator_pair_data(rng, dim, shape):
    """Two operators' data of the given shape, over x-polynomials."""
    a_data = random_operator_data(rng, dim)
    if shape == "function":
        return {(0, ()): random_poly_data(rng, dim, 2)}, a_data
    b_data = random_operator_data(rng, dim)
    if shape == "weights":
        for data in (a_data, b_data):
            alpha = tuple(rng.randint(1, dim) for _ in range(rng.randint(0, 2)))
            data[(rng.randint(1, 2), alpha)] = random_poly_data(rng, dim, 2)
    elif shape == "shared":
        for key in list(a_data)[:2]:
            b_data[(rng.randint(0, 2), key[1])] = random_poly_data(rng, dim, 2)
    elif shape == "mixed":
        mixed = (1, 2, 2) if dim == 2 else (1, 1)
        a_data[(rng.randint(0, 1), mixed)] = random_poly_data(rng, dim, 2)
        b_data[(rng.randint(0, 1), mixed[:2])] = random_poly_data(rng, dim, 2)
    return a_data, b_data


def test_commutator_matches_sympy():
    rng = random.Random("commutator")
    for shape in ("weights", "shared", "mixed", "function") * 3:
        dim = 2 if shape == "mixed" else rng.randint(1, 2)
        a_data, b_data = commutator_pair_data(rng, dim, shape)
        if rng.random() < 0.5:
            a_data, b_data = b_data, a_data
        A, B = engine_operator(dim, a_data), engine_operator(dim, b_data)
        f_data, w = random_poly_data(rng, dim, 4), rational(random_rational(rng))
        a_sym = {key: sympy_poly(p) for key, p in a_data.items()}
        b_sym = {key: sympy_poly(p) for key, p in b_data.items()}
        f = sympy_poly(f_data)
        expected = sympy.expand(act(a_sym, act(b_sym, f, w), w) - act(b_sym, act(a_sym, f, w), w))
        assert act(sympy_terms(A.commutator(B)), f, w) == expected


def test_commutator_with_l0_coefficients_matches_sympy():
    rng = random.Random("commutator-l0")
    for _ in range(4):
        dim = rng.randint(1, 2)
        a_data, b_data = (random_weighted_operator_data(rng, dim),
                          random_weighted_operator_data(rng, dim))
        A = DensityOperator(dim, {key: engine_l0_poly(p) for key, p in a_data.items()})
        B = DensityOperator(dim, {key: engine_l0_poly(p) for key, p in b_data.items()})
        f_data = random_poly_data(rng, dim, 4)
        out = A.commutator(B).apply(Density(engine_poly(f_data), Scalar.param("w")))
        a_sym = {key: sympy_l0_poly(p) for key, p in a_data.items()}
        b_sym = {key: sympy_l0_poly(p) for key, p in b_data.items()}
        f = sympy_poly(f_data)
        expected = act(a_sym, act(b_sym, f, W), W) - act(b_sym, act(a_sym, f, W), W)
        assert sympy.expand(sympy_jet_poly(out.coeff) - expected) == 0


def lie_act(field, f, w):
    """X^i d_i f + w (d_i X^i) f: the Lie derivative of a density of weight w."""
    return sympy.expand(sum((x * sympy.diff(f, X[i]) + w * sympy.diff(x, X[i]) * f
                             for i, x in enumerate(field)), sympy.Integer(0)))


def test_ad_vf_matches_sympy():
    rng = random.Random("ad_vf")
    for _ in range(8):
        dim = rng.randint(1, 2)
        a_data, f_data = random_operator_data(rng, dim), random_poly_data(rng, dim, 4)
        field_data = [random_poly_data(rng, dim, 2) for _ in range(dim)]
        w = rational(random_rational(rng))
        out = ad_vf([engine_poly(p) for p in field_data], engine_operator(dim, a_data))
        field = [sympy_poly(p) for p in field_data]
        a_sym = {key: sympy_poly(p) for key, p in a_data.items()}
        f = sympy_poly(f_data)
        expected = sympy.expand(lie_act(field, act(a_sym, f, w), w) - act(a_sym, lie_act(field, f, w), w))
        assert act(sympy_terms(out), f, w) == expected
