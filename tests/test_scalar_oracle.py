"""Scalar arithmetic against sympy, an oracle that shares no code with the engine.

Random rational functions in a1, k1 and l0 with integer coefficients are
built twice, once with Scalar operations and once as sympy expressions.  a1
sorts before the other names, as proj_lift's formal weight _L does, so the
recursive variable order is exercised on both sides of l0.  Results are read
back through their rendered text and compared with sympy.cancel.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from denslift.errors import ZeroDenominatorError
from denslift.scalars import Scalar

sympy = pytest.importorskip("sympy")

L0, K1, A1 = sympy.symbols("l0 k1 a1")
NAMES = {"l0": L0, "k1": K1, "a1": A1}

# (coefficient, power of l0, power of k1, power of a1) tuples
monomials = st.tuples(st.integers(-5, 5), st.integers(0, 2), st.integers(0, 2),
                      st.integers(0, 1))


def build(terms):
    """The polynomial sum c l0^i k1^j a1^h, as a Scalar and as a sympy expression."""
    scalar, expr = Scalar.of(0), sympy.Integer(0)
    for c, i, j, h in terms:
        scalar = scalar + (c * Scalar.param("l0") ** i * Scalar.param("k1") ** j
                           * Scalar.param("a1") ** h)
        expr = expr + c * L0 ** i * K1 ** j * A1 ** h
    return scalar, expr


@st.composite
def rational_functions(draw, den_has_l0=True):
    num = build(draw(st.lists(monomials, max_size=3)))
    den_terms = draw(st.lists(monomials, min_size=1, max_size=3))
    if not den_has_l0:
        den_terms = [(c, 0, j, h) for c, _, j, h in den_terms]
    den = build(den_terms)
    if sympy.expand(den[1]) == 0:
        den = build([(1, 0, 0, 0)])
    return num[0] / den[0], num[1] / den[1]


# one-term monomials of degree <= 1, for bindings of the form affine / affine
linear = st.tuples(st.integers(-3, 3), st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0),
                                                        (0, 0, 1)]))


@st.composite
def affine_ratios(draw):
    """(affine)/(affine) in l0, k1 and a1.  A binding of higher degree can
    make the substituted function's gcds take minutes: one random pair of
    degree-2 functions took 6 s, and over two minutes with the older
    Fraction-dict Scalar."""
    num = build([(c, *e) for c, e in draw(st.lists(linear, max_size=3))])
    den = build([(c, *e) for c, e in draw(st.lists(linear, min_size=1, max_size=3))])
    if sympy.expand(den[1]) == 0:
        den = build([(1, 0, 0, 0)])
    return num[0] / den[0], num[1] / den[1]


def as_sympy(scalar: Scalar):
    return sympy.parse_expr(str(scalar).replace("^", "**"), local_dict=NAMES)


def same(scalar: Scalar, expr) -> bool:
    return sympy.cancel(as_sympy(scalar) - expr) == 0


@settings(max_examples=60, deadline=None)
@given(rational_functions(), rational_functions())
def test_field_operations_match_sympy(a, b):
    (sa, ea), (sb, eb) = a, b
    assert same(sa, ea) and same(sb, eb)
    assert same(sa + sb, ea + eb)
    assert same(sa - sb, ea - eb)
    assert same(sa * sb, ea * eb)
    if sympy.cancel(eb) != 0:
        assert same(sa / sb, ea / eb)
        assert (sa * sb) / sb == sa   # cancels the gcd of the two numerators
    else:
        assert sb.is_zero()


@settings(max_examples=40, deadline=None)
@given(rational_functions(), st.integers(-3, 3))
def test_powers_match_sympy(a, n):
    scalar, expr = a
    if n < 0 and sympy.cancel(expr) == 0:
        with pytest.raises(ZeroDenominatorError):
            scalar ** n
    else:
        assert same(scalar ** n, expr ** n)


@settings(max_examples=40, deadline=None)
@given(rational_functions(), st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 5)]),
    affine_ratios()))
def test_substitute_matches_sympy(a, value):
    """l0 bound to a rational or to another Scalar, which may involve l0 itself."""
    scalar, expr = a
    if isinstance(value, Fraction):
        binding, target = Scalar.of(value), sympy.Rational(value.numerator, value.denominator)
    else:
        binding, target = value
    num, den = sympy.fraction(sympy.cancel(expr))
    den_at = sympy.cancel(den.subs(L0, target))
    if den_at == 0:
        with pytest.raises(ZeroDenominatorError):
            scalar.substitute({"l0": binding})
        return
    got = scalar.substitute({"l0": binding})
    assert same(got, num.subs(L0, target) / den_at)


def test_substitute_hits_a_vanishing_denominator():
    l0, a1 = Scalar.param("l0"), Scalar.param("a1")
    scalar = a1 / (2 * l0 * l0 - l0 * a1)
    with pytest.raises(ZeroDenominatorError):
        scalar.substitute({"l0": Scalar.of(0)})
    with pytest.raises(ZeroDenominatorError):
        scalar.substitute({"l0": a1 / 2})
    assert same(scalar.substitute({"l0": a1}), 1 / A1)


@settings(max_examples=60, deadline=None)
@given(rational_functions(den_has_l0=False), st.booleans(), rational_functions())
def test_coefficients_in_match_sympy(poly, mixed, other):
    scalar, expr = poly
    if mixed:   # sometimes l0 survives in the reduced denominator
        scalar, expr = scalar * other[0], expr * other[1]
    num, den = sympy.fraction(sympy.cancel(expr))
    if den.has(L0):
        with pytest.raises(ValueError):
            scalar.coefficients_in("l0")
        return
    expected = {e: sympy.cancel(c / den)
                for (e,), c in sympy.Poly(num, L0).terms() if c != 0}
    got = scalar.coefficients_in("l0")
    assert sorted(got) == sorted(expected)
    for e, coeff in got.items():
        assert same(coeff, expected[e])
