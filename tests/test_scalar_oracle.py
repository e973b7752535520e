"""Scalar arithmetic against sympy, an oracle that shares no code with the engine.

Random rational functions in a1, k1 and l0 with integer coefficients are
built twice, once with Scalar operations and once as sympy expressions.  a1
sorts before the other names, as proj_lift's formal weight _L does, so the
recursive variable order is exercised on both sides of l0.  Results are read
back through their rendered text and compared with sympy.cancel.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from denslift import cli
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
def rational_functions(draw):
    num = build(draw(st.lists(monomials, max_size=3)))
    den = build(draw(st.lists(monomials, min_size=1, max_size=3)))
    if sympy.expand(den[1]) == 0:
        den = build([(1, 0, 0, 0)])
    return num[0] / den[0], num[1] / den[1]


# one-term monomials of degree <= 1, for bindings of the form affine / affine
linear = st.tuples(st.integers(-3, 3), st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0),
                                                        (0, 0, 1)]))


@st.composite
def affine_ratios(draw):
    """(affine)/(affine) in l0, k1 and a1.  Bindings of degree 2 are the
    cases of test_substitution_with_a_degree_two_binding_is_fast."""
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


# -- one parameter over a constant denominator ---------------------------------
# Most coefficients inside compose are polynomials in l0 alone; their sums and
# products take a path of their own, checked here against sympy and against
# the same values reached through a second parameter k1, which goes the
# general way and is dropped again at the end.

K = Scalar.param("k1")


@st.composite
def polynomials_in_l0(draw):
    """c * (sum of c_i l0^i) with a rational content c, as a Scalar and in sympy."""
    scalar, expr = build([(c, i, 0, 0) for c, i in draw(
        st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 3)), max_size=4))])
    content = Fraction(draw(st.sampled_from([1, -1, 2, -3, 5])), draw(st.integers(1, 6)))
    return scalar * content, expr * sympy.Rational(content.numerator, content.denominator)


def fields(s: Scalar):
    return s._vars, s._p, s._q, s._n, s._d


def check_both_routes(got, expr, other_route):
    assert same(got, expr)
    assert fields(got) == fields(other_route)
    assert hash(got) == hash(other_route)


def check_sum_and_product(a, b):
    (sa, ea), (sb, eb) = a, b
    check_both_routes(sa + sb, ea + eb, (sa + K) + (sb - K))
    check_both_routes(sa - sb, ea - eb, (sa + K) - (sb + K))
    check_both_routes(sa * sb, ea * eb, (sa * K) * (sb / K))


@settings(max_examples=80, deadline=None)
@given(polynomials_in_l0(), polynomials_in_l0())
def test_polynomials_in_one_parameter_match_sympy_and_the_bivariate_route(a, b):
    check_sum_and_product(a, b)


def l0_poly(*coeffs):
    """sum coeffs[i] l0^i, as a Scalar and in sympy."""
    return build([(c, i, 0, 0) for i, c in enumerate(coeffs)])


def test_one_parameter_sums_that_drop_or_vanish():
    # the l0 terms cancel: the sum is the constant -1/2, with no parameter left
    a, b = l0_poly(1, 3), l0_poly(-2, -3)
    a, b = (a[0] / 2, a[1] / 2), (b[0] / 2, b[1] / 2)
    total = a[0] + b[0]
    assert total == Fraction(-1, 2) and fields(total) == fields(Scalar.of(Fraction(-1, 2)))
    assert hash(total) == hash(Fraction(-1, 2))
    check_sum_and_product(a, b)
    # a sum to zero, and negative leading coefficients on both sides
    p = l0_poly(0, -1, 2, -4)
    assert fields(p[0] - p[0]) == fields(Scalar.of(0))
    check_sum_and_product(p, (-p[0], -p[1]))
    check_sum_and_product(p, l0_poly(3, 0, -5))
    check_sum_and_product(l0_poly(0, 0, -7), l0_poly(0, 4, 7))


def test_rationals_plus_one_parameter_polynomials():
    p = l0_poly(-2, 0, 3)
    for other in ((Scalar.of(Fraction(-1, 3)), sympy.Rational(-1, 3)),
                  (1 / p[0], 1 / p[1]), (l0_poly(1, 1)[0] / l0_poly(0, 1, -2)[0],
                                         (1 + L0) / (L0 - 2 * L0 ** 2))):
        check_sum_and_product(p, other)
        check_sum_and_product(other, p)


# -- the multivariate gcd ------------------------------------------------------
# Two- and three-parameter gcds run the subresultant PRS.  With the primitive
# PRS, which takes the content of every remainder, this substitution took
# 6-7 s, and one of 300 seeded random degree-2 substitutions 35 s.

SLOW_BINDING = "(-a1 - 5 k1^2 l0)/(a1 k1^2 + a1 l0^2 + 3 k1 l0^2)"
SLOW_RESULT = (
    "(-5/2*a1^3 - 25*a1^2*k1^2*l0 - 125/2*a1*k1^4*l0^2)/(-1/2*a1^2 - 5*a1*k1^2*l0"
    " + 15*a1*k1*l0^4 + 15*a1*k1^3*l0^2 + 5*a1^2*k1^2*l0^2 + 5/2*a1^2*k1^4"
    " + 5/2*a1^2*l0^4 + 45/2*k1^2*l0^4 - 25/2*k1^4*l0^2 + 9*a1*k1^4*l0^4"
    " + 6*a1^2*k1^3*l0^4 + 6*a1^2*k1^5*l0^2 + a1^3*k1^2*l0^4 + 2*a1^3*k1^4*l0^2"
    " + a1^3*k1^6)")


def test_substitution_with_a_degree_two_binding_is_fast():
    l0, k1, a1 = (Scalar.param(n) for n in ("l0", "k1", "a1"))
    scalar = -Fraction(5, 2) * a1 * l0 ** 2 / (Fraction(5, 2) - l0 ** 2 / 2 + a1 * k1 ** 2)
    binding = (-a1 - 5 * k1 ** 2 * l0) / (a1 * k1 ** 2 + a1 * l0 ** 2 + 3 * k1 * l0 ** 2)
    start = time.perf_counter()
    got = scalar.substitute({"l0": binding})
    assert time.perf_counter() - start < 0.5
    assert str(got) == SLOW_RESULT
    target = (-A1 - 5 * K1 ** 2 * L0) / (A1 * K1 ** 2 + A1 * L0 ** 2 + 3 * K1 * L0 ** 2)
    assert same(got, -sympy.Rational(5, 2) * A1 * target ** 2
                / (sympy.Rational(5, 2) - target ** 2 / 2 + A1 * K1 ** 2))


def test_cli_input_with_a_degree_two_binding_is_fast(capsys):
    expr = f"(-5/2 a1 ({SLOW_BINDING})^2) / (5/2 - 1/2 ({SLOW_BINDING})^2 + a1 k1^2)"
    start = time.perf_counter()
    assert cli.main(["--params", "a1", "adjoint", expr]) == 0
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out == f"(({SLOW_RESULT}))\n"


@pytest.mark.parametrize("p, q", [
    # a1 is the first variable: the remainder degrees run 7, 5, 3, 1, a gap
    # of 2 at every step, so h = g^2 / h is not 1 after the first
    ("a1^6 + k1 a1^2 + l0", "a1^4 + k1 - 2 l0"),
    # equal degrees at the first step
    ("a1^2 + k1 a1 - 3 l0", "2 a1^2 + a1 + k1^2"),
], ids=["gap-2", "gap-0"])
def test_common_factor_cancels_through_degree_gaps(p, q):
    cfg = cli.SessionConfig(params={"a1": Scalar.param("a1")})
    p, q, g = (cli.parse_operator(src, cfg).app1().const_value()
               for src in (p, q, "a1 k1 + l0 + 1"))
    got = (p * g) / (q * g)
    assert got == p / q
    assert same(got, as_sympy(p) / as_sympy(q))
