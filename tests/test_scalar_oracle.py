"""Scalar arithmetic against sympy, an oracle that shares no code with the engine.

Random rational functions in l0 and k1 with integer coefficients are built
twice, once with Scalar operations and once as sympy expressions.  Results
are read back through their rendered text and compared with sympy.cancel.
"""

import pytest
from hypothesis import given, settings, strategies as st

from denslift.scalars import Scalar

sympy = pytest.importorskip("sympy")

L0, K1 = sympy.symbols("l0 k1")
NAMES = {"l0": L0, "k1": K1}

# (coefficient, power of l0, power of k1) triples
monomials = st.tuples(st.integers(-5, 5), st.integers(0, 2), st.integers(0, 2))


def build(terms):
    """The polynomial sum c l0^i k1^j, as a Scalar and as a sympy expression."""
    scalar, expr = Scalar.of(0), sympy.Integer(0)
    for c, i, j in terms:
        scalar = scalar + c * Scalar.param("l0") ** i * Scalar.param("k1") ** j
        expr = expr + c * L0 ** i * K1 ** j
    return scalar, expr


@st.composite
def rational_functions(draw, den_has_l0=True):
    num = build(draw(st.lists(monomials, max_size=3)))
    den_terms = draw(st.lists(monomials, min_size=1, max_size=3))
    if not den_has_l0:
        den_terms = [(c, 0, j) for c, _, j in den_terms]
    den = build(den_terms)
    if sympy.expand(den[1]) == 0:
        den = build([(1, 0, 0)])
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
    else:
        assert sb.is_zero()


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
