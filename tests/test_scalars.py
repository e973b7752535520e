"""Scalar field: canonical forms, exact arithmetic, substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from denslift.errors import ZeroDenominatorError
from denslift.jets import DiffPolynomial
from denslift.scalars import Scalar

l0 = Scalar.param("l0")
b = Scalar.param("b")
c = Scalar.param("c")


def test_rational_constants():
    assert Scalar.of(2) + Scalar.of(3) == Scalar.of(5)
    assert Scalar.of(Fraction(1, 2)) * 2 == Scalar.of(1)
    assert Scalar.of(0).is_zero()
    assert (Scalar.of(7) / 7).is_one()


def test_gcd_cancellation_is_structural():
    # (l0^2 - l0) / (l0 - 1) reduces to l0
    expr = (l0 * l0 - l0) / (l0 - 1)
    assert expr == l0
    # and cancellation happens across products built in different orders
    lhs = (2 * l0 - 1) * b / (2 * l0 - 1)
    assert lhs == b


def test_denominator_monic_normalization():
    s = Scalar.of(1) / (2 * l0 - 1)
    t = Scalar.of(Fraction(1, 2)) / (l0 - Fraction(1, 2))
    assert s == t


def test_substitute_plain():
    expr = 2 * l0 - 1
    assert expr.substitute({"l0": Scalar.of(1)}) == Scalar.of(1)


def test_substitute_exceptional_weight_raises():
    expr = Scalar.of(1) / (2 * l0 - 1)
    with pytest.raises(ZeroDenominatorError):
        expr.substitute({"l0": Scalar.of(Fraction(1, 2))})


def test_substitute_partial_keeps_other_params():
    k1, k2 = Scalar.param("k1"), Scalar.param("k2")
    expr = k1 * b + k2 * c
    got = expr.substitute({"k1": Scalar.of(0), "k2": Scalar.of(1)})
    assert got == c


def test_pow_and_inverse():
    s = (l0 - 1) / (2 * l0 - 1)
    assert s ** 2 == s * s
    assert s ** -1 == (2 * l0 - 1) / (l0 - 1)
    assert (s * s ** -1).is_one()


def test_str_roundtrips_are_stable():
    s = (2 * l0 - 1) / (l0 * (l0 - 1))
    assert str(s) == str((2 * l0 - 1) / (l0 * (l0 - 1)))


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def scalars(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return Scalar.of(draw(rationals))
    x = Scalar.param(draw(st.sampled_from(["l0", "b", "c"])))
    y = Scalar.param(draw(st.sampled_from(["l0", "b", "c"])))
    q = draw(rationals)
    if kind == 1:
        return x * q + y
    if kind == 2:
        return (x + q) * (y - 1)
    num = x * x - y * q
    return num / (x + 2) if q != -2 else num


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + Scalar.of(0) == x
    assert x * Scalar.of(1) == x


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_division_inverts_multiplication(x, y):
    if y.is_zero():
        with pytest.raises(ZeroDenominatorError):
            x / y
    else:
        assert (x / y) * y == x


def test_gcd_cancellation_stress():
    # products built in different orders reduce to identical canonical forms
    rng_pool = [l0, b, c, l0 + 1, 2 * l0 - 1, b * c - 1, l0 * l0 - b]
    import random as _random

    rng = _random.Random(31415)
    for _ in range(80):
        p = rng_pool[rng.randrange(len(rng_pool))]
        q = rng_pool[rng.randrange(len(rng_pool))]
        g = rng_pool[rng.randrange(len(rng_pool))]
        if q.is_zero() or g.is_zero():
            continue
        lhs = (p * g) / (q * g)
        rhs = p / q
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)


@settings(max_examples=100, deadline=None)
@given(st.fractions(max_denominator=60))
def test_hash_agrees_with_equality_on_rationals(q):
    # a rational Scalar and a constant DiffPolynomial equal their Fraction, so
    # they must hash like it and collapse with it in sets and dict keys
    for value in (Scalar.of(q), DiffPolynomial.const(q), DiffPolynomial.const(Scalar.of(q))):
        assert value == q
        assert hash(value) == hash(q)
        assert len({value, q}) == 1
    if q.denominator == 1:
        assert len({Scalar.of(q), int(q), DiffPolynomial.const(int(q))}) == 1
