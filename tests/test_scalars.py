"""Scalar field: canonical forms, exact arithmetic, substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from denslift.errors import ZeroDenominatorError
from denslift.jets import DiffPolynomial, JetSymbol
from denslift.scalars import Scalar
from helpers import load_perfbench

l0 = Scalar.param("l0")
b = Scalar.param("b")
c = Scalar.param("c")


def test_rational_constants():
    assert Scalar.of(2) + Scalar.of(3) == Scalar.of(5)
    assert Scalar.of(Fraction(1, 2)) * 2 == Scalar.of(1)
    assert Scalar.of(0).is_zero()
    assert Scalar.of(7) / 7 == 1
    assert Scalar.of(Fraction(-3, 4)).as_fraction() == Fraction(-3, 4)
    with pytest.raises(ValueError, match="^scalar l0 is not a plain rational$"):
        Scalar.param("l0").as_fraction()


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
    assert s * s ** -1 == 1


def test_pow_squares_only_up_to_the_top_bit(monkeypatch):
    products = []
    mul = Scalar.__mul__

    def counting(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    p = (2 * l0 - 1) / (l0 + 3)
    # one product per set bit after the lowest, one square per bit below the top
    for n, count in ((0, 0), (1, 0), (2, 1), (5, 3), (8, 3)):
        products.clear()
        value = p ** n
        assert len(products) == count, n
        expected = Scalar.of(1)
        for _ in range(n):
            expected = mul(expected, p)   # the uncounted original
        assert value == expected


@pytest.mark.parametrize("other", ["1/2", 1.5, None, [1]])
def test_arithmetic_with_other_types_raises_both_ways(other):
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
               lambda x, y: x / y):
        with pytest.raises(TypeError):
            op(l0, other)
        with pytest.raises(TypeError):
            op(other, l0)


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


def test_bivariate_gcd_keeps_coefficients_small():
    # the remainder sequence of this sum's gcd once grew without bound
    k1 = Scalar.param("k1")
    x = (2 * k1 ** 2 * l0 - 3 * k1 ** 2 * l0 ** 2) / (3 + 3 * l0 ** 2 + k1 * l0 ** 2)
    y = (3 * k1 * l0 - 2 * k1 ** 2 * l0) / (4 + 2 * k1 ** 2 - 5 * k1 ** 2 * l0)
    total = x + y
    assert total - y == x
    assert total - x == y


def test_monomial_denominator_is_parenthesized():
    k1 = Scalar.param("k1")
    assert str(Scalar.of(1) / (k1 * l0)) == "1/(k1*l0)"
    assert str(b / l0 ** 2) == "b/l0^2"


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


F = Fraction
L_ = Scalar.param("_L")   # the formal weight proj_lift quantizes at; sorts before l0
k1 = Scalar.param("k1")
# (value, the same value by another route, num view, den view): num and den
# are dicts from monomial to Fraction, den monic in the lexicographic order
ROUTES = [
    ((l0 * l0 - F(1, 4)) / (l0 - F(1, 2)), l0 + F(1, 2),
     {(("l0", 1),): F(1), (): F(1, 2)}, {(): F(1)}),
    ((L_ - l0) * (L_ + l0 - 1) / (2 * l0 - 1),
     (L_ * L_ - L_) / (2 * l0 - 1) + (l0 - l0 * l0) * (l0 - 1) / ((2 * l0 - 1) * (l0 - 1)),
     {(("_L", 2),): F(1, 2), (("_L", 1),): F(-1, 2), (("l0", 2),): F(-1, 2),
      (("l0", 1),): F(1, 2)},
     {(("l0", 1),): F(1), (): F(-1, 2)}),
    ((3 * L_ * l0 + 2) / (6 * l0 * l0 - 3 * l0), (L_ + F(2, 3) / l0) / (2 * l0 - 1),
     {(("_L", 1), ("l0", 1)): F(1, 2), (): F(1, 3)},
     {(("l0", 2),): F(1), (("l0", 1),): F(-1, 2)}),
    (2 * k1 / (3 * k1 * k1 * l0), (Scalar.of(1) / (k1 * l0)) * F(2, 3),
     {(): F(2, 3)}, {(("k1", 1), ("l0", 1)): F(1)}),
    ((b - k1 * l0) / (k1 * l0), b / (k1 * l0) - 1,
     {(("b", 1),): F(1), (("k1", 1), ("l0", 1)): F(-1)}, {(("k1", 1), ("l0", 1)): F(1)}),
    (Scalar.of(0), l0 - l0, {}, {(): F(1)}),
    (Scalar.of(F(-3, 4)), (L_ * 3 - 3 * L_ - 3) / 4, {(): F(-3, 4)}, {(): F(1)}),
]


def test_num_and_den_views_are_the_canonical_dicts():
    for value, other, num, den in ROUTES:
        for s in (value, other):
            assert s.num == num and s.den == den, (s, s.num, s.den)
            assert all(type(c) is Fraction for c in list(s.num.values()) + list(s.den.values()))
        with pytest.raises(AttributeError):
            value.num = {}


def test_hash_agrees_with_equality_across_routes():
    for value, other, _, _ in ROUTES:
        assert value == other
        assert hash(value) == hash(other)
        assert len({value, other}) == 1
        assert value != other + 1


def test_tracer_classifies_denominators_through_the_den_view():
    is_const_den = load_perfbench("tracing")._is_const_den
    for value, other, _, den in ROUTES:
        assert is_const_den(value.den) == (den == {(): 1}), value
    for s in (Scalar.of(3), l0 * k1 * L_ + 1, (l0 * l0 - 1) / (l0 - 1)):
        assert is_const_den(s.den), s
    for s in (Scalar.of(1) / (2 * l0 - 1), 1 / (k1 * l0), L_ / (L_ + l0)):
        assert not is_const_den(s.den), s


def test_collect_products_accumulates_into_each_target():
    from denslift.scalars import collect_products

    x, x2 = (("x", 1),), (("x", 2),)
    left = {x: [(0, Scalar.of(2)), (1, l0)], (): [(1, Scalar.of(3))]}
    right = [((), Scalar.of(5)), (x, Scalar.of(7))]
    targets = [{}, {x: Scalar.of(1)}]
    assert collect_products(targets, left, right) is targets
    assert targets[0] == {x: Scalar.of(10), x2: Scalar.of(14)}
    # x is hit twice in target 1, as x * 1 and 1 * x, on top of its prior 1
    assert targets[1] == {x: 5 * l0 + 22, x2: 7 * l0, (): Scalar.of(15)}
    # a sum that cancels keeps its key with a zero value, as collect's do
    zero = collect_products([{}], {x: [(0, 7 * l0)], (): [(0, -5 * l0)]}, right)[0]
    assert zero == {x: Scalar.of(0), x2: 49 * l0, (): -25 * l0}
    assert x in zero and zero[x].is_zero()


# -- the multiply-add and mono_mul against the routes they replace ----------------


def fields(s: Scalar):
    return s._vars, s._p, s._q, s._n, s._d


@st.composite
def madd_operands(draw):
    """A rational; a polynomial in l0 or in k1; a rational function of l0 over
    a denominator like 2 l0 - 1; or a Scalar in both l0 and k1."""
    kind = draw(st.sampled_from(["rational", "l0", "k1", "ratfunc", "two"]))
    content = Scalar.of(draw(rationals))

    def poly(x):
        return sum((Scalar.of(draw(st.integers(-4, 4))) * x ** i
                    for i in range(draw(st.integers(1, 4)))), Scalar.of(0))

    if kind == "rational":
        return content
    if kind in ("l0", "k1"):
        return content * poly(l0 if kind == "l0" else k1)
    if kind == "ratfunc":
        return content * poly(l0) / draw(st.sampled_from([2 * l0 - 1, l0 + 1, l0 * l0 - 2, l0]))
    return content * (poly(l0) + poly(k1) * l0) / draw(st.sampled_from([1, 2 * l0 - 1, k1 + l0]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["empty", "zero", "cancel", "drawn"]),
       madd_operands(), madd_operands(), madd_operands())
def test_multiply_add_matches_the_scalar_route(slot, a, b, drawn):
    from denslift.scalars import _madd, collect_products

    s = {"empty": None, "zero": Scalar.of(0), "cancel": -(b * a), "drawn": drawn}[slot]
    want = a * b if s is None else s + a * b
    assert fields(_madd(s, a, b)) == fields(want)
    # through the kernel: a sum that cancels stays in the target as zero
    target = collect_products([{} if s is None else {(): s}], {(): [(0, a)]}, [((), b)])[0]
    assert list(target) == [()] and fields(target[()]) == fields(want)
    if slot == "cancel":
        assert target[()].is_zero()


# sorted, so a cut of the list splits it into two runs that concatenate
_FACTORS = sorted(JetSymbol(base, upper, lower) for base, upper, lower in [
    ("a", (), ()), ("a", (), (1,)), ("a", (), (1, 2)), ("b", (1,), ()), ("b", (2,), (1,)),
    ("f", (), ()), ("g", (), (2,)), ("w", (), ())])


def _mono(factors, draw):
    return tuple((f, draw(st.integers(1, 3))) for f in sorted(factors))


@st.composite
def monomial_pairs(draw):
    """Two sorted jet monomials of length 0..4: sharing factors, single
    factors (equal or not), or disjoint runs in either order."""
    shape = draw(st.sampled_from(["any", "single", "disjoint"]))
    if shape == "single":
        a, b = draw(st.sampled_from(_FACTORS)), draw(st.sampled_from(_FACTORS))
        return _mono([a], draw), _mono([b], draw)
    pool = list(_FACTORS)
    if shape == "disjoint":
        cut = draw(st.integers(0, len(pool)))
        pool, other = pool[:cut], pool[cut:]
    else:
        other = pool
    a = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True)) if pool else []
    b = draw(st.lists(st.sampled_from(other), max_size=4, unique=True)) if other else []
    pair = (_mono(a, draw), _mono(b, draw))
    return pair[::-1] if draw(st.booleans()) else pair


@settings(max_examples=300, deadline=None)
@given(monomial_pairs())
def test_mono_mul_matches_a_dict_and_sort_reference(pair):
    from denslift.scalars import mono_mul

    a, b = pair
    out = dict(a)
    for factor, exp in b:
        out[factor] = out.get(factor, 0) + exp
    assert mono_mul(a, b) == tuple(sorted(out.items()))
    assert mono_mul(b, a) == tuple(sorted(out.items()))


# -- the operand protocol and substitution against the routes they replace -------


@settings(max_examples=300, deadline=None)
@given(madd_operands(), madd_operands(), st.one_of(st.integers(-9, 9), rationals))
def test_operators_match_the_negate_and_inverse_route(a, b, n):
    from denslift.scalars import _inverse, _times

    s = Scalar.of(n)
    assert fields(a - b) == fields(a + (-b))
    assert fields(a - n) == fields(a + (-s))
    assert fields(n - a) == fields(s + (-a))
    assert fields(a * n) == fields(n * a) == fields(a * s)
    if n:
        assert fields(a / n) == fields(_times(a, _inverse(s)))
    if a.is_zero():
        with pytest.raises(ZeroDenominatorError):
            n / a
    else:
        assert fields(n / a) == fields(_times(s, _inverse(a)))
    assert (a == n) == (n == a) == (fields(a) == fields(s))
    if not a._vars and not b._vars:
        x, y = a.as_fraction(), b.as_fraction()
        assert a == x and x == a and (a == n) == (x == n)
        assert fields(a - b) == fields(Scalar.of(x - y))
        assert fields(n - a) == fields(Scalar.of(n - x))
        if x:
            assert fields(n / a) == fields(Scalar.of(Fraction(n) / x))
    for foreign in (None, "1", 1.5):
        for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
                   lambda u, v: u / v):
            with pytest.raises(TypeError):
                op(a, foreign)
            with pytest.raises(TypeError):
                op(foreign, a)
        assert (a == foreign) is False and a != foreign


def substitute_reference(s: Scalar, bindings):
    """s under ``bindings``, evaluated over the ``num`` and ``den`` views
    monomial by monomial; None when the denominator vanishes."""

    def value(p):
        total = Scalar.of(0)
        for m, c in p.items():
            term = Scalar.of(c)
            for name, exp in m:
                base = bindings.get(name)
                term = term * (Scalar.param(name) if base is None else base) ** exp
            total = total + term
        return total

    den = value(s.den)
    return None if den.is_zero() else value(s.num) / den


@st.composite
def substitutions(draw):
    """A Scalar in one to three parameters, some of whose denominators vanish
    at a drawn root, and bindings of a part of its names to Scalars, ints,
    Fractions, int 0, the zero Scalar or None."""
    names = draw(st.lists(st.sampled_from(["a1", "k1", "l0"]), min_size=1, max_size=3,
                          unique=True))
    xs = [Scalar.param(v) for v in names]

    def poly():
        total = Scalar.of(draw(rationals))
        for _ in range(draw(st.integers(1, 3))):
            term = Scalar.of(draw(st.integers(-4, 4)))
            for x in xs:
                term = term * x ** draw(st.integers(0, 2))
            total = total + term
        return total

    num, den = poly(), poly()
    root = draw(rationals)
    if draw(st.booleans()):
        den = den * (xs[0] - root)
    value = num / den if not den.is_zero() else num
    kinds = {"none": lambda: None, "scalar": lambda: Scalar.of(draw(rationals)),
             "int": lambda: draw(st.integers(-5, 5)), "fraction": lambda: draw(rationals),
             "zero": lambda: 0, "ZERO": lambda: Scalar.of(0), "root": lambda: root,
             "affine": lambda: (draw(rationals) * Scalar.param(draw(st.sampled_from(names)))
                                + draw(st.integers(-3, 3)))}
    bindings = {}
    for v in names:
        kind = draw(st.sampled_from(["free", *kinds]))
        if kind != "free":
            bindings[v] = kinds[kind]()
    return value, bindings


@settings(max_examples=200, deadline=None)
@given(substitutions())
def test_substitute_matches_a_monomial_reference(drawn):
    value, bindings = drawn
    want = substitute_reference(value, bindings)
    if want is None:
        with pytest.raises(ZeroDenominatorError, match="^substitution makes denominator .+ vanish$"):
            value.substitute(bindings)
    else:
        assert fields(value.substitute(bindings)) == fields(want)


def test_substitute_binding_words_and_types():
    s = (l0 + k1) / ((2 * l0 - 1) * k1 * 3)
    text = "^substitution makes denominator -1/2\\*k1 \\+ k1\\*l0 vanish$"
    for bindings in ({"l0": Fraction(1, 2)}, {"k1": 0, "l0": None}, {"k1": Scalar.of(0)}):
        with pytest.raises(ZeroDenominatorError, match=text):
            s.substitute(bindings)
    assert s.substitute({"k1": 2, "l0": None}) == (2 + l0) / (12 * l0 - 6)
    assert s.substitute({}) == s.substitute({"b": 1}) == s
    with pytest.raises(TypeError):
        s.substitute({"k1": 1.5})
