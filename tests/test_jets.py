"""Jet ring: total derivative, rules, substitution, ring axioms."""

import copy
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import denslift
from denslift.errors import DuplicateSymbolError, ZeroDenominatorError
from denslift.jets import MAX_INDEX, DiffPolynomial, JetSymbol, register_symbol
from denslift.scalars import Scalar

S11 = DiffPolynomial.jet("S", (1, 1))
T1 = DiffPolynomial.jet("T", (1,))
R = DiffPolynomial.jet("R")


def test_derive_prolongs_multi_index():
    assert S11.derive(1) == DiffPolynomial.jet("S", (1, 1), (1,))


def test_derive_constant_is_zero():
    assert DiffPolynomial.const(5).derive(2).is_zero()


def test_multi_index_order_independent():
    a = DiffPolynomial.jet("S", (1, 1)).derive(1).derive(2)
    b = DiffPolynomial.jet("S", (1, 1)).derive(2).derive(1)
    assert a == b


def test_upper_indices_sorted():
    assert JetSymbol("S", (2, 1)) == JetSymbol("S", (1, 2))


def test_registered_rule_expands_derivative():
    # dw = -w^2 * y_xx, the reciprocal-jet trick
    w = DiffPolynomial.jet("wtest")
    y2 = DiffPolynomial.jet("y", (), (1, 1))
    register_symbol("wtest", {1: -(w * w) * y2})
    assert w.derive(1) == -(w * w) * y2
    # Leibniz through the rule
    assert (w * w).derive(1) == -2 * (w * w * w) * y2


def test_rule_symbol_encodes_reciprocal():
    w = DiffPolynomial.jet("wtest")
    y1 = DiffPolynomial.jet("y", (), (1,))
    relation = w * y1 - 1
    # d(w*y1 - 1) lies in the ideal generated by the relation
    assert relation.derive(1).cancel_pairs([(JetSymbol("wtest"), JetSymbol("y", (), (1,)))]).is_zero()


def test_duplicate_registration_rejected():
    register_symbol("dup1")
    with pytest.raises(DuplicateSymbolError):
        register_symbol("dup1")


def test_coordinate_symbols():
    x1 = DiffPolynomial.jet("x", (1,))
    assert x1.derive(1) == DiffPolynomial.const(1)
    assert x1.derive(2).is_zero()


def test_substitute_params():
    l0 = Scalar.param("l0")
    p = DiffPolynomial.const(2 * l0 - 1)
    assert p.substitute_params({"l0": Scalar.of(1)}) == DiffPolynomial.const(1)
    q = DiffPolynomial.const(Scalar.of(1) / (2 * l0 - 1))
    with pytest.raises(ZeroDenominatorError):
        q.substitute_params({"l0": Scalar.of(Fraction(1, 2))})
    k1, k2 = Scalar.param("k1"), Scalar.param("k2")
    B, A1 = DiffPolynomial.jet("B"), DiffPolynomial.jet("A", (), (1,))
    expr = B * k1 + A1 * k2
    assert expr.substitute_params({"k1": Scalar.of(0), "k2": Scalar.of(1)}) == A1


def test_substitute_jets_rewrites_to_fixpoint():
    # eliminate X[2]_,2 in favor of -X[1]_,1 (the d=2 divergence constraint)
    def rule(sym):
        if sym.base == "X" and sym.upper == (2,) and 2 in sym.lower:
            rest = list(sym.lower)
            rest.remove(2)
            return -DiffPolynomial.jet("X", (1,), tuple(rest) + (1,))
        return None

    div = DiffPolynomial.jet("X", (1,), (1,)) + DiffPolynomial.jet("X", (2,), (2,))
    assert div.substitute_jets(rule).is_zero()
    # idempotent
    p = DiffPolynomial.jet("X", (2,), (1, 2, 2))
    once = p.substitute_jets(rule)
    assert once.substitute_jets(rule) == once


def test_substitute_jets_stops_on_a_cycle():
    a, b = DiffPolynomial.jet("a"), DiffPolynomial.jet("b")

    def swap(sym):
        return {"a": b, "b": a}.get(sym.base)

    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"rewriting [ab] still applies"):
        (a * a + b).substitute_jets(swap)
    assert time.perf_counter() - start < 1


_POOL = [
    DiffPolynomial.jet("a"),
    DiffPolynomial.jet("b", (), (1,)),
    DiffPolynomial.jet("S", (1, 2)),
    DiffPolynomial.jet("T", (2,), (1,)),
    DiffPolynomial.const(Fraction(3, 2)),
    DiffPolynomial.const(Scalar.param("l0")),
]


def random_poly(rng, size=3):
    out = DiffPolynomial.zero()
    for _ in range(rng.randint(1, size)):
        term = DiffPolynomial.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(_POOL)
        out = out + term
    return out


def test_ring_axioms_on_random_triples():
    rng = random.Random(7)
    for _ in range(100):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)


def test_derivatives_commute():
    rng = random.Random(11)
    for _ in range(40):
        p = random_poly(rng)
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            assert p.derive(i).derive(j) == p.derive(j).derive(i)


def test_derive_is_a_derivation():
    rng = random.Random(13)
    for _ in range(60):
        p, q = random_poly(rng), random_poly(rng)
        i = rng.randint(1, 3)
        assert ((p * q).derive(i) - p.derive(i) * q - p * q.derive(i)).is_zero()


@st.composite
def polys(draw):
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return random_poly(rng)


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_leibniz_property(p, q):
    assert (p * q).derive(1) == p.derive(1) * q + p * q.derive(1)


def test_pickle_and_deepcopy_round_trip():
    from denslift.lifting import VolumeForm, canonical_lift
    from denslift.operators import generic_second_order

    sym = JetSymbol("S", (2, 1), (1,))
    poly = DiffPolynomial.of_symbol(sym) * Scalar.param("l0") - DiffPolynomial.jet("T", (1,)) ** 2
    lift = canonical_lift(generic_second_order(2), Scalar.param("l0"), VolumeForm.generic())
    for value in (sym, poly, lift):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value
    assert hash(pickle.loads(pickle.dumps(poly))) == hash(copy.deepcopy(poly)) == hash(poly)
    assert pickle.loads(pickle.dumps(sym)).lower == (1,)


def test_symbols_sort_by_base_then_upper_then_lower():
    shuffled = [JetSymbol("S", (2,)), JetSymbol("T"), JetSymbol("S", (1, 2)),
                JetSymbol("S", (1,), (2,)), JetSymbol("R", (3,), (3,)),
                JetSymbol("S", (1, 1), (1,)), JetSymbol("S", (1,)), JetSymbol("S", (), (1, 1))]
    assert sorted(shuffled) == [
        JetSymbol("R", (3,), (3,)),
        JetSymbol("S", (), (1, 1)),
        JetSymbol("S", (1,)),
        JetSymbol("S", (1,), (2,)),
        JetSymbol("S", (1, 1), (1,)),
        JetSymbol("S", (1, 2)),
        JetSymbol("S", (2,)),
        JetSymbol("T"),
    ]
    # monomials render by degree, then factor by factor in that order
    poly = sum((DiffPolynomial.of_symbol(s) for s in shuffled), DiffPolynomial.zero())
    poly = poly + DiffPolynomial.jet("S", (1,)) ** 2 + DiffPolynomial.jet("S", (1,), (2,)) * T1
    assert str(poly) == ("S[1]^2 + S[1]_,2*T[1] + R[3]_,3 + S_,1_,1 + S[1] + S[1]_,2"
                         " + S[1,1]_,1 + S[1,2] + S[2] + T")
    assert repr(JetSymbol("S", (2, 1), (1,))) == "JetSymbol(base='S', upper=(1, 2), lower=(1,))"


def _fields(sym):
    return sym.base, sym.upper, sym.lower


_INDEX = st.sampled_from([*range(13), MAX_INDEX])
_INDICES = st.lists(_INDEX, max_size=3)
# bases that share prefixes, so the NUL after a base decides their order
_SYMBOLS = st.builds(JetSymbol, st.sampled_from(["S", "S1", "Sa", "a\x01", "a"]), _INDICES, _INDICES)


@settings(max_examples=300, deadline=None)
@given(_SYMBOLS, _SYMBOLS, _INDEX, st.integers(0, pickle.HIGHEST_PROTOCOL))
def test_symbol_order_equality_and_hash_are_those_of_its_fields(a, b, axis, protocol):
    assert (a < b) == (_fields(a) < _fields(b))
    assert (a == b) == (_fields(a) == _fields(b))
    same = JetSymbol(a.base, a.upper[::-1], a.lower[::-1])
    assert same == JetSymbol(*_fields(a)) == a and hash(same) == hash(a)
    assert pickle.loads(pickle.dumps(a, protocol)) == a
    derived = a.with_derivative(axis)
    assert type(derived) is JetSymbol
    assert derived == JetSymbol(a.base, a.upper, a.lower + (axis,))


@pytest.mark.parametrize("args, message", [
    (("S\0",), r"^jet symbol base 'S\\x00' contains NUL$"),
    (("a\0b", (1,)), "contains NUL"),
    (("S", (-1,)), r"^jet index -1 outside 0\.\.1114110$"),
    (("S", (1,), (MAX_INDEX + 1,)), r"^jet index 1114111 outside 0\.\.1114110$"),
    (("S", (1, 99999999999)), "jet index 99999999999 outside"),
])
def test_symbol_constructor_rejects_what_would_break_its_order(args, message):
    with pytest.raises(ValueError, match=message):
        JetSymbol(*args)


def test_with_derivative_rejects_an_axis_outside_the_index_range():
    for axis in (-1, MAX_INDEX + 1):
        with pytest.raises(ValueError, match=f"jet index {axis} outside"):
            JetSymbol("S").with_derivative(axis)


def test_pickles_built_in_another_process_load_equal():
    # the other process builds its symbols in another order, under its own hash seed
    from denslift.lifting import VolumeForm, canonical_lift
    from denslift.operators import generic_second_order

    package = Path(denslift.__file__).parent
    code = (f"import pickle, sys; sys.path.insert(0, {str(package.parent)!r})\n"
            "from denslift.jets import DiffPolynomial\n"
            "from denslift.lifting import VolumeForm, canonical_lift\n"
            "from denslift.operators import generic_second_order\n"
            "from denslift.scalars import Scalar\n"
            "poly = -DiffPolynomial.jet('T', (1,)) ** 2 + Scalar.param('l0') * DiffPolynomial.jet("
            "'S', (1, 2), (1,)) + DiffPolynomial.jet('a', (), (2, 2, 1))\n"
            "lift = canonical_lift(generic_second_order(2), Scalar.param('l0'), VolumeForm.generic())\n"
            "sys.stdout.buffer.write(pickle.dumps((poly, lift)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lift = canonical_lift(generic_second_order(2), Scalar.param("l0"), VolumeForm.generic())
    poly = (DiffPolynomial.jet("a", (), (1, 2, 2)) + DiffPolynomial.jet("S", (2, 1), (1,))
            * Scalar.param("l0") - T1 ** 2)
    loaded_poly, loaded_lift = pickle.loads(done.stdout)
    assert loaded_poly == poly and hash(loaded_poly) == hash(poly) and str(loaded_poly) == str(poly)
    # an operator is unhashable: hash its coefficients
    assert loaded_lift == lift and str(loaded_lift) == str(lift)
    assert hash(frozenset(loaded_lift.terms.items())) == hash(frozenset(lift.terms.items()))


def test_substitute_jets_is_additive_on_large_polynomials():
    # the divergence constraint on X at dim 3 (two passes for X[3]_,3_,3) and a
    # rule that turns a into a sum
    def rule(sym):
        if sym.base == "a":
            return DiffPolynomial.jet("b") + 2
        if sym.base != "X" or 3 not in sym.upper or 3 not in sym.lower:
            return None
        upper, lower = list(sym.upper), list(sym.lower)
        upper.remove(3)
        lower.remove(3)
        return -sum((DiffPolynomial.jet("X", upper + [j], lower + [j]) for j in (1, 2)),
                    DiffPolynomial.zero())

    rng = random.Random(5)
    pool = [DiffPolynomial.jet("a"), DiffPolynomial.jet("b", (), (1,))] + [
        DiffPolynomial.jet("X", (i,), lower) for i in (1, 2, 3)
        for lower in ((), (3,), (1, 3), (3, 3))]
    for _ in range(3):
        p = DiffPolynomial.zero()
        while len(p.terms) <= 100:
            term = DiffPolynomial.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3)):
                term = term * rng.choice(pool)
            p = p + term
        pieces = [DiffPolynomial({m: c}).substitute_jets(rule) for m, c in p.terms.items()]
        assert p.substitute_jets(rule) == sum(pieces, DiffPolynomial.zero())
    # kept and rewritten factors keep their exponents
    b1, x3 = DiffPolynomial.jet("b", (), (1,)), DiffPolynomial.jet("X", (3,), (3,))
    got = (b1 ** 2 * DiffPolynomial.jet("a") ** 2 * x3).substitute_jets(rule)
    x_div = DiffPolynomial.jet("X", (1,), (1,)) + DiffPolynomial.jet("X", (2,), (2,))
    assert got == -(b1 ** 2) * (DiffPolynomial.jet("b") + 2) ** 2 * x_div


def test_powers_take_one_product_fewer_than_the_exponent(monkeypatch):
    p = DiffPolynomial.jet("a") + DiffPolynomial.jet("b", (), (1,))
    products = []
    mul = DiffPolynomial.__mul__

    def counting(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(DiffPolynomial, "__mul__", counting)
    assert p ** 0 == 1 and not products
    assert p ** 1 == p and not products
    assert p ** 3 == mul(mul(p, p), p) and len(products) == 2
    with pytest.raises(ValueError, match="^negative powers of jet polynomials are not defined$"):
        p ** -1


# -- derive against a product-rule reference written here -------------------------

# a user symbol with a table rule: D1 = a_,2 x[1], D2 = -3/2, D3 = 0
_TABLE_BASE = "vtab"
_TABLE_RULE = {1: DiffPolynomial.jet("a", (), (2,)) * DiffPolynomial.jet("x", (1,)),
               2: DiffPolynomial.const(Fraction(-3, 2))}
register_symbol(_TABLE_BASE, _TABLE_RULE)

_UNRULED = [JetSymbol("a"), JetSymbol("a", (), (1,)), JetSymbol("b", (), (1, 2)),
            JetSymbol("S", (1, 2)), JetSymbol("S", (1, 1), (2,)), JetSymbol("T", (2,), (1, 1)),
            JetSymbol("y", (), (1,))]
_RULED = [JetSymbol("x", (1,)), JetSymbol("x", (2,)), JetSymbol("w"), JetSymbol(_TABLE_BASE)]


def _reference_dsymbol(sym, axis):
    """D(s) along an axis, from the rules as stated, not from the registry."""
    if sym.base == "x":
        return DiffPolynomial.const(1 if sym.upper == (axis,) else 0)
    if sym.base == "w":   # w = 1/y_x at dim 1: dw = -w^2 y_xx along any axis
        return -(DiffPolynomial.jet("w") ** 2) * DiffPolynomial.jet("y", (), (1, 1))
    if sym.base == _TABLE_BASE:
        return _TABLE_RULE.get(axis, DiffPolynomial.zero())
    return DiffPolynomial.jet(sym.base, sym.upper, sym.lower + (axis,))


def _reference_derive(p, axis):
    """The sum over occurrences of c * exp * (monomial with s lowered) * D(s)."""
    out = DiffPolynomial.zero()
    for m, c in p.terms.items():
        for sym, exp in m:
            lowered = DiffPolynomial.const(c * exp)
            for other, e in m:
                lowered = lowered * DiffPolynomial.of_symbol(other) ** (e - (other == sym))
            out = out + lowered * _reference_dsymbol(sym, axis)
    return out


def test_derive_matches_the_product_rule_on_mixed_symbols():
    import denslift.projective  # noqa: F401  (registers the rule of w)

    rng = random.Random(16)
    l0 = Scalar.param("l0")
    for _ in range(150):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            syms = rng.sample(_UNRULED, rng.randint(0, 3)) + rng.sample(_RULED, rng.randint(0, 2))
            mono = tuple(sorted((s, rng.choice([1, 1, 2, 3])) for s in syms))
            c = Scalar.of(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3)))
            terms[mono] = c * l0 if rng.random() < 0.3 else c
        p = DiffPolynomial(terms)
        for axis in (1, 2, 3):
            got = p.derive(axis)
            assert got == _reference_derive(p, axis), (str(p), axis)
            for m in got.terms:
                assert all(exp > 0 for _, exp in m), m
                assert [s for s, _ in m] == sorted({s for s, _ in m}), m
