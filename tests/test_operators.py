"""Density operators: normal ordering, adjoint, restriction, Lie action."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from denslift.equivariance import DivFreeTensor
from denslift.errors import DimensionMismatchError, ZeroOperatorError
from denslift.jets import DiffPolynomial
from denslift.operators import (
    Density,
    DensityOperator,
    ad_vf,
    generic_second_order,
    lie_operator,
)
from denslift.scalars import Scalar

from helpers import generic_density, random_field, random_operator, random_poly

f = DiffPolynomial.jet("f")
g = DiffPolynomial.jet("g")


def D(dim, axis):
    return DensityOperator.partial(dim, axis)


def L(dim):
    return DensityOperator.weight(dim)


def test_compose_leibniz_first_order():
    lhs = D(1, 1) @ DensityOperator.function(1, f)
    rhs = DensityOperator(1, {(0, (1,)): f, (0, ()): f.derive(1)})
    assert lhs == rhs


def test_weight_generator_is_central():
    assert L(1) @ D(1, 1) == D(1, 1) @ L(1)
    assert L(2) @ DensityOperator.function(2, f) == DensityOperator.function(2, f) @ L(2)


def test_compose_second_order_against_apply_oracle():
    # expand D1 D1 o g by comparing actions on a generic density
    lhs = (D(1, 1) @ D(1, 1)) @ DensityOperator.function(1, g)
    rhs = DensityOperator(1, {
        (0, (1, 1)): g,
        (0, (1,)): 2 * g.derive(1),
        (0, ()): g.derive(1).derive(1),
    })
    assert lhs == rhs
    s = generic_density(1)
    assert lhs.apply(s) == rhs.apply(s)


def test_adjoint_of_weight_generator():
    assert L(1).adjoint() == DensityOperator.identity(1) - L(1)


def test_lie_derivative_is_anti_self_adjoint():
    rng = random.Random(3)
    for dim in (1, 2, 3):
        X = random_field(rng, dim)
        lie = lie_operator(dim, X)
        assert lie.adjoint() == -lie


def test_adjoint_second_order_closed_form():
    S, T, R = (DiffPolynomial.jet(b) for b in ("S", "T", "R"))
    op = DensityOperator(1, {(0, (1, 1)): S, (0, (1,)): T, (0, ()): R})
    expected = DensityOperator(1, {
        (0, (1, 1)): S,
        (0, (1,)): 2 * S.derive(1) - T,
        (0, ()): R - T.derive(1) + S.derive(1).derive(1),
    })
    assert op.adjoint() == expected


def fd(*lower):
    return DiffPolynomial.jet("f", (), lower)


def test_compose_third_power_closed_form():
    d1_cubed = DensityOperator(1, {(0, (1, 1, 1)): DiffPolynomial.const(1)})
    assert d1_cubed @ DensityOperator.function(1, f) == DensityOperator(1, {
        (0, (1, 1, 1)): f, (0, (1, 1)): 3 * fd(1), (0, (1,)): 3 * fd(1, 1), (0, ()): fd(1, 1, 1)})


def test_compose_mixed_multi_index_binomial_weights():
    # D1^2 D2 o f: beta runs over the six sub-multi-indices of (1, 1, 2)
    op = DensityOperator(2, {(0, (1, 1, 2)): DiffPolynomial.const(1)})
    assert op @ DensityOperator.function(2, f) == DensityOperator(2, {
        (0, (1, 1, 2)): f, (0, (1, 2)): 2 * fd(1), (0, (2,)): fd(1, 1),
        (0, (1, 1)): fd(2), (0, (1,)): 2 * fd(1, 2), (0, ()): fd(1, 1, 2)})


def test_adjoint_mixed_multi_index_by_hand():
    # (f D1^2 D2)* = -D1^2 D2 o f
    op = DensityOperator(2, {(0, (1, 1, 2)): f})
    assert op.adjoint() == DensityOperator(2, {
        (0, (1, 1, 2)): -f, (0, (1, 2)): -2 * fd(1), (0, (2,)): -fd(1, 1),
        (0, (1, 1)): -fd(2), (0, (1,)): -2 * fd(1, 2), (0, ()): -fd(1, 1, 2)})
    # (f L D1)* = -(1 - L)(D1 o f)
    assert DensityOperator(2, {(1, (1,)): f}).adjoint() == DensityOperator(2, {
        (0, (1,)): -f, (0, ()): -fd(1), (1, (1,)): f, (1, ()): fd(1)})


def test_compose_through_ruled_symbols_matches_sequential_apply():
    # E = exp(x1 x2): a rule on two axes, next to the coordinate rule of x[i]
    from denslift.jets import REGISTRY

    E = DiffPolynomial.jet("Eexp")
    x1, x2 = DiffPolynomial.jet("x", (1,)), DiffPolynomial.jet("x", (2,))
    REGISTRY.ensure("Eexp", {1: x2 * E, 2: x1 * E})
    rng = random.Random(19)
    s = generic_density(2)
    right = DensityOperator(2, {(0, (2,)): x1 * E + g, (1, ()): x2 * x2 * E * E,
                                (0, (1, 1)): x1 * x2})
    for _ in range(6):
        left = random_operator(rng, 2, max_total=3)
        assert (left @ right).apply(s) == left.apply(right.apply(s))


def test_restrict_replaces_weight_powers():
    op = DensityOperator(1, {(2, (1,)): DiffPolynomial.const(1), (1, ()): DiffPolynomial.const(1)})
    got = op.restrict(2)
    assert got == DensityOperator(1, {(0, (1,)): DiffPolynomial.const(4),
                                      (0, ()): DiffPolynomial.const(2)})
    fn = DensityOperator.function(1, f)
    assert fn.restrict(Scalar.param("lam")) == fn


def test_lam_poly_expands_around_its_center():
    dim = 2
    coeffs = [Scalar.param("k1"), DiffPolynomial.jet("f", (), (1,)),
              D(dim, 1) @ DensityOperator.function(dim, g), Scalar.of(Fraction(-2, 3))]
    for center in (Scalar.of(0), Scalar.param("l0"), Scalar.of(Fraction(1, 2))):
        shift = L(dim) - DensityOperator.identity(dim) * center
        expected = DensityOperator.zero(dim)
        power = DensityOperator.identity(dim)
        for c in coeffs:
            term = c if isinstance(c, DensityOperator) else DensityOperator.function(dim, c)
            expected = expected + power @ term
            power = power @ shift
        assert DensityOperator.lam_poly(dim, coeffs, center) == expected
    assert DensityOperator.lam_poly(dim, coeffs) == DensityOperator.lam_poly(dim, coeffs, 0)
    assert DensityOperator.lam_poly(dim, []).is_zero()


def test_apply_weight_and_partial():
    s = generic_density(1)
    got = L(1).apply(s)
    assert got.weight == s.weight and got.coeff == s.coeff * Scalar.param("mu")
    got = D(1, 1).apply(s)
    assert got.coeff == s.coeff.derive(1) and got.weight == s.weight


def test_orders():
    op = L(1) @ D(1, 1) @ D(1, 1)
    assert op.total_order() == 3
    assert op.x_order() == 2
    assert DensityOperator.function(1, f).total_order() == 0
    with pytest.raises(ZeroOperatorError):
        DensityOperator.zero(1).total_order()


def test_is_vertical():
    c = DiffPolynomial.jet("c")
    assert DensityOperator(1, {(2, ()): c}).is_vertical()
    assert not D(1, 1).is_vertical()
    assert DensityOperator.zero(1).is_vertical()


def test_lie_operator_examples():
    # constant field: no divergence term
    const_field = [DiffPolynomial.const(1), DiffPolynomial.zero()]
    assert lie_operator(2, const_field) == D(2, 1)
    # x d/dx picks up the weight term
    x = DiffPolynomial.jet("x", (1,))
    assert lie_operator(1, [x]) == DensityOperator(1, {(0, (1,)): x}) + L(1)


def test_ad_vf_examples():
    X = [DiffPolynomial.const(1)]
    A = DensityOperator(1, {(0, (1,)): f})
    assert ad_vf(X, A) == DensityOperator(1, {(0, (1,)): f.derive(1)})
    rng = random.Random(5)
    Y = random_field(rng, 2)
    assert ad_vf(Y, DensityOperator.identity(2)).is_zero()
    assert ad_vf(Y, L(2)).is_zero()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        D(1, 1) @ D(2, 1)


def test_adjoint_involution_and_antihomomorphism():
    rng = random.Random(11)
    for _ in range(30):
        dim = rng.randint(1, 3)
        A = random_operator(rng, dim, max_total=4)
        B = random_operator(rng, dim, max_total=3)
        assert A.adjoint().adjoint() == A
        assert (A @ B).adjoint() == B.adjoint() @ A.adjoint()


def test_compose_associative():
    rng = random.Random(13)
    for _ in range(15):
        dim = rng.randint(1, 2)
        A, B, C = (random_operator(rng, dim, max_total=2, max_terms=2) for _ in range(3))
        assert (A @ B) @ C == A @ (B @ C)


def test_apply_respects_composition():
    rng = random.Random(17)
    for _ in range(15):
        dim = rng.randint(1, 2)
        A = random_operator(rng, dim, max_total=3)
        B = random_operator(rng, dim, max_total=2)
        s = generic_density(dim)
        assert (A @ B).apply(s) == A.apply(B.apply(s))


def test_parity_defect_drops_order():
    rng = random.Random(19)
    for _ in range(30):
        dim = rng.randint(1, 3)
        A = random_operator(rng, dim, max_total=4)
        n = A.total_order()
        defect = A - (Fraction(-1) ** n) * A.adjoint()
        assert defect.is_zero() or defect.total_order() <= n - 1


def test_ad_vf_is_a_derivation_of_compose():
    rng = random.Random(23)
    for _ in range(10):
        dim = rng.randint(1, 2)
        X = random_field(rng, dim)
        A = random_operator(rng, dim, max_total=2, max_terms=2)
        B = random_operator(rng, dim, max_total=2, max_terms=2)
        assert ad_vf(X, A @ B) == ad_vf(X, A) @ B + A @ ad_vf(X, B)


def commutator_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 2)
        yield rng, dim, random_operator(rng, dim, max_total=3), random_operator(rng, dim, max_total=3)


def test_commutator_is_antisymmetric_and_kills_the_centre():
    for rng, dim, A, B in commutator_cases(29, 20):
        assert A.commutator(B) == -B.commutator(A)
        assert A.commutator(A).terms == {}
        assert L(dim).commutator(A).is_zero() and A.commutator(L(dim)).is_zero()
        f1, f2 = (DensityOperator.function(dim, random_poly(rng, dim)) for _ in range(2))
        assert f1.commutator(f2).is_zero()


def test_commutator_satisfies_jacobi():
    rng = random.Random(31)
    for _ in range(15):
        dim = rng.randint(1, 2)
        A, B, C = (random_operator(rng, dim, max_total=3, max_terms=2) for _ in range(3))
        total = (A.commutator(B.commutator(C)) + B.commutator(C.commutator(A))
                 + C.commutator(A.commutator(B)))
        assert total.terms == {}


def test_commutator_with_a_function_lowers_the_x_order():
    for rng, dim, _, P in commutator_cases(37, 20):
        f1 = DensityOperator.function(dim, random_poly(rng, dim))
        out = f1.commutator(P)
        assert out.is_zero() or out.x_order() < P.x_order()


def test_commutator_keeps_no_cancelled_term():
    # halves that cancel whole keys, or everything, leave no empty coefficient
    a = DiffPolynomial.jet("a")
    for rng, dim, A, B in commutator_cases(41, 20):
        for out in (A.commutator(B), A.commutator(A * 2 + L(dim)), (A + B).commutator(A)):
            assert all(c.terms and not any(s.is_zero() for s in c.terms.values())
                       for c in out.terms.values())
    fD = DensityOperator(1, {(0, (1,)): f})
    assert (fD + DensityOperator.function(1, a)).commutator(fD) == \
        DensityOperator.function(1, -f * a.derive(1))


def test_commutator_checks_dimensions_before_any_product(monkeypatch):
    def no_product(*args, **kwargs):
        raise AssertionError("a product was formed")

    monkeypatch.setattr("denslift.operators._leibniz", no_product)
    with pytest.raises(DimensionMismatchError, match=r"^dim 1 vs 2$"):
        D(1, 1).commutator(D(2, 1))


def test_leibniz_without_top_yields_each_lower_beta_once():
    from denslift.operators import _leibniz

    c = DiffPolynomial.jet("c")
    for alpha in ((), (1,), (1, 1), (1, 2), (1, 1, 2), (1, 2, 2, 2)):
        full = [beta for beta, _ in _leibniz(alpha, {(): c})]
        lower = [beta for beta, _ in _leibniz(alpha, {(): c}, top=False)]
        assert full[-1] == alpha and len(set(full)) == len(full)
        assert sorted(lower) == sorted(full[:-1]) and alpha not in lower
    lower = [beta for beta, _ in _leibniz((1, 1, 2), {(): c}, top=False)]
    assert sorted(lower) == [(), (1,), (1, 1), (1, 2), (2,)]
    assert list(_leibniz((), {(): c}, top=False)) == []


def test_render_and_sorting():
    S = DiffPolynomial.jet("S", (1, 1))
    op = DensityOperator(1, {(0, (1, 1)): S, (1, ()): f, (0, ()): g})
    text = op.render()
    assert text.startswith("S[1,1]*D1*D1")
    assert "L" in text
    assert DensityOperator.zero(1).render() == "0"


def test_constructor_rejects_keys_outside_the_operator_space():
    # negative weight powers and axes outside 1..dim break the normal form
    for key in ((-1, ()), (0, (3,)), (0, (0, 1)), (1, (1, 2))):
        with pytest.raises(ValueError):
            DensityOperator(1, {key: f})
    with pytest.raises(ValueError):
        DensityOperator(1, {(0, (3,)): f, (-1, ()): DiffPolynomial.const(1)})
    # keys equal up to the order of alpha name one term: their coefficients add
    g = DiffPolynomial.jet("g")
    assert DensityOperator(2, {(2, (2, 1)): f, (2, (1, 2)): g}).terms == {(2, (1, 2)): f + g}
    assert DensityOperator(2, {(0, (1, 2)): f, (0, (2, 1)): g}).render() == "(f + g)*D1*D2"


def test_json_shape():
    import json

    op = L(1) @ D(1, 1)
    data = json.loads(op.to_json())
    assert data["schema"] == "denslift/1"
    assert data["order"] == 2
    assert data["terms"][0] == {"lpow": 1, "dmulti": [1], "coeff": "1"}


def test_density_product_adds_weights():
    from denslift.scalars import Scalar

    s1 = Density(DiffPolynomial.jet("s"), Scalar.param("mu"))
    s2 = Density(DiffPolynomial.jet("t"), Scalar.of(2))
    prod = s1 * s2
    assert prod.weight == Scalar.param("mu") + 2
    assert prod.coeff == DiffPolynomial.jet("s") * DiffPolynomial.jet("t")


@st.composite
def operators(draw):
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    dim = draw(st.integers(1, 2))
    return random_operator(rng, dim, max_total=3, max_terms=2)


@settings(max_examples=30, deadline=None)
@given(operators(), operators())
def test_adjoint_antihomomorphism_property(A, B):
    assert A.adjoint().adjoint() == A
    if A.dim == B.dim:
        assert (A @ B).adjoint() == B.adjoint() @ A.adjoint()


def test_concurrent_use_of_shared_values():
    # values are immutable and the registry is append-only: hammering the
    # same operators from several threads must agree with sequential results
    from concurrent.futures import ThreadPoolExecutor

    from denslift.lifting import VolumeForm, canonical_lift
    from denslift.scalars import Scalar

    rng = random.Random(77)
    ops = [random_operator(rng, 2, max_total=3) for _ in range(12)]
    l0 = Scalar.param("l0")
    rho = VolumeForm.generic()

    def work(op):
        lifted = canonical_lift(op.restrict(0), l0, rho)
        return lifted.adjoint() @ lifted

    sequential = [work(op) for op in ops]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(work, ops * 2))
    assert parallel == sequential * 2


def test_generic_second_order_and_tensor_written_out():
    def jet(base, *idx):
        return DiffPolynomial.jet(base, idx)

    R = jet("R")
    s3 = {(0, (1, 1)): jet("S", 1, 1), (0, (1, 2)): 2 * jet("S", 1, 2),
          (0, (1, 3)): 2 * jet("S", 1, 3), (0, (2, 2)): jet("S", 2, 2),
          (0, (2, 3)): 2 * jet("S", 2, 3), (0, (3, 3)): jet("S", 3, 3)}
    assert DivFreeTensor(3, 2).operator() == DensityOperator(3, s3)
    assert generic_second_order(1) == DensityOperator(1, {
        (0, (1, 1)): jet("S", 1, 1), (0, (1,)): jet("T", 1), (0, ()): R})
    assert generic_second_order(2) == DensityOperator(2, {
        (0, (1, 1)): jet("S", 1, 1), (0, (1, 2)): 2 * jet("S", 1, 2),
        (0, (2, 2)): jet("S", 2, 2), (0, (1,)): jet("T", 1), (0, (2,)): jet("T", 2),
        (0, ()): R})
    assert generic_second_order(3) == DensityOperator(3, {
        **s3, (0, (1,)): jet("T", 1), (0, (2,)): jet("T", 2), (0, (3,)): jet("T", 3),
        (0, ()): R})


def test_constructor_and_order_guards():
    with pytest.raises(ValueError, match="^dimension must be at least 1$"):
        DensityOperator(0)
    with pytest.raises(ValueError, match=r"^axis 3 outside 1\.\.2$"):
        DensityOperator.partial(2, 3)
    zero = DensityOperator.zero(2)
    for order in (zero.x_order, zero.lam_degree):
        with pytest.raises(ZeroOperatorError, match="^zero operator has no order$"):
            order()
    with pytest.raises(DimensionMismatchError,
                       match="^vector field has 1 components in dimension 2$"):
        lie_operator(2, [f])
