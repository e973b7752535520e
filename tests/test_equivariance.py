"""Equivariance defects, volume variations, and the sdiff classification."""

import random
from fractions import Fraction

import pytest

from denslift.equivariance import (
    DivFreeTensor,
    LiftingHandle,
    ad_on_lifting,
    check_adX_variation_identity,
    classify_sdiff_map,
    divergence,
    divfree_tensor_lift_check,
    generic_divfree_field,
    sdiff_basis_map,
    volume_variation,
)
from denslift.errors import (
    DimensionTooSmallError,
    ExceptionalWeightError,
    HasWeightOperatorError,
)
from denslift.jets import DiffPolynomial
from denslift.lifting import VolLiftParams, VolumeForm, canonical_lift
from denslift.linalg import nullspace, operator_coordinates, rank
from denslift.operators import DensityOperator, generic_second_order
from denslift.scalars import Scalar

from helpers import random_field, random_operator

l0 = Scalar.param("l0")
COORD = VolumeForm.coordinate()
GEN = VolumeForm.generic()


def test_divergence_examples():
    x1 = DiffPolynomial.jet("x", (1,))
    assert divergence([x1], COORD) == DiffPolynomial.const(1)
    x2 = DiffPolynomial.jet("x", (2,))
    rotation = [x2, -x1]
    assert divergence(rotation, COORD).is_zero()
    X = DiffPolynomial.jet("X", (1,))
    ell1 = DiffPolynomial.jet("ell", (), (1,))
    assert divergence([X], GEN) == X.derive(1) + X * ell1


def test_ad_on_canonical_lifting_closed_form():
    # defect of the canonical lift: (L - l0) [div X, P(D)]
    rng = random.Random(5)
    for dim in (1, 2):
        delta = random_operator(rng, dim, max_total=2).restrict(0)
        if delta.is_zero():
            continue
        X = random_field(rng, dim)
        handle = LiftingHandle.canonical(l0, GEN)
        got = ad_on_lifting(handle, delta, X)
        div = divergence(X, GEN)
        lifted = canonical_lift(delta, l0, GEN)
        u = DensityOperator.lam_poly(dim, [-l0, Scalar.of(1)])
        expected = u @ DensityOperator.function(dim, div).commutator(lifted)
        assert got == expected


def test_second_order_canonical_lift_is_diff_equivariant():
    for dim in (1, 2):
        delta = generic_second_order(dim)
        X = [DiffPolynomial.jet("X", (i,)) for i in range(1, dim + 1)]
        handle = LiftingHandle.second_order_canonical(l0)
        assert ad_on_lifting(handle, delta, X).is_zero()


def test_first_order_lift_is_diff_equivariant():
    c = Scalar.param("c")
    A, B = DiffPolynomial.jet("A", (1,)), DiffPolynomial.jet("B")
    delta = DensityOperator(2, {(0, (1,)): A,
                                (0, (2,)): DiffPolynomial.jet("A", (2,)),
                                (0, ()): B})
    X = [DiffPolynomial.jet("X", (i,)) for i in (1, 2)]
    handle = LiftingHandle.first_order(l0, c)
    assert ad_on_lifting(handle, delta, X).is_zero()


def test_volume_variation_canonical_first_order():
    h = DiffPolynomial.jet("h")
    got = volume_variation("canonical", DensityOperator.partial(1, 1), l0, COORD, h)
    expected = DensityOperator.lam_poly(1, [-l0, Scalar.of(1)]) * (-h.derive(1))
    assert got == expected


def test_volume_variation_distinguished_matches_closed_form():
    rng = random.Random(9)
    for dim, order in ((1, 2), (2, 2), (2, 3)):
        delta = random_operator(rng, dim, max_total=order).restrict(0)
        if delta.is_zero():
            continue
        n = delta.total_order()
        h = DiffPolynomial.jet("h")
        got = volume_variation("distinguished", delta, l0, GEN, h)
        lifted = canonical_lift(delta, l0, GEN)
        sign = Fraction((-1) ** n)
        defect = lifted - sign * lifted.adjoint()
        comm = DensityOperator.function(dim, h).commutator(defect)
        den = 2 * l0 - 1
        # (L - l0)(L + l0 - 1)/(2 l0 - 1) = (L^2 - L - l0(l0-1))/(2 l0 - 1)
        factor = DensityOperator.lam_poly(dim, [
            -l0 * (l0 - 1) / den, Scalar.of(-1) / den, Scalar.of(1) / den])
        expected = factor @ comm
        assert got == expected


def test_volume_variation_distinguished_half_weight_raises():
    with pytest.raises(ExceptionalWeightError):
        volume_variation("distinguished", DensityOperator.partial(1, 1),
                         Fraction(1, 2), GEN, DiffPolynomial.jet("h"))


def test_distinguished_variation_second_order_is_vertical():
    # for n = 2 the variation lands in operators of order <= n - 2 = 0
    delta = generic_second_order(2)
    h = DiffPolynomial.jet("h")
    got = volume_variation("distinguished", delta, l0, GEN, h)
    assert not got.is_zero()
    assert got.x_order() == 0


def test_ad_variation_identity_canonical_and_vol():
    rng = random.Random(21)
    for trial in range(6):
        dim = rng.randint(1, 3)
        delta = random_operator(rng, dim, max_total=3).restrict(0)
        if delta.is_zero():
            continue
        X = random_field(rng, dim)
        assert check_adX_variation_identity(delta, l0, GEN, X)
        n = max(delta.total_order(), 1)
        params = VolLiftParams.of(
            Scalar.param("b"),
            [Scalar.param(f"c{k}") for k in range(1, n + 1)],
            [Scalar.param(f"d{k}") for k in range(1, n + 1)])
        assert check_adX_variation_identity(delta, l0, GEN, X, "vol", params)


def test_ad_variation_identity_divergence_free_trivial():
    X = generic_divfree_field(2)
    delta = generic_second_order(2)
    handle = LiftingHandle.canonical(l0, COORD)
    defect = X.reduce(ad_on_lifting(handle, delta, X.components))
    variation = volume_variation(
        "canonical", delta, l0, COORD, X.reduce(divergence(X.components, COORD)))
    assert defect.is_zero() and variation.is_zero()


def test_ad_variation_identity_vertical_input():
    f = DiffPolynomial.jet("f")
    delta = DensityOperator.function(2, f)
    X = [DiffPolynomial.jet("X", (i,)) for i in (1, 2)]
    lhs = ad_on_lifting(LiftingHandle.canonical(l0, GEN), delta, X)
    rhs = volume_variation("canonical", delta, l0, GEN, divergence(X, GEN))
    assert lhs == rhs
    assert lhs.is_zero()  # functions lift verbatim, equivariantly


def test_generic_divfree_field_properties():
    X = generic_divfree_field(2)
    div = divergence(X.components, COORD)
    assert X.reduce(div).is_zero()
    # eliminated jet: X[1]_,1 replaces X[2]_,2
    reduced = X.reduce(DiffPolynomial.jet("X", (2,), (2,)))
    assert reduced == -DiffPolynomial.jet("X", (1,), (1,))
    # idempotent
    assert X.reduce(reduced) == reduced
    with pytest.raises(DimensionTooSmallError):
        generic_divfree_field(1)


def test_rotation_field_passes_substitution_unchanged():
    X = generic_divfree_field(2)
    x1, x2 = DiffPolynomial.jet("x", (1,)), DiffPolynomial.jet("x", (2,))
    rotation = [x2, -x1]
    for comp in rotation:
        assert X.reduce(comp) == comp


def test_classify_sdiff_map_identity_and_adjoint_combination():
    assert classify_sdiff_map(1, 0, 0, 1, 0, 1, 3).is_zero()
    # adjoint-like combination: b1 = a1 - a2 = 1, b2 = -a3 = -1
    assert classify_sdiff_map(0, -1, 1, 1, -1, 0, 3).is_zero()
    # full rho-adjoint itself: (1, 2, 1, -1, -1, 1)
    assert classify_sdiff_map(1, 2, 1, -1, -1, 1, 3).is_zero()


def test_classify_sdiff_map_violations_are_nonzero():
    assert not classify_sdiff_map(1, 0, 0, 0, 0, 0, 3).is_zero()
    assert not classify_sdiff_map(0, 0, 1, 0, 1, 0, 3).is_zero()
    with pytest.raises(DimensionTooSmallError):
        classify_sdiff_map(1, 0, 0, 1, 0, 1, 2)


def test_classify_sdiff_kernel_is_the_four_dimensional_plane():
    # residual is linear in the six coefficients: compute basis residuals
    basis = []
    for j in range(6):
        coeffs = [0] * 6
        coeffs[j] = 1
        basis.append(classify_sdiff_map(*coeffs, 3))
    matrix = operator_coordinates(basis)
    assert rank(matrix) == 2
    kernel = nullspace(matrix)
    assert len(kernel) == 4
    for vec in kernel:
        a1, a2, a3, b1, b2, c = vec
        assert b1 == a1 - a2
        assert b2 == -a3


def test_divfree_tensor_lift_checks():
    # rank 0 with the self-adjoint signed map
    assert divfree_tensor_lift_check(DivFreeTensor(3, 0), l0)
    # rank 2 divergenceless with Pi_+
    assert divfree_tensor_lift_check(DivFreeTensor(3, 2), l0)
    # constraint dropped: fails
    assert not divfree_tensor_lift_check(DivFreeTensor(3, 2, constrained=False), l0)
    with pytest.raises(ExceptionalWeightError):
        divfree_tensor_lift_check(DivFreeTensor(3, 2), Fraction(1, 2))


def test_divfree_tensor_rank3_pi_minus():
    assert divfree_tensor_lift_check(DivFreeTensor(3, 3), l0)


def test_half_weight_obstruction_no_b_kills_leading_variation():
    # at l0 = 1/2 the order-(n-1) head of the variation is independent of b
    delta = generic_second_order(2)
    h = DiffPolynomial.jet("h")
    half = Fraction(1, 2)
    b = Scalar.param("b")
    params = VolLiftParams.of(b, [0, 0], [0, 0])
    var = volume_variation("vol", delta, half, GEN, h, params)
    n = delta.total_order()
    head = {k: c for k, c in var.terms.items() if len(k[1]) == n - 1}
    assert head
    for coeff in head.values():
        # no b-dependence anywhere in the head coefficients
        assert all("b" not in str(s) for s in coeff.terms.values())


def test_vol_lift_at_weight_zero_always_depends_on_volume():
    # with b fixed at its distinguished value, no C, D choice removes the
    # connection terms: the linear system for the Gamma-dependent part of the
    # lifting has no solution in (c_k, d_k)
    from denslift.lifting import vol_lift

    delta = generic_second_order(2)

    def gamma_part(params):
        lifted = vol_lift(delta, 0, GEN, params)
        kept = {}
        for key, c in lifted.terms.items():
            dep = DiffPolynomial({m: s for m, s in c.terms.items()
                                  if any(sym.base == "ell" for sym, _ in m)})
            if not dep.is_zero():
                kept[key] = dep
        return DensityOperator(2, kept)

    base = VolLiftParams.of(1, [0, 0], [0, 0])
    target = gamma_part(base)
    directions = []
    for k in (1, 2):
        for slot in ("c", "d"):
            c = [0, 0]
            d = [0, 0]
            (c if slot == "c" else d)[k - 1] = 1
            directions.append(gamma_part(VolLiftParams.of(1, c, d)) - target)
    # solve target + sum x_i directions_i = 0: augmented rank exceeds rank
    matrix = operator_coordinates(directions)
    augmented = operator_coordinates(directions + [target])
    assert rank(augmented) == rank(matrix) + 1


def test_sdiff_basis_map_shapes():
    op = generic_second_order(3)
    identity = sdiff_basis_map(op, 1, 0, 0, 1, 0, 1)
    assert identity == op
    # the map reads tensors of a weight-free operator; an L term is an error
    with pytest.raises(HasWeightOperatorError):
        sdiff_basis_map(op + DensityOperator.weight(3), 1, 0, 0, 1, 0, 1)


def test_distinguished_variation_first_order_is_vertical():
    # n = 1: the parity defect of the canonical lift is vertical, so the
    # variation collapses to a commutator of functions and vanishes
    A, B = DiffPolynomial.jet("A"), DiffPolynomial.jet("B")
    delta = DensityOperator(1, {(0, (1,)): A, (0, ()): B})
    h = DiffPolynomial.jet("h")
    var = volume_variation("distinguished", delta, l0, GEN, h)
    assert var.is_zero() or var.is_vertical()
