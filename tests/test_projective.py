"""Symbol calculus, quantization, projective liftings, Schwarzian."""

import random
from fractions import Fraction

import pytest

from denslift.errors import (
    BadPolynomialError,
    DimensionMismatchError,
    DimensionNotOneError,
    ExceptionalWeightError,
    HasWeightOperatorError,
    OrderTooHighError,
)
from denslift.equivariance import ad_weight
from denslift.jets import DiffPolynomial, JetSymbol
from denslift.lifting import second_order_canonical_lift
from denslift.operators import DensityOperator, generic_second_order
from denslift.projective import (
    DiffeoJet1D,
    SymbolPoly,
    _quantizer,
    coordinate_change_1d,
    full_symbol,
    proj_decompose,
    proj_generators,
    proj_lift,
    proj_regular_lift,
    proj_sa_polynomials,
    quantize,
    schwarzian_cocycle_check,
    schwarzian_data,
    symbol_coeff,
    transformed_schwarzian_data,
)
from denslift.scalars import Scalar

from helpers import generic_third_order, random_operator, weight_free_of_order

l0 = Scalar.param("l0")
lam = Scalar.param("lam")

a = DiffPolynomial.jet("a")
b = DiffPolynomial.jet("b")
c = DiffPolynomial.jet("c")


def line_operator():
    return DensityOperator(1, {(0, (1, 1)): a, (0, (1,)): b, (0, ()): c})


def test_symbol_coeff_closed_form_values():
    # second order on the line: -(2 lam + 1)/2 and lam (2 lam + 1)/3
    assert symbol_coeff(2, 1, lam, 1) == -(2 * lam + 1) / 2
    assert symbol_coeff(2, 2, lam, 1) == lam * (2 * lam + 1) / 3
    for n in range(5):
        assert symbol_coeff(n, 0, lam, 2) == 1


def test_full_symbol_second_order_line():
    sym = full_symbol(line_operator(), lam)
    assert sym.coefficient((1, 1)) == a
    assert sym.coefficient((1,)) == -(2 * lam + 1) / 2 * a.derive(1) + b
    assert sym.coefficient(()) == (lam * (2 * lam + 1) / 3) * a.derive(1).derive(1) \
        - lam * b.derive(1) + c


def test_full_symbol_of_function_is_itself():
    R = DiffPolynomial.jet("R")
    sym = full_symbol(DensityOperator.function(2, R), lam)
    assert sym == SymbolPoly(2, {(): R})


def test_full_symbol_rejects_weight_terms():
    with pytest.raises(HasWeightOperatorError):
        full_symbol(DensityOperator.weight(1), lam)


def test_symbol_constructor_adds_colliding_keys():
    # xi1 xi2 = xi2 xi1: both keys name one term, and neither coefficient is lost
    sym = SymbolPoly(2, {(1, 2): a, (2, 1): b})
    assert sym.terms == {(1, 2): a + b}
    assert sym.render() == "(a + b)*xi1*xi2"
    assert SymbolPoly(2, {(1, 2): a, (2, 1): -a}).is_zero()


def test_quantizer_solves_the_inverse_recurrence():
    # the quantization's closed form inverts the symbol map degree by degree:
    # q_0 = 1 and sum_(j <= k) q_j symbol_coeff(m - j, k - j) = 0 for k >= 1
    for dim in (1, 2, 3):
        for m in range(7):
            q = _quantizer(m, lam, dim)
            assert len(q) == m + 1 and q[0] == 1, (dim, m)
            for k in range(1, m + 1):
                assert sum((q[j] * symbol_coeff(m - j, k - j, lam, dim) for j in range(k + 1)),
                           Scalar.of(0)).is_zero(), (dim, m, k)


def test_symbol_constructor_rejects_a_bad_dim_or_axis():
    # at dim 1, xi^2 keyed (2,) and a constant keyed (0,) would render "3*xi + xi"
    one, three = DiffPolynomial.const(1), DiffPolynomial.const(3)
    with pytest.raises(ValueError, match=r"^term key \(2,\): need axes in 1\.\.1$"):
        SymbolPoly(1, {(2,): one, (0,): three})
    for key in ((0,), (0, 1), (1, 3)):
        with pytest.raises(ValueError, match=r"need axes in 1\.\.2$"):
            SymbolPoly(2, {key: one})
    for dim in (0, -1):
        with pytest.raises(ValueError, match="^dimension must be at least 1$"):
            SymbolPoly(dim, {})


def test_symbols_and_operators_refuse_a_dimension_mismatch():
    # a dim-2 and a dim-1 value never add, subtract or multiply, in either order
    pairs = [(SymbolPoly(2, {(1,): a}), SymbolPoly(1, {(1,): b})),
             (DensityOperator(2, {(0, (1,)): a}), DensityOperator(1, {(0, (1,)): b}))]
    for two, one in pairs:
        for left, right in ((two, one), (one, two)):
            for op in (lambda: left + right, lambda: left - right,
                       lambda: left * right if isinstance(left, SymbolPoly) else left @ right):
                with pytest.raises(DimensionMismatchError,
                                   match=rf"^dim {left.dim} vs {right.dim}$"):
                    op()


def test_symbols_and_operators_are_not_ints():
    # __eq__ returns NotImplemented for an int, so == falls back to identity
    for value in (SymbolPoly(1, {(): DiffPolynomial.const(1)}), SymbolPoly(1),
                  DensityOperator.identity(1), DensityOperator.zero(1)):
        assert (value == 1) is False and (value == 0) is False
        assert value != 1
    assert repr(DensityOperator.identity(1)) == "DensityOperator(d=1, 1)"
    assert repr(SymbolPoly(2, {(2, 1): DiffPolynomial.const(3)})) == "SymbolPoly(d=2, 3*xi1*xi2)"


def test_quantize_second_order_line():
    sym = SymbolPoly(1, {(1, 1): a, (1,): b, (): c})
    got = quantize(sym, lam)
    expected = DensityOperator(1, {
        (0, (1, 1)): a,
        (0, (1,)): (2 * lam + 1) / 2 * a.derive(1) + b,
        (0, ()): (lam * (2 * lam + 1) / 6) * a.derive(1).derive(1) + lam * b.derive(1) + c,
    })
    assert got == expected


def test_symbol_quantize_round_trips():
    rng = random.Random(3)
    for _ in range(8):
        dim = rng.randint(1, 2)
        op = random_operator(rng, dim, max_total=4).restrict(0)
        if op.is_zero():
            continue
        sym = full_symbol(op, lam)
        assert quantize(sym, lam) == op
        back = full_symbol(quantize(sym, lam), lam)
        assert back == sym


def test_proj_generators_counts_and_shape():
    assert len(proj_generators(1)) == 3
    assert len(proj_generators(2)) == 8
    gens = proj_generators(1)
    x = DiffPolynomial.jet("x", (1,))
    assert gens[0] == [DiffPolynomial.const(1)]
    assert gens[1] == [x]
    assert gens[2] == [x * x]
    # special fields in d = 2 have components x^i x^m
    special = proj_generators(2)[-2:]
    x1, x2 = DiffPolynomial.jet("x", (1,)), DiffPolynomial.jet("x", (2,))
    assert special[0] == [x1 * x1, x1 * x2]
    assert special[1] == [x2 * x1, x2 * x2]


def _footnote_special_ad(i, tensor_rank, dim, weight):
    """Independent oracle for ad along the special field x^i x^k d_k applied
    to a single top-tensor operator: tensor Lie derivative minus
    n((n-1) + weight(d+1)) times the i-contraction."""
    n = tensor_rank
    X = [DiffPolynomial.jet("x", (i,)) * DiffPolynomial.jet("x", (m,))
         for m in range(1, dim + 1)]

    def tuples(rank):
        if rank == 0:
            yield ()
            return
        for rest in tuples(rank - 1):
            for p in range(1, dim + 1):
                yield rest + (p,)

    terms = {}
    for idx in tuples(n):
        # tensor Lie derivative of S at this index slot
        lie = DiffPolynomial.zero()
        for p, comp in enumerate(X, start=1):
            lie = lie + comp * DiffPolynomial.jet("S", idx, (p,))
        for slot in range(n):
            for p in range(1, dim + 1):
                swapped = idx[:slot] + (p,) + idx[slot + 1:]
                lie = lie - DiffPolynomial.jet("S", swapped) * X[idx[slot] - 1].derive(p)
        key = (0, tuple(sorted(idx)))
        terms[key] = terms.get(key, DiffPolynomial.zero()) + lie
    out = DensityOperator(dim, terms)

    factor = Scalar.of(n) * (Scalar.of(n - 1) + weight * (dim + 1))
    corr = {}
    for idx in tuples(n - 1):
        key = (0, tuple(sorted(idx)))
        comp = DiffPolynomial.jet("S", tuple(sorted((i,) + idx)))
        corr[key] = corr.get(key, DiffPolynomial.zero()) + comp * factor
    return out - DensityOperator(dim, corr)


def _top_tensor_operator(rank, dim):
    def tuples(r):
        if r == 0:
            yield ()
            return
        for rest in tuples(r - 1):
            for p in range(1, dim + 1):
                yield rest + (p,)

    terms = {}
    for idx in tuples(rank):
        key = (0, tuple(sorted(idx)))
        terms[key] = terms.get(key, DiffPolynomial.zero()) + DiffPolynomial.jet("S", idx)
    return DensityOperator(dim, terms)


def test_special_field_action_matches_footnote_oracle():
    mu = Scalar.param("mu")
    for dim, rank in ((1, 1), (1, 2), (2, 2), (2, 3)):
        op = _top_tensor_operator(rank, dim)
        for i in range(1, dim + 1):
            X = [DiffPolynomial.jet("x", (i,)) * DiffPolynomial.jet("x", (m,))
                 for m in range(1, dim + 1)]
            got = ad_weight(X, op, mu)
            assert got == _footnote_special_ad(i, rank, dim, mu)


def test_symbol_map_projectively_equivariant():
    mu = Scalar.param("mu")
    rng = random.Random(7)
    for dim in (1, 2):
        op = random_operator(rng, dim, max_total=3).restrict(0)
        if op.is_zero():
            op = _top_tensor_operator(2, dim)
        for X in proj_generators(dim):
            lhs = full_symbol(op, mu).lie_derive(X)
            rhs = full_symbol(ad_weight(X, op, mu), mu)
            assert lhs == rhs


def test_proj_lift_line_example_and_restriction():
    # head of the pencil: Q at the formal weight applied to a xi^2
    assert proj_lift(line_operator(), l0).coefficient(0, (1, 1)) == a
    mu = Scalar.param("mu")
    cases = [(line_operator(), l0)] + [
        (make(dim), base) for make in (generic_second_order, generic_third_order)
        for dim in (2, 3) for base in (l0, Scalar.of(Fraction(1, 3)))]
    for delta, base in cases:
        lifted = proj_lift(delta, base)
        assert lifted.restrict(base) == delta
        assert lifted.total_order() == delta.x_order()
        # restriction at a fresh symbolic weight equals direct quantization there
        assert lifted.restrict(mu) == quantize(full_symbol(delta, base), mu)


def test_proj_lift_of_function_is_identity():
    f = DiffPolynomial.jet("f")
    assert proj_lift(DensityOperator.function(2, f), l0) == DensityOperator.function(2, f)


def test_proj_decompose_line_example():
    delta = line_operator()
    parts = proj_decompose(delta, l0)
    assert len(parts) == 3
    d0 = DensityOperator(1, {
        (0, (1, 1)): a,
        (0, (1,)): (2 * l0 + 1) / 2 * a.derive(1),
        (0, ()): (l0 * (2 * l0 + 1) / 6) * a.derive(1).derive(1),
    })
    assert parts[0] == d0
    d1_lead = b - (2 * l0 + 1) / 2 * a.derive(1)
    d1 = DensityOperator(1, {
        (0, (1,)): d1_lead,
        (0, ()): l0 * (b.derive(1) - (2 * l0 + 1) / 2 * a.derive(1).derive(1)),
    })
    assert parts[1] == d1
    d2 = c - l0 * b.derive(1) + (l0 * (2 * l0 + 1) / 3) * a.derive(1).derive(1)
    assert parts[2] == DensityOperator.function(1, d2)
    total = parts[0] + parts[1] + parts[2]
    assert total == delta


def test_proj_decompose_parts_have_homogeneous_symbols():
    # the parts are the quantized degree pieces of the full symbol: they sum
    # to delta and part i has a full symbol homogeneous of degree n - i
    rng = random.Random(71)
    for dim in (1, 2, 3):
        for n in (0, 1, 2, 3):
            delta = weight_free_of_order(rng, dim, n)
            for w in (l0, Scalar.of(Fraction(1, 3))):
                parts = proj_decompose(delta, w)
                assert len(parts) == n + 1
                assert sum(parts, DensityOperator.zero(dim)) == delta
                for i, part in enumerate(parts):
                    assert all(len(beta) == n - i for beta in full_symbol(part, w).terms)


def test_proj_regular_lift_trivial_polys():
    delta = line_operator()
    assert proj_regular_lift(delta, l0, [[1], [1], [1]]) == proj_lift(delta, l0)


def test_proj_regular_lift_three_parameter_plane():
    delta = line_operator()
    k1, k2, k3 = (Scalar.param(nm) for nm in ("k1", "k2", "k3"))
    polys = [[Scalar.of(1)],
             [1 - k1 * l0, k1],
             [1 - k2 * l0 + k3 * l0 * l0, k2 - 2 * k3 * l0 * 0 - k3 * l0 * 2 + k3 * l0 * 2 - k3 * 2 * l0, k3]]
    # P2 = 1 + k2 (L - l0) + k3 (L - l0)^2 expanded
    polys[2] = [1 - k2 * l0 + k3 * l0 * l0, k2 - 2 * k3 * l0, k3]
    lifted = proj_regular_lift(delta, l0, polys)
    assert lifted.restrict(l0) == delta
    parts = proj_decompose(delta, l0)
    expected = proj_lift(parts[0], l0) \
        + DensityOperator.lam_poly(1, polys[1]) @ proj_lift(parts[1], l0) \
        + DensityOperator.lam_poly(1, polys[2]) @ proj_lift(parts[2], l0)
    assert lifted == expected


def test_proj_regular_lift_takes_one_full_symbol_and_no_quantize(monkeypatch):
    # one full symbol at the base weight, whatever the number of parts, and
    # the quantization in closed form with no call to quantize
    from denslift import projective

    rng = random.Random(79)
    calls = []
    monkeypatch.setattr(projective, "quantize",
                        lambda sym, lam: calls.append("quantize") or quantize(sym, lam))
    monkeypatch.setattr(projective, "full_symbol",
                        lambda op, lam: calls.append(lam) or full_symbol(op, lam))
    for dim, n in ((1, 1), (1, 3), (2, 2), (2, 3)):
        delta = weight_free_of_order(rng, dim, n)
        for polys in ((), proj_sa_polynomials(n, l0, {2: [Fraction(1, 3)], 3: [2]})):
            calls.clear()
            lifted = proj_regular_lift(delta, l0, polys)
            assert calls == [l0] and lifted.restrict(l0) == delta, (dim, n, polys)
        calls.clear()
        proj_lift(delta, l0)
        assert calls == [l0]


def test_proj_regular_lift_degree_guard():
    delta = line_operator()
    with pytest.raises(BadPolynomialError):
        proj_regular_lift(delta, l0, [[1], [1 - l0 - l0, 1, 1], [1]])
    with pytest.raises(BadPolynomialError):
        proj_regular_lift(delta, l0, [[1], [2 - 2 * l0, 2], [1]])


def test_proj_sa_polynomials_shapes_and_parity():
    k = Scalar.param("k")
    polys = proj_sa_polynomials(2, l0, {2: [k]})
    assert polys[0] == [Scalar.of(1)]
    den = 2 * l0 - 1
    assert polys[1] == [Scalar.of(-1) / den, Scalar.of(2) / den]
    assert polys[2] == [1 - k * (l0 * l0 - l0), -k, k]
    # parity under L -> 1 - L via the vertical-operator adjoint
    for idx, coeffs in enumerate(polys):
        op = DensityOperator.lam_poly(1, coeffs)
        sign = Fraction((-1) ** idx)
        assert op.adjoint() == sign * op
        # normalization at the base weight
        assert op.restrict(l0) == DensityOperator.identity(1)


def test_proj_sa_polynomials_free_parameter_count():
    for n in range(1, 6):
        slots = 0
        for k in range(1, n + 1):
            slots += k // 2
        p = n % 2
        assert slots == (n * n - p) // 4


def test_proj_sa_polynomials_exceptional_weight():
    with pytest.raises(ExceptionalWeightError):
        proj_sa_polynomials(2, Fraction(1, 2))


def test_schwarzian_data_examples():
    flat = DensityOperator(1, {(0, (1, 1)): DiffPolynomial.const(1)})
    assert schwarzian_data(flat, l0).is_zero()
    # degenerate principal part: S = theta - 2 gamma_x with gamma = b/(2l0-1)
    delta = DensityOperator(1, {(0, (1,)): b, (0, ()): c})
    den = 2 * l0 - 1
    gamma = b * (Scalar.of(1) / den)
    theta = (c - b.derive(1) * (l0 / den)) * (Scalar.of(1) / (l0 * (l0 - 1)))
    assert schwarzian_data(delta, l0) == theta - 2 * gamma.derive(1)
    with pytest.raises(DimensionNotOneError):
        schwarzian_data(DensityOperator.partial(2, 1), l0)


def test_projective_sa_line_differs_from_canonical_by_schwarzian():
    # Pi_kappa(Delta) - Pi_can(Delta) = kappa (L(L-1) - l0(l0-1)) S(x)
    delta = line_operator()
    k = Scalar.param("k")
    polys = proj_sa_polynomials(2, l0, {2: [k]})
    pi_k = proj_regular_lift(delta, l0, polys)
    pi_can = second_order_canonical_lift(delta, l0)
    kappa = l0 * (l0 - 1) * k - 1
    factor = DensityOperator.lam_poly(1, [l0 - l0 * l0, Scalar.of(-1), Scalar.of(1)])
    expected = pi_can + (factor * kappa) * schwarzian_data(delta, l0)
    assert pi_k == expected


def test_coordinate_change_identity():
    op = random_operator(random.Random(5), 1, max_total=3)
    assert coordinate_change_1d(op, DiffeoJet1D.identity()) == op


def test_coordinate_change_affine():
    got = coordinate_change_1d(DensityOperator.partial(1, 1), DiffeoJet1D.scale(2))
    assert got == DensityOperator(1, {(0, (1,)): DiffPolynomial.const(2)})
    # oracle: apply to a generic density in both charts; with y = 2x the
    # derivative in y carries the factor 1/2, so D_x = 2 D_y exactly
    s = DiffPolynomial.jet("s")
    lhs = got.restrict(l0).apply(
        __import__("denslift.operators", fromlist=["Density"]).Density(s, l0))
    assert lhs.coeff == 2 * s.derive(1)


def test_coordinate_change_weight_only_operator_unchanged():
    phi = DiffeoJet1D.generic()
    Lw = DensityOperator.weight(1)
    assert coordinate_change_1d(Lw, phi) == Lw


def test_coordinate_change_lie_covariance():
    # transform of the Lie pencil along X equals the Lie pencil of the
    # transformed field X~ = X y1, with the divergence taken in the image chart
    phi = DiffeoJet1D.generic()
    X = DiffPolynomial.jet("A")
    from denslift.operators import lie_operator

    lhs = coordinate_change_1d(lie_operator(1, [X]), phi)
    moved = X * phi.y1
    rhs = DensityOperator(1, {(0, (1,)): moved, (1, ()): phi.d_y(moved)})
    assert phi.reduce(lhs - rhs).is_zero()


def test_schwarzian_cocycle_identity_diffeo():
    assert schwarzian_cocycle_check(line_operator(), l0, DiffeoJet1D.identity())


def test_schwarzian_cocycle_generic_diffeo():
    assert schwarzian_cocycle_check(line_operator(), l0, DiffeoJet1D.generic())


def test_schwarzian_cocycle_mobius_invariance():
    phi = DiffeoJet1D.mobius()
    # the Schwarzian combination of a Moebius map vanishes identically
    y2, y3 = phi.jet(2), phi.jet(3)
    combo = y3 * phi.w - Fraction(3, 2) * y2 * y2 * phi.w * phi.w
    assert phi.reduce_poly(combo).is_zero()
    assert schwarzian_cocycle_check(line_operator(), l0, phi)


def test_schwarzian_for_unit_leading_coefficient():
    # a = 1, b = c = 0: the source invariant vanishes, so the transformed one
    # is exactly minus 2/3 of the Schwarzian combination
    from denslift.projective import schwarzian_combination, transformed_schwarzian_data

    delta = DensityOperator(1, {(0, (1, 1)): DiffPolynomial.const(1)})
    phi = DiffeoJet1D.generic()
    assert schwarzian_cocycle_check(delta, l0, phi)
    s_t = transformed_schwarzian_data(delta, l0, phi)
    assert phi.reduce_poly(s_t + Fraction(2, 3) * schwarzian_combination(phi)).is_zero()


def test_schwarzian_cocycle_composition():
    # jets of z(y(x)) via the chain rule: the composite defect is the
    # y-pullback of the z-defect plus the y-defect
    from denslift.jets import REGISTRY

    y1 = DiffPolynomial.of_symbol(JetSymbol("y", (), (1,)))
    REGISTRY.ensure(
        "z1", lambda s, ax: DiffPolynomial.jet("z2") * y1)
    REGISTRY.ensure(
        "z2", lambda s, ax: DiffPolynomial.jet("z3") * y1)
    REGISTRY.ensure(
        "z3", lambda s, ax: DiffPolynomial.jet("z4") * y1)
    REGISTRY.ensure(
        "z4", lambda s, ax: DiffPolynomial.jet("z5") * y1)
    REGISTRY.ensure(
        "wz",
        lambda s, ax: -(DiffPolynomial.jet("wz") ** 2) * DiffPolynomial.jet("z2") * y1)

    z1 = DiffPolynomial.jet("z1")
    wz = DiffPolynomial.jet("wz")
    w = DiffPolynomial.jet("w")
    comp = DiffeoJet1D(z1 * y1, wz * w,
                       ((JetSymbol("w"), JetSymbol("y", (), (1,))),
                        (JetSymbol("wz"), JetSymbol("z1"))))
    Y2, Y3 = comp.jet(2), comp.jet(3)
    combo = Y3 * comp.w - Fraction(3, 2) * Y2 * Y2 * comp.w * comp.w
    phi = DiffeoJet1D.generic()
    y_defect = phi.jet(3) * phi.w - Fraction(3, 2) * phi.jet(2) ** 2 * phi.w ** 2
    z2, z3 = DiffPolynomial.jet("z2"), DiffPolynomial.jet("z3")
    z_defect = z3 * wz - Fraction(3, 2) * z2 * z2 * wz * wz
    expected = z_defect * y1 * y1 + y_defect
    assert comp.reduce_poly(combo - expected).is_zero()


def test_proj_lift_handle_equivariant_along_projective_fields():
    from denslift.equivariance import LiftingHandle, ad_on_lifting

    delta = line_operator()
    handle = LiftingHandle.proj(l0)
    for X in proj_generators(1):
        assert ad_on_lifting(handle, delta, X).is_zero()
    # a non-projective field (cubic) breaks equivariance
    x = DiffPolynomial.jet("x", (1,))
    cubic = [x * x * x]
    assert not ad_on_lifting(handle, delta, cubic).is_zero()


def test_proj_regular_sa_handle_equivariance_forces_schwarzian_invariance():
    # both the self-adjoint projective family and the canonical pencil are
    # equivariant along the special projective field, hence their vertical
    # difference (the Schwarzian term) has zero defect there too
    from denslift.equivariance import LiftingHandle, ad_on_lifting

    delta = line_operator()
    k = Scalar.param("k")
    polys = proj_sa_polynomials(2, l0, {2: [k]})
    special = proj_generators(1)[2]
    kappa_handle = LiftingHandle.proj_regular(l0, polys)
    can_handle = LiftingHandle.second_order_canonical(l0)
    defect_kappa = ad_on_lifting(kappa_handle, delta, special)
    defect_can = ad_on_lifting(can_handle, delta, special)
    assert defect_kappa.is_zero()
    assert defect_can.is_zero()


def test_proj_sa_polynomials_parity_through_order_five():
    for n in range(1, 6):
        free = {k: [Scalar.param(f"c{k}{r}") for r in range(1, k // 2 + 1)]
                for k in range(2, n + 1)}
        polys = proj_sa_polynomials(n, l0, free)
        assert len(polys) == n + 1
        for idx, coeffs in enumerate(polys):
            assert len(coeffs) <= idx + 1
            op = DensityOperator.lam_poly(1, coeffs)
            assert op.adjoint() == Fraction((-1) ** idx) * op
            assert op.restrict(l0) == DensityOperator.identity(1)


def test_proj_lift_head_pencil_closed_form():
    # the top part of the lifted pencil is the quantization of a xi^2 at the
    # formal weight: a D^2 + (2L+1)/2 a_x D + L(2L+1)/6 a_xx
    delta = line_operator()
    parts = proj_decompose(delta, l0)
    head = proj_lift(parts[0], l0)
    ax, axx = a.derive(1), a.derive(1).derive(1)
    expected = DensityOperator(1, {
        (0, (1, 1)): a,
        (1, (1,)): ax,
        (0, (1,)): ax * Fraction(1, 2),
        (2, ()): axx * Fraction(1, 3),
        (1, ()): axx * Fraction(1, 6),
    })
    assert head == expected


def test_transformed_schwarzian_at_identity_and_scaling_is_the_source_one():
    # both go through one formula; only the derivation differs (d/dx vs w d/dx)
    rng = random.Random(10)
    for base in (l0, Fraction(1, 3), 2, Fraction(-5, 7)):
        for _ in range(4):
            delta = random_operator(rng, 1, max_total=2).restrict(0)
            want = schwarzian_data(delta, base)
            for phi in (DiffeoJet1D.identity(), DiffeoJet1D.scale(2)):
                assert transformed_schwarzian_data(delta, base, phi) == want, (base, delta)


def test_schwarzian_checks_dimension_then_weight_then_order_then_base_weight():
    # both charts check their input alike: no term is dropped silently
    weighted_third = DensityOperator(1, {(1, ()): a, (0, (1, 1, 1)): b})
    third = DensityOperator(1, {(0, (1, 1, 1)): b})
    for delta, base, error in (
            (DensityOperator(2, {(1, ()): a, (0, (1, 1, 2)): b}), l0, DimensionNotOneError),
            (weighted_third, Fraction(1, 2), HasWeightOperatorError),
            (third, Fraction(1, 2), OrderTooHighError),
            (DensityOperator(1, {(1, ()): a}), 1, HasWeightOperatorError),
            (DensityOperator(1, {(0, (1, 1)): a}), 0, ExceptionalWeightError)):
        with pytest.raises(error):
            schwarzian_data(delta, base)
        with pytest.raises(error):
            transformed_schwarzian_data(delta, base, DiffeoJet1D.identity())


def test_line_only_and_range_guards():
    with pytest.raises(DimensionNotOneError,
                       match="^coordinate changes are implemented on the line$"):
        coordinate_change_1d(DensityOperator.partial(2, 1), DiffeoJet1D.generic())
    with pytest.raises(BadPolynomialError, match="^P_3 admits at most 1 free coefficients$"):
        proj_sa_polynomials(3, l0, {3: [1, 2]})
    with pytest.raises(ValueError, match="^need 0 <= k <= n$"):
        symbol_coeff(2, 3, l0, 1)


def test_proj_regular_lift_pads_polynomials_and_parts():
    delta = line_operator()   # three parts
    base = proj_regular_lift(delta, l0, [])
    assert base == proj_lift(delta, l0)
    assert proj_regular_lift(delta, l0, [[1]]) == base
    # a normalized P_3 meets a zero part
    assert proj_regular_lift(delta, l0, [[1], [1], [1], [1 - l0, 1]]) == base
    with pytest.raises(BadPolynomialError,
                       match="^P_3 is not normalized to 1 at the base weight$"):
        proj_regular_lift(delta, l0, [[1], [1], [1], [2]])
