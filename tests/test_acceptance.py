"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All comparisons are exact (zero residual); the only tolerances are the time
budgets, which pytest enforces implicitly by these tests simply finishing.
"""

import random
import time
from fractions import Fraction

from denslift.equivariance import (
    DivFreeTensor,
    LiftingHandle,
    ad_on_lifting,
    check_adX_variation_identity,
    classify_sdiff_map,
    divfree_tensor_lift_check,
    volume_variation,
)
from denslift.jets import DiffPolynomial
from denslift.lifting import (
    VolLiftParams,
    VolumeForm,
    canonical_lift,
    second_order_canonical_lift,
    selfadjoint_family,
    taylor_assemble,
    taylor_expand,
    vol_lift,
)
from denslift.linalg import nullspace, operator_coordinates, rank
from denslift.operators import DensityOperator, generic_second_order, lie_operator
from denslift.projective import (
    DiffeoJet1D,
    SymbolPoly,
    full_symbol,
    proj_generators,
    quantize,
    schwarzian_combination,
    schwarzian_cocycle_check,
    symbol_coeff,
)
from denslift.scalars import HALF, Scalar

from helpers import (
    generic_third_order,
    random_field,
    random_operator,
)

l0 = Scalar.param("l0")
lam = Scalar.param("lam")
COORD = VolumeForm.coordinate()
GEN = VolumeForm.generic()


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_adjoint_calculus():
    start = time.time()
    dim_ops = []
    rng = random.Random(101)
    for _ in range(100):
        dim = rng.randint(1, 3)
        dim_ops.append(random_operator(rng, dim, max_total=4, max_terms=3))
    ok = True
    for dim in (1, 2, 3):
        lam_op = DensityOperator.weight(dim)
        ok = ok and lam_op.adjoint() == DensityOperator.identity(dim) - lam_op
        for axis in range(1, dim + 1):
            d_op = DensityOperator.partial(dim, axis)
            ok = ok and d_op.adjoint() == -d_op
    for i, op in enumerate(dim_ops):
        ok = ok and op.adjoint().adjoint() == op
        partner = dim_ops[i - 1]
        if partner.dim == op.dim:
            ok = ok and (op @ partner).adjoint() == partner.adjoint() @ op.adjoint()
    elapsed = time.time() - start
    _report(1, ok and elapsed < 10,
            f"adjoint generators, involution, anti-homomorphism on 100 operators "
            f"({elapsed:.1f}s)")


def test_criterion_02_parity_defect():
    rng = random.Random(102)
    ok = True
    for _ in range(100):
        dim = rng.randint(1, 3)
        op = random_operator(rng, dim, max_total=4, max_terms=3)
        n = op.total_order()
        defect = op - Fraction((-1) ** n) * op.adjoint()
        ok = ok and (defect.is_zero() or defect.total_order() <= n - 1)
    _report(2, ok, "total_order(A - (-1)^n A*) <= n-1 on the same corpus")


def test_criterion_03_second_order_canonical_lifting():
    start = time.time()
    ok = True
    for dim in (1, 2, 3):
        delta = generic_second_order(dim)
        lifted = second_order_canonical_lift(delta, l0)
        ok = ok and lifted.adjoint() == lifted
        ok = ok and lifted.restrict(l0) == delta
        ok = ok and lifted.app1().is_zero()
        X = [DiffPolynomial.jet("X", (i,)) for i in range(1, dim + 1)]
        handle = LiftingHandle.second_order_canonical(l0)
        ok = ok and ad_on_lifting(handle, delta, X).is_zero()
    elapsed = time.time() - start
    _report(3, ok and elapsed < 30,
            f"self-adjoint, restricting, normalized, diff-equivariant in d=1..3 "
            f"({elapsed:.1f}s)")


def test_criterion_04_vol_lifting_family():
    b, c, d = (Scalar.param(nm) for nm in ("b", "c", "d"))
    A, B = DiffPolynomial.jet("A"), DiffPolynomial.jet("B")
    delta = DensityOperator(1, {(0, (1,)): A, (0, ()): B})
    lifted = vol_lift(delta, l0, GEN, VolLiftParams.of(b, [c], [d]))
    k1 = c + d - 2 * b
    k2 = b - d
    gamma = GEN.gamma(1)
    inner = B * k1 + A.derive(1) * k2 + A * gamma * (1 - l0 * k1 - k2)
    expected = delta + DensityOperator.lam_poly(1, [-l0, Scalar.of(1)]) * inner
    ok = lifted == expected
    # the connection-dependent part carries exactly the factor 1 - l0 k1 - k2,
    # so diff-equivariance of the family forces k2 = 1 - l0 k1
    u_gamma_coeff = lifted.coefficient(1, ())  # L-part of the vertical terms
    dep = DiffPolynomial({m: s for m, s in u_gamma_coeff.terms.items()
                          if any(sym.base == "ell" for sym, _ in m)})
    ok = ok and dep == A * gamma * (1 - l0 * k1 - k2)
    _report(4, ok, "first-order family matches k1 = c+d-2b, k2 = b-d; "
                   "volume dependence factor is exactly 1 - l0 k1 - k2")


def test_criterion_05_distinguished_kills_leading_variation():
    ok = True
    b = Scalar.param("b")
    h = DiffPolynomial.jet("h")
    b_star = Scalar.of(1) / (1 - 2 * l0)
    for n, delta in ((2, generic_second_order(3)), (3, generic_third_order(3))):
        params = VolLiftParams.of(b, [Scalar.of(0)] * n, [Scalar.of(0)] * n)
        var = volume_variation("vol", delta, l0, GEN, h, params)

        def head(op):
            return DensityOperator(op.dim, {
                key: c for key, c in op.terms.items() if len(key[1]) == n - 1})

        head_b = head(var)
        ok = ok and not head_b.is_zero()
        # affine in b with nonzero slope: substituting the distinguished value
        # of b kills the head, any other rational value does not
        killed = head_b.substitute_params({"b": b_star})
        ok = ok and killed.is_zero()
        other = head_b.substitute_params({"b": b_star + 1})
        ok = ok and not other.is_zero()
        slope = head_b.substitute_params({"b": Scalar.of(1)}) - head_b.substitute_params(
            {"b": Scalar.of(0)})
        ok = ok and not slope.is_zero()
    _report(5, ok, "b = 1/(1-2*l0) is the unique zero of the order-(n-1) "
                   "variation head for n = 2, 3 in d = 3")


def test_criterion_06_ad_variation_identity():
    rng = random.Random(106)
    ok = True
    checked = 0
    while checked < 5:
        dim = rng.randint(1, 3)
        delta = random_operator(rng, dim, max_total=3, max_terms=2).restrict(0)
        if delta.is_zero():
            continue
        checked += 1
        X = random_field(rng, dim)
        ok = ok and check_adX_variation_identity(delta, l0, GEN, X)
        n = max(delta.total_order(), 1)
        params = VolLiftParams.of(
            Scalar.param("b"),
            [Scalar.param(f"c{k}") for k in range(1, n + 1)],
            [Scalar.param(f"d{k}") for k in range(1, n + 1)])
        ok = ok and check_adX_variation_identity(delta, l0, GEN, X, "vol", params)
    _report(6, ok, "ad_X of the lifting equals the volume variation at "
                   "delta rho = rho div X for canonical and vol handles")


def test_criterion_07_third_order_obstruction():
    delta = generic_third_order(3)
    h = DiffPolynomial.jet("h")
    var = volume_variation("distinguished", delta, l0, GEN, h)
    ok = not var.is_zero() and var.x_order() == 1
    _report(7, ok, "distinguished variation of a generic third-order operator "
                   "is a nonzero first-order operator (no cancellation)")


def test_criterion_08_sdiff_classification():
    start = time.time()
    basis = []
    for j in range(6):
        coeffs = [0] * 6
        coeffs[j] = 1
        basis.append(classify_sdiff_map(*coeffs, 3))
    matrix = operator_coordinates(basis)
    kernel = nullspace(matrix)
    ok = rank(matrix) == 2 and len(kernel) == 4
    for vec in kernel:
        a1, a2, a3, b1, b2, c = vec
        ok = ok and b1 == a1 - a2 and b2 == -a3
    elapsed = time.time() - start
    _report(8, ok and elapsed < 60,
            f"classification kernel in d=3 is the 4-plane b1=a1-a2, b2=-a3 "
            f"({elapsed:.1f}s)")


def test_criterion_09_taylor_and_selfadjoint_families():
    rng = random.Random(109)
    ok = True
    for _ in range(6):
        dim = rng.randint(1, 2)
        op = random_operator(rng, dim, max_total=4, max_terms=3)
        coeffs = taylor_expand(op, l0, GEN)
        ok = ok and taylor_assemble(coeffs, l0, GEN) == op
    # parity and pass-through for orders 2 and 3
    for n, delta in ((2, generic_second_order(2)), (3, generic_third_order(2))):
        evens = [DensityOperator.function(2, DiffPolynomial.jet("F"))] if n == 2 else [
            DensityOperator(2, {(0, (1,)): DiffPolynomial.jet("A", (1,)),
                                (0, (2,)): DiffPolynomial.jet("A", (2,)),
                                (0, ()): DiffPolynomial.jet("B")})]
        fam = selfadjoint_family(delta, l0, GEN, evens)
        sign = Fraction((-1) ** n)
        ok = ok and fam.adjoint() == sign * fam
        ok = ok and fam.restrict(l0) == delta
    # third-order closed form: the family built from Delta_2 = Lie + scalar
    delta = generic_third_order(2)
    A = [DiffPolynomial.jet("A", (i,)) for i in (1, 2)]
    S = DiffPolynomial.jet("Sc")
    lie_half = lie_operator(2, A).restrict(HALF)
    delta2 = lie_half + DensityOperator.function(2, S)
    fam = selfadjoint_family(delta, l0, GEN, [delta2])
    hat0 = canonical_lift(delta, l0, GEN)
    hat0_adj = hat0.adjoint()
    t_over_s = DensityOperator.lam_poly(
        2, [Scalar.of(-1) / (2 * l0 - 1), Scalar.of(2) / (2 * l0 - 1)])
    lie_hat = canonical_lift(lie_half, HALF, GEN)
    vertical = DensityOperator.lam_poly(
        2, [l0 - l0 * l0, Scalar.of(-1), Scalar.of(1)])
    expected = (hat0 - hat0_adj) * Fraction(1, 2) \
        + t_over_s @ (hat0 + hat0_adj) * Fraction(1, 2) \
        + vertical @ (lie_hat + t_over_s * S)
    ok = ok and fam == expected
    _report(9, ok, "Taylor round trips; (anti-)self-adjoint families for n=2,3; "
                   "third-order closed form matches term-by-term")


def test_criterion_10_projective_calculus():
    start = time.time()
    a, b, c = (DiffPolynomial.jet(nm) for nm in ("a", "b", "c"))
    delta = DensityOperator(1, {(0, (1, 1)): a, (0, (1,)): b, (0, ()): c})
    # Example formulas, digit-exact with generic weight
    sym = full_symbol(delta, lam)
    ok = sym.coefficient((1, 1)) == a
    ok = ok and sym.coefficient((1,)) == b - (2 * lam + 1) / 2 * a.derive(1)
    ok = ok and sym.coefficient(()) == c - lam * b.derive(1) \
        + (lam * (2 * lam + 1) / 3) * a.derive(1).derive(1)
    quant = quantize(SymbolPoly(1, {(1, 1): a, (1,): b, (): c}), lam)
    ok = ok and quant == DensityOperator(1, {
        (0, (1, 1)): a,
        (0, (1,)): (2 * lam + 1) / 2 * a.derive(1) + b,
        (0, ()): (lam * (2 * lam + 1) / 6) * a.derive(1).derive(1)
        + lam * b.derive(1) + c,
    })
    ok = ok and symbol_coeff(2, 1, lam, 1) == -(2 * lam + 1) / 2
    ok = ok and symbol_coeff(2, 2, lam, 1) == lam * (2 * lam + 1) / 3
    # quantization inverts the symbol map up to order 4 in d <= 2
    rng = random.Random(110)
    for _ in range(6):
        dim = rng.randint(1, 2)
        op = random_operator(rng, dim, max_total=4, max_terms=3).restrict(0)
        if op.is_zero():
            continue
        sym_op = full_symbol(op, lam)
        ok = ok and quantize(sym_op, lam) == op
        ok = ok and full_symbol(quantize(sym_op, lam), lam) == sym_op
    # projective equivariance of the symbol map, orders <= 3, d in {1, 2}
    from denslift.equivariance import ad_weight

    for dim in (1, 2):
        for target in (generic_second_order(dim), generic_third_order(dim)):
            for X in proj_generators(dim):
                lhs = full_symbol(target, lam).lie_derive(X)
                rhs = full_symbol(ad_weight(X, target, lam), lam)
                ok = ok and lhs == rhs
    elapsed = time.time() - start
    _report(10, ok and elapsed < 120,
            f"symbol/quantization closed forms, inverses to order 4, projective "
            f"equivariance to order 3 ({elapsed:.1f}s)")


def test_criterion_11_schwarzian_cocycle():
    a, b, c = (DiffPolynomial.jet(nm) for nm in ("a", "b", "c"))
    delta = DensityOperator(1, {(0, (1, 1)): a, (0, (1,)): b, (0, ()): c})
    ok = schwarzian_cocycle_check(delta, l0, DiffeoJet1D.identity())
    ok = ok and schwarzian_cocycle_check(delta, l0, DiffeoJet1D.generic())
    phi = DiffeoJet1D.mobius()
    ok = ok and phi.reduce_poly(schwarzian_combination(phi)).is_zero()
    ok = ok and schwarzian_cocycle_check(delta, l0, phi)
    _report(11, ok, "cocycle law exact on generic jets; Schwarzian combination "
                    "vanishes on Moebius jets")


def test_criterion_12_divergenceless_tensors():
    ok = divfree_tensor_lift_check(DivFreeTensor(3, 3), l0)          # Pi_- on rank 3
    ok = ok and divfree_tensor_lift_check(DivFreeTensor(3, 2), l0)   # Pi_+ on rank 2
    ok = ok and not divfree_tensor_lift_check(
        DivFreeTensor(3, 2, constrained=False), l0)
    _report(12, ok, "signed distinguished lifts equivariant on divergenceless "
                    "tensors; failure exhibited without the constraint")
