"""Lifting constructions: canonical, regular family, distinguished, Taylor."""

import random
from fractions import Fraction

import pytest

from denslift.errors import (
    ExceptionalWeightError,
    HasWeightOperatorError,
    NotNormalizedError,
    OrderTooHighError,
    OrderViolationError,
)
from denslift.jets import DiffPolynomial
from denslift.lifting import (
    VolLiftParams,
    VolumeForm,
    apply_family,
    canonical_lift,
    cocycle_rho,
    decompose_first_order,
    distinguished_coefficients,
    distinguished_lift,
    extract_geometric_data,
    first_order_lift,
    is_regular_pair,
    is_strict_pair,
    limit_lift,
    sa_vertical_polynomials,
    second_order_canonical_lift,
    selfadjoint_family,
    taylor_assemble,
    taylor_expand,
    vol_lift,
)
from denslift.operators import DensityOperator, generic_second_order, lie_operator
from denslift.scalars import HALF, ZERO, Scalar

from helpers import random_operator, weight_free_of_order

l0 = Scalar.param("l0")
COORD = VolumeForm.coordinate()
GEN = VolumeForm.generic()
WEIGHTS = [l0, Scalar.of(2), Scalar.of(Fraction(-3, 7)), Scalar.of(0), Scalar.of(1)]


def D(dim, axis):
    return DensityOperator.partial(dim, axis)


def Lw(dim):
    return DensityOperator.weight(dim)


def lam_shift(dim):
    return DensityOperator.lam_poly(dim, [-l0, Scalar.of(1)])


def family_reference(lifted, w, n, b, c=(), d=()):
    """A(L) o P + B(L) o P* + C(L) P(1) + D(L) P*(1) from the four vertical
    polynomials in u = L - w, A = 1 - b u, B = (-1)^n b u, C = sum_k c_k u^k and
    D = sum_k d_k u^k: a route independent of the closed form."""
    dim = lifted.dim
    A, B, C, D_ = (DensityOperator.lam_poly(dim, coeffs, w) for coeffs in
                   ([1, -b], [0, b * (-1) ** n], [0, *c], [0, *d]))
    adjoint = lifted.adjoint()
    return A @ lifted + B @ adjoint + C * lifted.app1() + D_ * adjoint.app1()


def distinguished_b(w):
    return Scalar.of(-1) / (2 * w - 1)


def test_canonical_lift_trivial_in_normal_coordinates():
    assert canonical_lift(D(1, 1), l0, COORD) == D(1, 1)


def test_canonical_lift_first_order_closed_form():
    # D1 at l0 = 0 over a generic volume becomes D1 - L * ell_,1
    got = canonical_lift(D(1, 1), 0, GEN)
    ell1 = DiffPolynomial.jet("ell", (), (1,))
    assert got == D(1, 1) - DensityOperator(1, {(1, ()): ell1})
    # generic first order: A^i D_i + (L - l0) A^i Gamma_i + B
    dim = 2
    A = [DiffPolynomial.jet("A", (i,)) for i in (1, 2)]
    B = DiffPolynomial.jet("B")
    delta = DensityOperator(dim, {(0, (1,)): A[0], (0, (2,)): A[1], (0, ()): B})
    got = canonical_lift(delta, l0, GEN)
    a_gamma = sum((A[i - 1] * GEN.gamma(i) for i in (1, 2)), DiffPolynomial.zero())
    expected = delta + lam_shift(dim) * a_gamma
    assert got == expected


def test_canonical_lift_restricts_back_and_keeps_order():
    rng = random.Random(2)
    for _ in range(10):
        dim = rng.randint(1, 3)
        delta = random_operator(rng, dim, max_total=3).restrict(0)
        if delta.is_zero():
            continue
        lifted = canonical_lift(delta, l0, GEN)
        assert lifted.restrict(l0) == delta
        assert lifted.total_order() == delta.total_order()


def test_canonical_lift_rejects_weight_terms():
    with pytest.raises(HasWeightOperatorError):
        canonical_lift(Lw(1), l0, GEN)


def test_canonical_lift_conjugation_oracle_via_apply():
    # restrict(P(delta), mu) acting on s must equal exp((mu-l0) ell) delta exp((l0-mu) ell) s,
    # expanded by hand for delta = D1: ds + (mu - l0) Gamma s
    mu = Scalar.param("mu")
    s = DiffPolynomial.jet("s")
    lifted = canonical_lift(D(1, 1), l0, GEN)
    from denslift.operators import Density

    got = lifted.restrict(mu).apply(Density(s, mu))
    expected = s.derive(1) + (mu - l0) * GEN.gamma(1) * s
    assert got.coeff == expected


def test_adjoint_commutes_with_canonical_lift():
    rng = random.Random(3)
    for _ in range(8):
        dim = rng.randint(1, 2)
        delta = random_operator(rng, dim, max_total=3).restrict(0)
        if delta.is_zero():
            continue
        lhs = canonical_lift(delta, l0, GEN).adjoint()
        rhs = canonical_lift(delta.adjoint(), 1 - l0, GEN)
        assert lhs == rhs


def test_vol_lift_reduces_to_canonical():
    delta = generic_second_order(2)
    params = VolLiftParams.of(0, [0, 0], [0, 0])
    assert vol_lift(delta, l0, GEN, params) == canonical_lift(delta, l0, GEN)


def test_vol_lift_first_order_family_term_by_term():
    # Example family on first-order operators: k1 = c + d - 2b, k2 = b - d
    b, c, d = (Scalar.param(nm) for nm in ("b", "c", "d"))
    A = DiffPolynomial.jet("A")
    B = DiffPolynomial.jet("B")
    delta = DensityOperator(1, {(0, (1,)): A, (0, ()): B})
    got = vol_lift(delta, l0, GEN, VolLiftParams.of(b, [c], [d]))
    k1 = c + d - 2 * b
    k2 = b - d
    gamma = GEN.gamma(1)
    inner = B * k1 + A.derive(1) * k2 + A * gamma * (1 - l0 * k1 - k2)
    expected = delta + lam_shift(1) * inner
    assert got == expected


def test_vol_lift_can_raise_order_of_lower_operators():
    # order-2 family applied to a first-order operator with b != 0
    T = DiffPolynomial.jet("T", (1,))
    R = DiffPolynomial.jet("R")
    delta = DensityOperator(1, {(0, (1,)): T, (0, ()): R})
    b = Scalar.param("b")
    lifted = vol_lift(delta, l0, COORD, VolLiftParams.of(b, [0, 0], [0, 0]))
    assert lifted.total_order() == 2
    assert not is_strict_pair(delta, lifted)
    assert is_regular_pair(lifted, 2)


def test_distinguished_lift_parity_and_restriction():
    for dim, order in ((1, 1), (1, 2), (2, 2), (2, 3)):
        rng = random.Random(10 * dim + order)
        delta = random_operator(rng, dim, max_total=order).restrict(0)
        if delta.is_zero():
            continue
        n = delta.total_order()
        lifted = distinguished_lift(delta, l0, GEN)
        assert lifted.restrict(l0) == delta
        assert lifted.adjoint() == Fraction((-1) ** n) * lifted


def test_distinguished_lift_exceptional_weight():
    with pytest.raises(ExceptionalWeightError):
        distinguished_lift(D(1, 1), Fraction(1, 2), GEN)


def test_distinguished_third_order_head_terms():
    # third order in normal coordinates: the top tensor survives unchanged, the
    # second-order head is (2L-1)/(2l0-1) G minus 3 (L-l0)/(2l0-1) div S (the
    # divergence enters through the adjoint of the top term, hence the sign)
    dim = 3
    from helpers import generic_third_order

    delta = generic_third_order(dim)
    lifted = distinguished_lift(delta, l0, COORD)
    den = 2 * l0 - 1
    for k, m in ((1, 1), (1, 2), (2, 2), (1, 3), (3, 3), (2, 3)):
        mult = 1 if k == m else 2
        div_s = DiffPolynomial.zero()
        for i in range(1, dim + 1):
            div_s = div_s + DiffPolynomial.jet("S", (i, k, m)).derive(i)
        g_km = DiffPolynomial.jet("G", (k, m)) + (DiffPolynomial.jet("G", (m, k))
                                                  if k != m else DiffPolynomial.zero())
        # coefficient of L D_k D_m: 2 G_km/(2l0-1) - 3 mult div S/(2l0-1)
        got_l = lifted.coefficient(1, (k, m))
        expected_l = -3 * mult * div_s * (Scalar.of(1) / den) + 2 * g_km * (Scalar.of(1) / den)
        assert got_l == expected_l
        # restriction at l0 recovers the plain coefficients
        assert lifted.restrict(l0).coefficient(0, (k, m)) == delta.coefficient(0, (k, m))


def test_sa_vertical_polynomials_second_order():
    c = Scalar.param("c")
    C, Dv = sa_vertical_polynomials(1, 2, l0, [c], [])
    expected = DensityOperator.lam_poly(
        1, [c * (l0 - l0 * l0), -c, c])  # c (L(L-1) - l0(l0-1))
    assert C == expected
    assert Dv.is_zero()
    # adjoint parity: substituting L -> 1 - L gives (+1)^n C for n = 2
    assert C.adjoint() == C


def test_sa_vertical_polynomials_first_order_empty():
    C, Dv = sa_vertical_polynomials(1, 1, l0, [], [])
    assert C.is_zero() and Dv.is_zero()


def test_sa_vertical_polynomials_parity_odd():
    c = Scalar.param("c")
    C, _ = sa_vertical_polynomials(1, 3, l0, [c], [])
    assert C.adjoint() == -C
    assert C.restrict(l0).is_zero()


def test_first_order_lift_zeroth_order_input():
    B = DiffPolynomial.jet("B")
    c = Scalar.param("c")
    got = first_order_lift(DensityOperator.function(1, B), l0, c)
    expected = DensityOperator.function(1, B) + DensityOperator.lam_poly(1, [-c * l0, c]) * B
    assert got == expected
    assert got.total_order() == 1  # not strictly regular for c != 0


def test_first_order_lift_strict_point():
    A = DiffPolynomial.jet("A")
    B = DiffPolynomial.jet("B")
    delta = DensityOperator(1, {(0, (1,)): A, (0, ()): B})
    got = first_order_lift(delta, l0, 0)
    expected = DensityOperator(1, {
        (0, (1,)): A, (1, ()): A.derive(1),
        (0, ()): B - l0 * A.derive(1),
    })
    assert got == expected
    assert is_strict_pair(delta, got)


def test_first_order_lift_anti_self_adjoint_point():
    A = DiffPolynomial.jet("A")
    B = DiffPolynomial.jet("B")
    delta = DensityOperator(1, {(0, (1,)): A, (0, ()): B})
    c = 2 / (2 * l0 - 1)
    got = first_order_lift(delta, l0, c)
    assert got.adjoint() == -got
    assert got.restrict(l0) == delta


def test_first_order_lift_order_guard():
    with pytest.raises(OrderTooHighError):
        first_order_lift(generic_second_order(1), l0, 0)


def test_decompose_first_order_round_trip():
    A = DiffPolynomial.jet("A")
    B = DiffPolynomial.jet("B")
    delta = DensityOperator(1, {(0, (1,)): A, (0, ()): B})
    comps, S = decompose_first_order(delta, l0)
    assert comps[0] == A
    assert S == B - l0 * A.derive(1)
    rebuilt = lie_operator(1, comps).restrict(l0) + DensityOperator.function(1, S)
    assert rebuilt == delta
    # weight-0 case: remainder is just B
    _, S0 = decompose_first_order(delta, 0)
    assert S0 == B


def test_extract_geometric_data_line():
    a, b, c = (DiffPolynomial.jet(nm) for nm in ("a", "b", "c"))
    delta = DensityOperator(1, {(0, (1, 1)): a, (0, (1,)): b, (0, ()): c})
    data = extract_geometric_data(delta, l0)
    den = 2 * l0 - 1
    gamma = (b - a.derive(1)) * (Scalar.of(1) / den)
    theta = (c - (b.derive(1) - a.derive(1).derive(1)) * (l0 / den)) * (
        Scalar.of(1) / (l0 * (l0 - 1)))
    assert data.gamma[0] == gamma
    assert data.theta == theta


def test_extract_geometric_data_divergence_form_has_no_connection():
    S = DiffPolynomial.jet("S", (1, 1))
    delta = DensityOperator(1, {(0, (1, 1)): S, (0, (1,)): S.derive(1)})
    data = extract_geometric_data(delta, l0)
    assert data.gamma[0].is_zero()


def test_extract_geometric_data_exceptional_weights():
    delta = generic_second_order(1)
    for bad in (0, Fraction(1, 2), 1):
        with pytest.raises(ExceptionalWeightError):
            extract_geometric_data(delta, bad)


def test_exceptional_weight_messages():
    # the golden CLI corpus reaches only some of these guards
    from denslift.projective import DiffeoJet1D, proj_sa_polynomials, transformed_schwarzian_data

    generic = ((0, "0"), (Fraction(1, 2), "1/2"), (1, "1"))
    calls = [(lambda w: extract_geometric_data(generic_second_order(2), w), generic),
             (lambda w: transformed_schwarzian_data(generic_second_order(1), w,
                                                    DiffeoJet1D.generic()), generic),
             (lambda w: selfadjoint_family(generic_second_order(1), w, GEN), generic[1:2]),
             (lambda w: proj_sa_polynomials(2, w), generic[1:2])]
    for call, weights in calls:
        for w, label in weights:
            with pytest.raises(ExceptionalWeightError) as exc:
                call(w)
            assert str(exc.value) == f"exceptional weight {label}"


def test_second_order_canonical_lift_constant_laplacian():
    delta = DensityOperator(1, {(0, (1, 1)): DiffPolynomial.const(1)})
    assert second_order_canonical_lift(delta, l0) == delta


def test_second_order_canonical_lift_line_formula():
    a, b, c = (DiffPolynomial.jet(nm) for nm in ("a", "b", "c"))
    delta = DensityOperator(1, {(0, (1, 1)): a, (0, (1,)): b, (0, ()): c})
    got = second_order_canonical_lift(delta, l0)
    den = 2 * l0 - 1
    gamma = (b - a.derive(1)) * (Scalar.of(1) / den)
    theta = (c - (b.derive(1) - a.derive(1).derive(1)) * (l0 / den)) * (
        Scalar.of(1) / (l0 * (l0 - 1)))
    expected = DensityOperator(1, {
        (0, (1, 1)): a,
        (0, (1,)): a.derive(1) - gamma,
        (1, (1,)): 2 * gamma,
        (1, ()): gamma.derive(1) - theta,
        (2, ()): theta,
    })
    assert got == expected
    assert got.restrict(l0) == delta
    assert got.adjoint() == got
    assert got.app1().is_zero()


def test_second_order_canonical_lift_self_adjoint_generic_dims():
    for dim in (2, 3):
        delta = generic_second_order(dim)
        got = second_order_canonical_lift(delta, l0)
        assert got.adjoint() == got
        assert got.restrict(l0) == delta
        assert got.app1().is_zero()


def test_cocycle_rho_trivial_volume():
    delta = generic_second_order(2)
    data = extract_geometric_data(delta, l0)
    assert cocycle_rho(delta, l0, COORD) == data.theta


def test_cocycle_rho_line_with_generic_log():
    a = DiffPolynomial.const(1)
    bb, cc = DiffPolynomial.jet("b"), DiffPolynomial.jet("c")
    delta = DensityOperator(1, {(0, (1, 1)): a, (0, (1,)): bb, (0, ()): cc})
    data = extract_geometric_data(delta, l0)
    ell1 = DiffPolynomial.jet("ell", (), (1,))
    expected = data.theta + 2 * data.gamma[0] * ell1 + ell1 * ell1
    assert cocycle_rho(delta, l0, GEN) == expected


def test_canonical_minus_distinguished_is_cocycle():
    # the vertical defect between the two second-order liftings
    for dim in (1, 2):
        delta = generic_second_order(dim)
        can = second_order_canonical_lift(delta, l0)
        dist = distinguished_lift(delta, l0, GEN)
        factor = DensityOperator.lam_poly(
            dim, [l0 - l0 * l0, Scalar.of(-1), Scalar.of(1)])  # L(L-1)-l0(l0-1)
        assert can - dist == factor * cocycle_rho(delta, l0, GEN)


def test_taylor_expand_of_canonical_lift():
    delta = generic_second_order(2)
    lifted = canonical_lift(delta, l0, GEN)
    coeffs = taylor_expand(lifted, l0, GEN)
    assert coeffs[0] == delta
    assert all(c.is_zero() for c in coeffs[1:])


def test_taylor_expand_vertical_example():
    f = DiffPolynomial.jet("f")
    op = DensityOperator(1, {(1, ()): f})
    coeffs = taylor_expand(op, 0, COORD)
    assert coeffs[0].is_zero()
    assert coeffs[1] == DensityOperator.function(1, f)


def test_taylor_round_trip():
    rng = random.Random(31)
    for _ in range(8):
        dim = rng.randint(1, 2)
        op = random_operator(rng, dim, max_total=3)
        coeffs = taylor_expand(op, l0, GEN)
        assert taylor_assemble(coeffs, l0, GEN) == op
        for k, c in enumerate(coeffs):
            assert c.is_zero() or c.x_order() <= op.total_order() - k
        # one coefficient per power of L - l0, the last one nonzero: in
        # coordinates the L-degree counts them, and a generic volume turns
        # every D into D - (L - l0) Gamma before they are read off
        flat = taylor_expand(op, l0, COORD)
        assert len(flat) == op.lam_degree() + 1 and not flat[-1].is_zero()
        assert len(coeffs) == op.total_order() + 1 and not coeffs[-1].is_zero()
    for rho in (COORD, GEN):
        assert taylor_expand(DensityOperator.zero(2), l0, rho) == [DensityOperator.zero(2)]


def test_distinguished_lift_is_the_distinguished_family_member():
    # reference: A(L) P + B(L) P* with b = -1/(2 l0 - 1), P the canonical lift
    rng = random.Random(61)
    for dim in (1, 2, 3):
        ops = [DensityOperator.zero(dim)] + [random_operator(rng, dim, max_total=3).restrict(0)
                                             for _ in range(2)]
        for delta in ops:
            for rho in (COORD, GEN):
                for w in WEIGHTS:
                    got = distinguished_lift(delta, w, rho)
                    if delta.is_zero():
                        assert got == delta
                        continue
                    want = family_reference(canonical_lift(delta, w, rho), w,
                                            delta.total_order(), distinguished_b(w))
                    assert got == want, (delta, w)


def test_selfadjoint_family_closed_form():
    # the distinguished map applied to P plus t^(2k-2) (t^2 - t(l0)^2) times the
    # lifted k-th even datum, t = L - 1/2: each added pencil vanishes at l0
    rng = random.Random(67)
    for n in (2, 3, 4, 5):
        for dim in (1, 2, 3) if n < 4 else (1, 2):
            delta = weight_free_of_order(rng, dim, n)
            evens = [weight_free_of_order(rng, dim, n - 2 * k) for k in range(1, n // 2 + 1)]
            for rho in (COORD, GEN):
                for w in (l0, Scalar.of(Fraction(-3, 7))):
                    b = distinguished_b(w)
                    lifted = canonical_lift(delta, w, rho)
                    assert selfadjoint_family(delta, w, rho, []) == \
                        family_reference(lifted, w, n, b)
                    for k, even in enumerate(evens, start=1):
                        vanishing = DensityOperator.lam_poly(
                            dim, [0] * (2 * k - 2) + [-(w - HALF) ** 2, 0, 1], HALF)
                        lifted = lifted + vanishing @ canonical_lift(even, HALF, rho)
                    got = selfadjoint_family(delta, w, rho, evens)
                    assert got == family_reference(lifted, w, n, b), (n, dim, rho, w)


def test_the_family_map_matches_the_vertical_polynomials():
    # rational, symbolic and partly zero (b, c, d) at both parities, on lifts
    # and on a pencil that carries L, as volume_variation passes it
    rng = random.Random(79)
    h = DiffPolynomial.jet("h")
    for n in (2, 3):
        symbolic = VolLiftParams.of(Scalar.param("b"),
                                    [Scalar.param(f"c{k}") for k in range(1, n + 1)],
                                    [Scalar.param(f"d{k}") for k in range(1, n + 1)])
        rational = VolLiftParams.of(Fraction(2, 5), [1, 0, Fraction(-3, 2)][:n],
                                    [0, Fraction(4, 3), 2][:n])
        adjoint_only = VolLiftParams.of(0, [0] * n, [Fraction(1, 2)] + [0] * (n - 1))
        for dim in (1, 2):
            delta = weight_free_of_order(rng, dim, n)
            for rho in (COORD, GEN):
                for w in (l0, Scalar.of(Fraction(-3, 7))):
                    lifted = canonical_lift(delta, w, rho)
                    commutator = DensityOperator.function(dim, h).commutator(lifted)
                    pencil = DensityOperator.lam_poly(dim, [ZERO, commutator], w)
                    for params in (symbolic, rational, adjoint_only):
                        want = family_reference(lifted, w, n, *params)
                        assert vol_lift(delta, w, rho, params) == want, (n, dim, rho, w)
                        assert apply_family(lifted, w, n, *params) == want, (n, dim, rho, w)
                        assert apply_family(pencil, w, n, *params) == \
                            family_reference(pencil, w, n, *params), (n, dim, rho, w)
                    assert distinguished_coefficients(w) == (distinguished_b(w), (), ())


def test_selfadjoint_family_takes_one_adjoint_of_the_whole_pencil(monkeypatch):
    # the closed form adjoints Q once and assembles no Taylor chain around 1/2
    from denslift import lifting

    rng = random.Random(73)
    calls = []
    adjoint = DensityOperator.adjoint
    monkeypatch.setattr(DensityOperator, "adjoint",
                        lambda self: calls.append(self) or adjoint(self))
    monkeypatch.setattr(lifting, "taylor_assemble",
                        lambda *args: pytest.fail("selfadjoint_family assembled a Taylor chain"))
    for dim, n in ((1, 2), (2, 3), (1, 4)):
        delta = weight_free_of_order(rng, dim, n)
        evens = [weight_free_of_order(rng, dim, n - 2 * k) for k in range(1, n // 2 + 1)]
        for data in ([], evens):
            for rho in (COORD, GEN):
                calls.clear()
                selfadjoint_family(delta, l0, rho, data)
                assert len(calls) == 1, (dim, n, len(data), rho)


def test_the_canonical_family_returns_the_lift_without_composing(monkeypatch):
    # b = 0 and no c, d: the polynomial in L - l0 is the lift alone, and
    # Horner's rule composes nothing while its value is zero
    rng = random.Random(71)
    lifts = [canonical_lift(weight_free_of_order(rng, dim, n), w, GEN)
             for dim, n in ((1, 2), (2, 3)) for w in (l0, Scalar.of(Fraction(2, 5)))]
    composes = []
    compose = DensityOperator.compose
    monkeypatch.setattr(DensityOperator, "compose",
                        lambda a, b: composes.append((a, b)) or compose(a, b))
    for lifted in lifts:
        for n in (1, 3):
            assert apply_family(lifted, l0, n, ZERO) == lifted
            assert apply_family(lifted, l0, n, ZERO, [ZERO] * n, [ZERO] * n) == lifted
    assert not composes
    b = Scalar.param("b")
    assert apply_family(lifts[0], l0, 2, b) != lifts[0] and composes


def test_selfadjoint_family_second_order_with_function():
    delta = generic_second_order(1)
    F = DiffPolynomial.jet("F")
    fam = selfadjoint_family(delta, l0, COORD, [DensityOperator.function(1, F)])
    assert fam.adjoint() == fam
    assert fam.restrict(l0) == delta
    # forced odd coefficient: (D0 - D0*)/(2l0-1) + (l0 - 1/2) F
    half = Scalar.of(Fraction(1, 2))
    d1 = (delta - delta.adjoint()) * (Scalar.of(1) / (2 * l0 - 1)) \
        + DensityOperator.function(1, F) * (l0 - half)
    u = DensityOperator.lam_poly(1, [-l0, Scalar.of(1)])
    t = DensityOperator.lam_poly(1, [-half, Scalar.of(1)])
    expected = delta + u @ (d1 + t * F)
    assert fam == expected


def test_selfadjoint_family_parity_orders_2_3():
    rng = random.Random(41)
    for n in (2, 3):
        delta = random_operator(rng, 2, max_total=n).restrict(0)
        if delta.is_zero() or delta.total_order() != n:
            delta = generic_second_order(2) if n == 2 else None
        if delta is None:
            from helpers import generic_third_order

            delta = generic_third_order(2)
        evens = [random_operator(rng, 2, max_total=n - 2).restrict(0)]
        fam = selfadjoint_family(delta, l0, GEN, evens)
        assert fam.adjoint() == Fraction((-1) ** n) * fam
        assert fam.restrict(l0) == delta


def test_selfadjoint_family_exceptional_weight():
    with pytest.raises(ExceptionalWeightError):
        selfadjoint_family(generic_second_order(1), Fraction(1, 2), GEN, [])


def test_limit_lift_coordinate_volume():
    S = DiffPolynomial.jet("S", (1, 1))
    T = DiffPolynomial.jet("T", (1,))
    delta = DensityOperator(1, {(0, (1, 1)): S, (0, (1,)): T})
    got = limit_lift(delta, COORD)
    gamma = S.derive(1) - T
    expected = DensityOperator(1, {
        (0, (1, 1)): S,
        (0, (1,)): S.derive(1) - gamma,
        (1, (1,)): 2 * gamma,
        (1, ()): gamma.derive(1) - gamma.derive(1),
        (2, ()): gamma.derive(1),
    })
    assert got == expected
    assert got.adjoint() == got


def test_limit_lift_generic_volume_self_adjoint():
    delta = generic_second_order(2) - DensityOperator.function(2, DiffPolynomial.jet("R"))
    got = limit_lift(delta, GEN)
    assert got.adjoint() == got
    assert got.restrict(0) == delta


def test_limit_lift_theta_in_generic_volume():
    # theta_rho = div gamma - div Gamma^ + gamma . Gamma with gamma = div S - T,
    # Gamma_i = -ell_,i and Gamma^i = S^{ij} Gamma_j, written with plain jets
    def total(polys):
        return sum(polys, DiffPolynomial.zero())

    for dim in (1, 2, 3):
        axes = range(1, dim + 1)
        S = {(i, j): DiffPolynomial.jet("S", (min(i, j), max(i, j))) for i in axes for j in axes}
        T = {i: DiffPolynomial.jet("T", (i,)) for i in axes}
        Gamma = {i: -DiffPolynomial.jet("ell", (), (i,)) for i in axes}
        gamma = {i: total(S[i, j].derive(j) for j in axes) - T[i] for i in axes}
        upper = {i: total(S[i, j] * Gamma[j] for j in axes) for i in axes}
        div_gamma = total(gamma[i].derive(i) for i in axes)
        theta = (div_gamma - total(upper[i].derive(i) for i in axes)
                 + total(gamma[i] * Gamma[i] for i in axes))
        # S^{ij} D_i D_j + T^i D_i: the constructor adds the (i, j) and (j, i) keys
        delta = DensityOperator(dim, {**{(0, (i, j)): S[i, j] for i in axes for j in axes},
                                      **{(0, (i,)): T[i] for i in axes}})
        terms = {(1, (i,)): 2 * gamma[i] for i in axes}
        terms[(1, ())] = div_gamma - theta
        terms[(2, ())] = theta
        assert limit_lift(delta, GEN) == delta + DensityOperator(dim, terms), dim


def test_limit_lift_requires_normalization():
    with pytest.raises(NotNormalizedError):
        limit_lift(generic_second_order(1), COORD)


def test_regularity_flags_match_first_section_example():
    # Pi(Delta) = Delta + L (a S dd + b (div S + A) d) on functions: regular iff a = 0
    dim = 2
    S = {(i, j): DiffPolynomial.jet("S", (i, j)) for i in (1, 2) for j in (1, 2)}
    A = [DiffPolynomial.jet("A", (i,)) for i in (1, 2)]
    F = DiffPolynomial.jet("F")
    delta = DensityOperator(dim, {
        (0, (1, 1)): S[(1, 1)], (0, (1, 2)): 2 * S[(1, 2)], (0, (2, 2)): S[(2, 2)],
        (0, (1,)): A[0], (0, (2,)): A[1], (0, ()): F,
    })
    for a_par, b_par, regular, strict in [
        (1, 0, False, False), (0, 1, True, False), (0, 0, True, True),
    ]:
        extra = DensityOperator.zero(dim)
        if a_par:
            extra = extra + DensityOperator(dim, {
                (1, (1, 1)): S[(1, 1)], (1, (1, 2)): 2 * S[(1, 2)], (1, (2, 2)): S[(2, 2)]})
        if b_par:
            for i in (1, 2):
                div_s = sum((S[(k, i)].derive(k) for k in (1, 2)), DiffPolynomial.zero())
                extra = extra + DensityOperator(dim, {(1, (i,)): div_s + A[i - 1]})
        lifted = delta + extra
        assert is_regular_pair(lifted, 2) is regular
        # strictness on the first-order subspace: drop the S part entirely
        delta1 = DensityOperator(dim, {(0, (1,)): A[0], (0, (2,)): A[1], (0, ()): F})
        lifted1 = delta1 + (DensityOperator(dim, {(1, (1,)): A[0], (1, (2,)): A[1]})
                            if b_par else DensityOperator.zero(dim))
        assert is_strict_pair(delta1, lifted1) is strict or not b_par


def test_vol_lifting_family_has_independent_directions():
    # the parameter-to-lifting map is affine with trivial kernel: for n = 2 in
    # d = 3 the five coordinate directions stay linearly independent
    from denslift.linalg import operator_coordinates, rank

    delta = generic_second_order(3)
    base = vol_lift(delta, l0, GEN, VolLiftParams.of(0, [0, 0], [0, 0]))
    directions = []
    for setter in (
        lambda: VolLiftParams.of(1, [0, 0], [0, 0]),
        lambda: VolLiftParams.of(0, [1, 0], [0, 0]),
        lambda: VolLiftParams.of(0, [0, 1], [0, 0]),
        lambda: VolLiftParams.of(0, [0, 0], [1, 0]),
        lambda: VolLiftParams.of(0, [0, 0], [0, 1]),
    ):
        directions.append(vol_lift(delta, l0, GEN, setter()) - base)
    assert rank(operator_coordinates(directions)) == 5


def test_sa_vertical_polynomial_parameter_counts():
    # even n: n free coefficients across (C, D); odd n: n - 1; one more is
    # rejected, and every admissible choice has the right parity and zero
    from denslift.errors import OrderViolationError

    for n in (2, 3, 4, 5):
        per_list = (n - n % 2) // 2
        expected = n if n % 2 == 0 else n - 1
        assert 2 * per_list == expected
        coeffs = [Scalar.param(f"c{k}") for k in range(1, per_list + 1)]
        C, Dv = sa_vertical_polynomials(1, n, l0, coeffs, coeffs)
        sign = Fraction((-1) ** n)
        for op in (C, Dv):
            assert op.adjoint() == sign * op
            assert op.restrict(l0).is_zero()
        with pytest.raises(OrderViolationError):
            sa_vertical_polynomials(1, n, l0, coeffs + [Scalar.of(1)], [])


def test_canonical_lift_second_order_exponential_conjugation_oracle():
    # independent oracle: conjugation by exp(k ell) realized through a pair of
    # symbols E, F with dE = k ell_x E, dF = -k ell_x F and E F = 1; then
    # restrict(P(delta), mu) applied to s must equal E * delta(F * s) with
    # k = mu - l0, for an arbitrary second-order input
    from denslift.jets import JetSymbol, REGISTRY
    from denslift.operators import Density

    mu = Scalar.param("mu")
    k = mu - l0
    ell = "ell"

    def e_rule(sym, axis):
        return DiffPolynomial.jet("Ex") * DiffPolynomial.jet(ell, (), (axis,)) * k

    def f_rule(sym, axis):
        return -(DiffPolynomial.jet("Fx") * DiffPolynomial.jet(ell, (), (axis,)) * k)

    REGISTRY.ensure("Ex", e_rule)
    REGISTRY.ensure("Fx", f_rule)
    E, F = DiffPolynomial.jet("Ex"), DiffPolynomial.jet("Fx")
    pair = ((JetSymbol("Ex"), JetSymbol("Fx")),)

    for dim in (1, 2):
        delta = generic_second_order(dim)
        s = DiffPolynomial.jet("s")
        lifted = canonical_lift(delta, l0, GEN).restrict(mu)
        lhs = lifted.apply(Density(s, mu)).coeff
        rhs = E * delta.apply(Density(F * s, mu)).coeff
        assert (lhs - rhs).cancel_pairs(pair).is_zero()


def test_distinguished_and_family_parity_fourth_order():
    # order 4 on the line: self-adjoint distinguished lift and family
    terms = {(0, (1,) * k): DiffPolynomial.jet("f", (), (1,) * (4 - k))
             for k in range(5)}
    delta = DensityOperator(1, terms)
    assert delta.total_order() == 4
    lifted = distinguished_lift(delta, l0, GEN)
    assert lifted.adjoint() == lifted
    assert lifted.restrict(l0) == delta
    evens = [
        DensityOperator(1, {(0, (1, 1)): DiffPolynomial.jet("g"),
                            (0, ()): DiffPolynomial.jet("h")}),
        DensityOperator.function(1, DiffPolynomial.jet("F")),
    ]
    fam = selfadjoint_family(delta, l0, GEN, evens)
    assert fam.adjoint() == fam
    assert fam.restrict(l0) == delta


def test_every_lifting_operation_restricts_back():
    from denslift.projective import proj_lift

    rng = random.Random(53)
    for dim in (1, 2, 3):
        second = generic_second_order(dim)
        first = DensityOperator(dim, {(0, (1,)): DiffPolynomial.jet("A", (1,)),
                                      (0, ()): DiffPolynomial.jet("B")})
        third = random_operator(rng, dim, max_total=3).restrict(0)
        cases = [
            (canonical_lift(second, l0, GEN), second),
            (vol_lift(second, l0, GEN,
                      VolLiftParams.of(Scalar.param("b"),
                                       [Scalar.param("c1"), Scalar.param("c2")],
                                       [Scalar.param("d1"), Scalar.param("d2")])), second),
            (distinguished_lift(second, l0, GEN), second),
            (first_order_lift(first, l0, Scalar.param("c")), first),
            (second_order_canonical_lift(second, l0), second),
            (proj_lift(second, l0), second),
            (selfadjoint_family(second, l0, GEN,
                                [DensityOperator.function(dim, DiffPolynomial.jet("F"))]),
             second),
        ]
        if not third.is_zero():
            cases.append((canonical_lift(third, l0, GEN), third))
        for lifted, source in cases:
            assert lifted.restrict(l0) == source


def test_every_lift_of_the_zero_operator_is_zero():
    # lifting maps are linear, and the zero operator has order 0
    from denslift.equivariance import check_adX_variation_identity, volume_variation
    from denslift.projective import (SymbolPoly, principal_symbol, proj_decompose,
                                     proj_lift, proj_regular_lift)

    for dim in (1, 2):
        zero = DensityOperator.zero(dim)
        field = [DiffPolynomial.jet("X", (i,)) for i in range(1, dim + 1)]
        for rho in (COORD, GEN):
            lifts = [canonical_lift(zero, l0, rho), distinguished_lift(zero, l0, rho),
                     vol_lift(zero, l0, rho, VolLiftParams.of(Fraction(1, 2), [1], [0])),
                     vol_lift(zero, l0, rho, VolLiftParams.of(0, [], [])),
                     selfadjoint_family(zero, l0, rho), limit_lift(zero, rho),
                     volume_variation("canonical", zero, l0, rho, DiffPolynomial.jet("h"))]
            assert all(lift == zero for lift in lifts), rho
            assert check_adX_variation_identity(zero, l0, rho, field, kind="distinguished")
        for lift in (first_order_lift(zero, l0, 2), second_order_canonical_lift(zero, l0),
                     proj_lift(zero, l0), proj_regular_lift(zero, l0, [[1]])):
            assert lift == zero
        assert proj_decompose(zero, l0) == [zero]
        assert principal_symbol(zero) == SymbolPoly(dim, {})
    with pytest.raises(ExceptionalWeightError):
        distinguished_lift(DensityOperator.zero(1), Fraction(1, 2), GEN)
    with pytest.raises(ExceptionalWeightError):
        selfadjoint_family(DensityOperator.zero(1), Fraction(1, 2), GEN)
    for datum in (DensityOperator.function(1, DiffPolynomial.jet("F")), DensityOperator.zero(1)):
        with pytest.raises(OrderViolationError, match=r"^even coefficient #1 has order 0 > -2$"):
            selfadjoint_family(DensityOperator.zero(1), l0, GEN, [datum])


def test_taylor_assemble_needs_a_coefficient():
    with pytest.raises(ValueError, match="^need at least one Taylor coefficient$"):
        taylor_assemble([], l0, COORD)


def test_a_zero_lift_is_a_strict_pair():
    assert is_strict_pair(D(1, 1), DensityOperator.zero(1))
    assert is_strict_pair(DensityOperator.zero(2), DensityOperator.function(2, 3))
