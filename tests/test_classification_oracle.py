"""Completeness of the engine's (anti-)self-adjoint parametrizations.

The oracle solves the defining conditions in sympy, with no engine code, and
the engine's family must span its whole solution space: every member the
engine builds satisfies the conditions, and the members it builds from unit
coefficient vectors are as many independent ones as the space has
dimensions.  A parametrization that lost a direction fails the rank check.
On the regular lifting line the oracle solves the (anti-)self-adjointness
condition for b and finds exactly one point, the distinguished member; for
the regular projective liftings it solves for the weight polynomials P_k and
finds exactly the span of ``proj_sa_polynomials``."""

import random
from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from denslift.jets import DiffPolynomial  # noqa: E402
from denslift.lifting import (  # noqa: E402
    VolLiftParams,
    VolumeForm,
    sa_vertical_polynomials,
    vol_lift,
)
from denslift.operators import DensityOperator  # noqa: E402
from denslift.projective import proj_regular_lift, proj_sa_polynomials  # noqa: E402
from denslift.scalars import Scalar  # noqa: E402

from helpers import weight_free_of_order  # noqa: E402

L, L0, B = sp.symbols("L l0 b")
# the symbolic base weight, and rational ones on both sides of 1/2 and at 0
WEIGHTS = ((Scalar.param("l0"), L0), (Fraction(1, 3), sp.Rational(1, 3)), (2, sp.Integer(2)),
           (0, sp.Integer(0)))


# -- oracle: sympy only ----------------------------------------------------------

def vertical_conditions(n: int, l0) -> sp.Matrix:
    """Rows of the linear conditions on the coefficients (p_0..p_n) of
    P = sum_r p_r L^r: P(1 - L) = (-1)^n P(L) and P(l0) = 0."""
    ps = sp.symbols(f"p0:{n + 1}")
    poly = sum(p * L ** r for r, p in enumerate(ps))
    parity = sp.Poly(sp.expand(poly.subs(L, 1 - L) - (-1) ** n * poly), L).all_coeffs()
    rows = [[sp.diff(e, p) for p in ps] for e in [*parity, poly.subs(L, l0)]]
    return sp.Matrix(rows)


def solve_affine(equations, unknowns=(B,)) -> sp.Set:
    """The points that zero every equation, checked affine in the unknowns
    first; the equations come in lowest terms."""
    numerators = {sp.expand(sp.fraction(sp.together(e))[0]) for e in equations}
    assert all(sp.Poly(e, *unknowns).total_degree() <= 1 for e in numerators)
    return sp.linsolve(list(numerators) or [sp.S.Zero], list(unknowns))


# -- engine side ------------------------------------------------------------------

def _sympy(s: Scalar):
    """An engine Scalar through its num/den views, with l0 as the symbol L0."""
    def poly(terms):
        return sp.Add(*(sp.Rational(c.numerator, c.denominator)
                        * sp.Mul(*(sp.Symbol(name) ** e for name, e in mono))
                        for mono, c in terms.items()))
    return poly(s.num) if s.den == {(): 1} else sp.cancel(poly(s.num) / poly(s.den))


def _coefficient_vector(op, n: int) -> sp.Matrix:
    assert all(not alpha for _, alpha in op.terms), "not a vertical operator"
    return sp.Matrix([_sympy(op.coefficient(r, ()).const_value()) for r in range(n + 1)])


@pytest.mark.parametrize("n", range(1, 9))
def test_sa_vertical_polynomials_span_all_solutions(n):
    k = n // 2
    units = [[1 if i == j else 0 for i in range(k)] for j in range(k)]
    for weight, l0 in WEIGHTS:
        conditions = vertical_conditions(n, l0)
        solutions = conditions.nullspace()
        assert len(solutions) == k, (n, weight)
        # the c and d lists each run over the unit vectors, d in reverse order
        pairs = [sa_vertical_polynomials(1, n, weight, c, d)
                 for c, d in zip(units, reversed(units))]
        for side in (0, 1):
            members = [_coefficient_vector(pair[side], n) for pair in pairs]
            for v in members:
                assert (conditions * v).applyfunc(sp.cancel) == sp.zeros(conditions.rows, 1), \
                    (n, weight)
            assert sp.Matrix.hstack(*members, *solutions).rank(simplify=True) == k, (n, weight)
            assert sp.Matrix.hstack(*members).rank(simplify=True) == k, (n, weight)


@pytest.mark.parametrize("n", range(1, 5))
def test_the_regular_line_has_one_self_adjoint_point(n):
    # vol_lift with free b and c = d = 0: the defect P_b* - (-1)^n P_b.  The
    # terms T D1 + R keep the canonical lift (b = 0) off both parities.
    rng = random.Random(83 + n)
    b = Scalar.param("b")
    for dim in (1, 2):
        delta = weight_free_of_order(rng, dim, n) + DensityOperator(
            dim, {(0, (1,)): DiffPolynomial.jet("T"), (0, ()): DiffPolynomial.jet("R")})
        for rho in (VolumeForm.coordinate(), VolumeForm.generic()):
            for weight, l0 in ((Scalar.param("l0"), L0), (Fraction(2, 7), sp.Rational(2, 7))):
                lifted = vol_lift(delta, weight, rho, VolLiftParams.of(b, [0] * n, [0] * n))
                defect = lifted.adjoint() - lifted * (-1) ** n
                equations = [_sympy(c) for c in {c for poly in defect.terms.values()
                                                 for c in poly.terms.values()}]
                (point,), = solve_affine(equations)
                assert sp.cancel(point + 1 / (2 * l0 - 1)) == 0, (dim, rho, weight)


@pytest.mark.parametrize("n", range(1, 5))
def test_proj_sa_polynomials_span_all_regular_solutions(n):
    # P_k = 1 + sum_r u_kr (L^r - l0^r) for k = 1..n: the lift is affine in
    # the u_kr, and so is its (anti-)self-adjointness defect
    rng = random.Random(89 + n)
    keys = [(k, r) for k in range(1, n + 1) for r in range(1, k + 1)]
    unknowns = [sp.Symbol(f"u{k}_{r}") for k, r in keys]
    u = {key: Scalar.param(str(sym)) for key, sym in zip(keys, unknowns)}
    free = [{k: [int(i == j) for j in range(k // 2)]} for k in range(2, n + 1)
            for i in range(k // 2)]
    for dim in (1, 2):
        # a fresh jet at each lower order keeps every part of the lift nonzero
        delta = weight_free_of_order(rng, dim, n) + DensityOperator(
            dim, {(0, (1,) * m): DiffPolynomial.jet(f"B{m}") for m in range(n)})
        for weight, l0 in ((Scalar.param("l0"), L0), (Fraction(2, 7), sp.Rational(2, 7))):
            polys = [[1]] + [[1 - sum(u[k, r] * Scalar.of(weight) ** r for r in range(1, k + 1))]
                             + [u[k, r] for r in range(1, k + 1)] for k in range(1, n + 1)]
            lifted = proj_regular_lift(delta, weight, polys)
            defect = lifted.adjoint() - lifted * (-1) ** n
            (general,) = solve_affine([_sympy(c) for c in {c for poly in defect.terms.values()
                                                           for c in poly.terms.values()}],
                                      unknowns)
            free_unknowns = sp.Tuple(*general).free_symbols & set(unknowns)
            assert len(free_unknowns) == (n * n - n % 2) // 4 == len(free), (dim, weight)
            # the engine's members, as u vectors: the L^r coefficients of P_k
            members = []
            for given in [{}] + free:
                engine = proj_sa_polynomials(n, weight, given)
                members.append(sp.Matrix([_sympy(engine[k][r]) if r < len(engine[k]) else 0
                                          for k, r in keys]))
            for v in members:
                point = dict(zip(unknowns, v))
                assert all(sp.cancel(g.subs(point) - point[x]) == 0
                           for g, x in zip(general, unknowns)), (dim, weight)
            directions = [v - members[0] for v in members[1:]]
            assert not directions or sp.Matrix.hstack(*directions).rank(simplify=True) \
                == len(free), (dim, weight)
