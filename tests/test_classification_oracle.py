"""Completeness of the engine's (anti-)self-adjoint parametrizations.

The oracle solves the defining conditions in sympy, with no engine code, and
the engine's family must span its whole solution space: every member the
engine builds satisfies the conditions, and the members it builds from unit
coefficient vectors are as many independent ones as the space has
dimensions.  A parametrization that lost a direction fails the rank check.
On the regular lifting line the oracle solves the (anti-)self-adjointness
condition for b and finds exactly one point, the distinguished member."""

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


def solve_affine(equations) -> sp.Set:
    """The b that zero every equation, checked affine in b first."""
    numerators = {sp.expand(sp.fraction(sp.cancel(e))[0]) for e in equations}
    assert all(sp.Poly(e, B).degree() <= 1 for e in numerators)
    return sp.linsolve(list(numerators) or [sp.S.Zero], [B])


# -- engine side ------------------------------------------------------------------

def _sympy(s: Scalar):
    """An engine Scalar through its num/den views, with l0 as the symbol L0."""
    def poly(terms):
        return sum(sp.Rational(c.numerator, c.denominator)
                   * sp.Mul(*(sp.Symbol(name) ** e for name, e in mono))
                   for mono, c in terms.items())
    return sp.cancel(poly(s.num) / poly(s.den))


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
