"""Volume-form liftings of operators to the density algebra.

Everything here draws a pencil through an operator given at one base weight:
the canonical lift conjugates by powers of a volume form (partials pick up
(L - l0) * Gamma_i corrections with the flat connection Gamma_i of the
volume), the regular family dresses that with adjoint and vertical terms, and
the distinguished member is the unique (anti-)self-adjoint point of the line.
Second-order operators get their geometric classification (tensor, upper
connection, scale function) and the associated canonical self-adjoint pencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    ExceptionalWeightError,
    HasWeightOperatorError,
    NotNormalizedError,
    OrderTooHighError,
    OrderViolationError,
)
from .jets import DiffPolynomial, REGISTRY
from .operators import (
    DensityOperator,
    coefficient_tensors,
    lie_operator,
    tensor_divergence,
    tensor_operator,
)
from .scalars import HALF, ONE, Scalar, ZERO

REGISTRY.ensure("ell")


class VolumeForm:
    """Volume structure through the jet of log rho; Gamma_i = -d_i(log rho)."""

    __slots__ = ("ell",)

    def __init__(self, ell: Optional[str]):
        self.ell = ell

    @staticmethod
    def coordinate() -> "VolumeForm":
        return VolumeForm(None)

    @staticmethod
    def generic(base: str = "ell") -> "VolumeForm":
        REGISTRY.ensure(base)
        return VolumeForm(base)

    @property
    def is_coordinate(self) -> bool:
        return self.ell is None

    def log_density(self) -> DiffPolynomial:
        if self.ell is None:
            return DiffPolynomial.zero()
        return DiffPolynomial.jet(self.ell)

    def gamma(self, axis: int) -> DiffPolynomial:
        if self.ell is None:
            return DiffPolynomial.zero()
        return -DiffPolynomial.jet(self.ell, (), (axis,))

    def __repr__(self):
        return "VolumeForm(coordinate)" if self.ell is None else f"VolumeForm(log={self.ell})"


@dataclass(frozen=True)
class VolLiftParams:
    """Parameters (b, c_1..c_n, d_1..d_n) of the regular lifting family."""

    b: Scalar
    c: Tuple[Scalar, ...]
    d: Tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.c) != len(self.d):
            raise ValueError("c and d parameter lists must have equal length")

    @property
    def n(self) -> int:
        return len(self.c)

    @staticmethod
    def of(b, c: Sequence, d: Sequence) -> "VolLiftParams":
        return VolLiftParams(Scalar.of(b), tuple(Scalar.of(x) for x in c),
                             tuple(Scalar.of(x) for x in d))


@dataclass(frozen=True)
class GeometricData:
    """Classifying data (S^{ij}, gamma^i, theta, F) of a second-order pencil."""

    dim: int
    S: Dict[Tuple[int, int], DiffPolynomial]   # symmetric: nonzero components, sorted keys
    gamma: Tuple[DiffPolynomial, ...]
    theta: DiffPolynomial
    F: DiffPolynomial

    def s_component(self, i: int, j: int) -> DiffPolynomial:
        return self.S.get((min(i, j), max(i, j)), DiffPolynomial.zero())


def _require_weight_free(op: DensityOperator):
    if op.has_weight_factor():
        raise HasWeightOperatorError("input operator already contains the weight generator")


def _require_not_half(l0: Scalar):
    if l0 == HALF:
        raise ExceptionalWeightError("exceptional weight 1/2")


def _require_generic(l0: Scalar):
    for bad, label in ((ZERO, "0"), (HALF, "1/2"), (ONE, "1")):
        if l0 == bad:
            raise ExceptionalWeightError(f"exceptional weight {label}")


def covariant_partials(dim: int, l0: Scalar, rho: VolumeForm) -> List[DensityOperator]:
    """The replacement operators nabla_i = D_i + (L - l0) Gamma_i."""
    out = []
    for i in range(1, dim + 1):
        op = DensityOperator.partial(dim, i)
        g = rho.gamma(i)
        if not g.is_zero():
            op = op + DensityOperator(dim, {(1, ()): g}) - DensityOperator.function(dim, g) * l0
        out.append(op)
    return out


def canonical_lift(delta: DensityOperator, l0, rho: VolumeForm) -> DensityOperator:
    """Conjugation by rho^(L - l0): every D_i becomes D_i + (L - l0) Gamma_i."""
    _require_weight_free(delta)
    l0 = Scalar.of(l0)
    if rho.is_coordinate:
        return delta
    return delta.substitute_partials(covariant_partials(delta.dim, l0, rho))


def family_polynomials(dim: int, l0: Scalar, n: int, b: Scalar, c: Sequence[Scalar] = (),
                       d: Sequence[Scalar] = ()) -> Tuple[DensityOperator, ...]:
    """Vertical polynomials (A, B, C, D) of the regular family member with
    parameters (b, c, d): with u = L - l0, A = 1 - b u, B = (-1)^n b u,
    C = sum_k c_k u^k and D = sum_k d_k u^k."""
    ident = DensityOperator.identity(dim)
    u = DensityOperator.lam_poly(dim, [-l0, ONE])
    c_poly = d_poly = DensityOperator.zero(dim)
    u_pow = ident
    for ck, dk in zip(c, d):
        u_pow = u_pow @ u
        c_poly = c_poly + u_pow * ck
        d_poly = d_poly + u_pow * dk
    return ident - b * u, (b * Fraction((-1) ** n)) * u, c_poly, d_poly


def apply_family(polys: Sequence[DensityOperator], lifted: DensityOperator) -> DensityOperator:
    """A(L) P + B(L) P* + C(L) P(1) + D(L) P*(1) for polys = (A, B, C, D)."""
    a_poly, b_poly, c_poly, d_poly = polys
    lifted_adj = lifted.adjoint()
    out = a_poly @ lifted + b_poly @ lifted_adj
    if not c_poly.is_zero():
        out = out + c_poly * lifted.app1()
    if not d_poly.is_zero():
        out = out + d_poly * lifted_adj.app1()
    return out


def vol_lift(delta: DensityOperator, l0, rho: VolumeForm,
             params: VolLiftParams) -> DensityOperator:
    """Regular lifting family A(L) P + B(L) P* + C(L) P(1) + D(L) P*(1)."""
    _require_weight_free(delta)
    l0 = Scalar.of(l0)
    n = params.n
    if n < delta.total_order():
        raise OrderViolationError(
            f"parameter lists of length {n} cannot lift an order {delta.total_order()} operator")
    polys = family_polynomials(delta.dim, l0, n, params.b, params.c, params.d)
    return apply_family(polys, canonical_lift(delta, l0, rho))


def distinguished_coefficients(dim: int, l0: Scalar, n: int) -> Tuple[DensityOperator, ...]:
    """Family polynomials of the member with b = -1/(2 l0 - 1):
    A = (L + l0 - 1)/(2 l0 - 1) and B = +/-(l0 - L)/(2 l0 - 1)."""
    _require_not_half(l0)
    return family_polynomials(dim, l0, n, -ONE / (2 * l0 - 1))


def distinguished_lift(delta: DensityOperator, l0, rho: VolumeForm) -> DensityOperator:
    """The unique (anti-)self-adjoint point of the regular lifting line."""
    _require_weight_free(delta)
    l0 = Scalar.of(l0)
    _require_not_half(l0)   # before total_order, which rejects the zero operator
    polys = distinguished_coefficients(delta.dim, l0, delta.total_order())
    return apply_family(polys, canonical_lift(delta, l0, rho))


def sa_vertical_polynomials(dim: int, n: int, l0,
                            c: Sequence, d: Sequence
                            ) -> Tuple[DensityOperator, DensityOperator]:
    """Self-adjoint (n even) / anti-self-adjoint (n odd) vertical polynomials.

    Built from powers of t(L) = L - 1/2, which flips sign under the adjoint;
    both vanish at L = l0.
    """
    l0 = Scalar.of(l0)
    p = n % 2
    k_max = (n - p) // 2
    c = [Scalar.of(x) for x in c]
    d = [Scalar.of(x) for x in d]
    if len(c) > k_max or len(d) > k_max:
        raise OrderViolationError(f"at most {k_max} coefficients allowed for order {n}")

    t = DensityOperator.lam_poly(dim, [Scalar.of(Fraction(-1, 2)), ONE])
    t0 = l0 - HALF

    def build(coeffs):
        out = DensityOperator.zero(dim)
        t_pow = t @ t
        for k, ck in enumerate(coeffs, start=1):
            if not ck.is_zero():
                out = out + (t_pow - DensityOperator.identity(dim) * (t0 ** (2 * k))) * ck
            t_pow = t_pow @ t @ t
        if p:
            out = t @ out
        return out

    return build(c), build(d)


def first_order_lift(delta: DensityOperator, l0, c) -> DensityOperator:
    """Lie-derivative lift plus (1 + c (L - l0)) times the scalar remainder."""
    l0, c = Scalar.of(l0), Scalar.of(c)
    A, S = decompose_first_order(delta, l0)
    dim = delta.dim
    factor = DensityOperator.lam_poly(dim, [1 - c * l0, c])
    return lie_operator(dim, A) + factor * S


def decompose_first_order(delta: DensityOperator, l0
                          ) -> Tuple[List[DiffPolynomial], DiffPolynomial]:
    """Split A^i D_i + B into Lie derivative along A at weight l0 plus scalar."""
    _require_weight_free(delta)
    if not delta.is_zero() and delta.x_order() > 1:
        raise OrderTooHighError("operator must have order at most 1")
    l0 = Scalar.of(l0)
    comps = [delta.coefficient(0, (i,)) for i in range(1, delta.dim + 1)]
    div = DiffPolynomial.zero()
    for i, comp in enumerate(comps, start=1):
        div = div + comp.derive(i)
    remainder = delta.coefficient(0, ()) - div * l0
    return comps, remainder


def extract_geometric_data(delta: DensityOperator, l0) -> GeometricData:
    """Invert the second-order self-adjoint pencil conditions at weight l0."""
    _require_weight_free(delta)
    if not delta.is_zero() and delta.x_order() > 2:
        raise OrderTooHighError("operator must have order at most 2")
    l0 = Scalar.of(l0)
    _require_generic(l0)
    dim = delta.dim
    S = coefficient_tensors(delta).get(2, {})
    div_s = tensor_divergence(S, dim)
    den = 2 * l0 - 1
    zero = DiffPolynomial.zero()
    gamma = [(delta.coefficient(0, (i,)) - div_s.get((i,), zero)) * (ONE / den)
             for i in range(1, dim + 1)]

    div_gamma = zero
    for i, g in enumerate(gamma, start=1):
        div_gamma = div_gamma + g.derive(i)
    R = delta.coefficient(0, ())
    theta = (R - div_gamma * l0) * (ONE / (l0 * (l0 - 1)))
    return GeometricData(dim, S, tuple(gamma), theta, zero)


def assemble_self_adjoint_second_order(data: GeometricData) -> DensityOperator:
    """S D D + (div S) D + (2L - 1) gamma D + L div gamma + L(L-1) theta + F."""
    dim = data.dim
    div_s = tensor_divergence(data.S, dim)
    zero = DiffPolynomial.zero()
    terms = {}
    div_gamma = zero
    for i, g in enumerate(data.gamma, start=1):
        terms[(0, (i,))] = div_s.get((i,), zero) - g
        terms[(1, (i,))] = 2 * g
        div_gamma = div_gamma + g.derive(i)
    terms[(1, ())] = div_gamma - data.theta
    terms[(2, ())] = data.theta
    terms[(0, ())] = data.F
    return tensor_operator(data.S, dim) + DensityOperator(dim, terms)


def second_order_canonical_lift(delta: DensityOperator, l0) -> DensityOperator:
    """The unique normalized self-adjoint second-order pencil through delta."""
    return assemble_self_adjoint_second_order(extract_geometric_data(delta, l0))


def cocycle_rho(delta: DensityOperator, l0, rho: VolumeForm) -> DiffPolynomial:
    """theta - 2 gamma^i Gamma_i + S^{ij} Gamma_i Gamma_j for the volume's Gamma."""
    data = extract_geometric_data(delta, l0)
    out = data.theta
    for i in range(1, delta.dim + 1):
        gi = rho.gamma(i)
        if gi.is_zero():
            continue
        out = out - 2 * data.gamma[i - 1] * gi
        for j in range(1, delta.dim + 1):
            gj = rho.gamma(j)
            if not gj.is_zero():
                out = out + data.s_component(i, j) * gi * gj
    return out


def _divide_by_weight_shift(op: DensityOperator, l0: Scalar) -> DensityOperator:
    """Exact division of op by (L - l0); op must vanish at L = l0."""
    by_alpha: Dict[Tuple[int, ...], Dict[int, DiffPolynomial]] = {}
    for (r, alpha), c in op.terms.items():
        by_alpha.setdefault(alpha, {})[r] = c
    out: Dict[Tuple[int, Tuple[int, ...]], DiffPolynomial] = {}
    for alpha, coeffs in by_alpha.items():
        top = max(coeffs)
        # synthetic division by (L - l0), highest power first
        carry = DiffPolynomial.zero()
        for r in range(top, 0, -1):
            carry = coeffs.get(r, DiffPolynomial.zero()) + carry * l0
            if not carry.is_zero():
                out[(r - 1, alpha)] = carry
    return DensityOperator(op.dim, out)


def taylor_expand(op: DensityOperator, l0, rho: VolumeForm) -> List[DensityOperator]:
    """Coefficients [D0..Dn] with op = sum_k (L - l0)^k canonical_lift(Dk)."""
    l0 = Scalar.of(l0)
    coeffs = []
    remainder = op
    while True:
        dk = remainder.restrict(l0)
        coeffs.append(dk)
        remainder = remainder - canonical_lift(dk, l0, rho)
        if remainder.is_zero():
            break
        remainder = _divide_by_weight_shift(remainder, l0)
    return coeffs


def taylor_assemble(coeffs: Sequence[DensityOperator], l0, rho: VolumeForm) -> DensityOperator:
    l0 = Scalar.of(l0)
    if not coeffs:
        raise ValueError("need at least one Taylor coefficient")
    dim = coeffs[0].dim
    u = DensityOperator.lam_poly(dim, [-l0, ONE])
    out = DensityOperator.zero(dim)
    u_pow = DensityOperator.identity(dim)
    for dk in coeffs:
        _require_weight_free(dk)
        out = out + u_pow @ canonical_lift(dk, l0, rho)
        u_pow = u_pow @ u
    return out


def selfadjoint_family(delta0: DensityOperator, l0, rho: VolumeForm,
                       evens: Sequence[DensityOperator] = ()) -> DensityOperator:
    """All liftings of delta0 with adjoint = (-1)^n times themselves.

    Free data are the even Taylor coefficients around weight 1/2; the odd ones
    are forced.  With no even data this reduces to the distinguished lift.
    """
    _require_weight_free(delta0)
    l0 = Scalar.of(l0)
    _require_not_half(l0)
    n = delta0.total_order()
    dim = delta0.dim
    sign = Fraction((-1) ** n)
    den = 2 * l0 - 1

    evens = list(evens)
    for k, op in enumerate(evens, start=1):
        _require_weight_free(op)
        if not op.is_zero() and op.x_order() > n - 2 * k:
            raise OrderViolationError(
                f"even coefficient #{k} has order {op.x_order()} > {n - 2 * k}")

    # Taylor coefficients around 1/2: base operator rebased to half-densities
    d_half = canonical_lift(delta0, l0, rho).restrict(HALF)

    coeffs: Dict[int, DensityOperator] = {}
    for k, op in enumerate(evens, start=1):
        coeffs[2 * k] = op
    max_even = 2 * len(evens)
    for k in range(0, max_even // 2 + 1):
        even_cur = d_half if k == 0 else coeffs.get(2 * k, DensityOperator.zero(dim))
        even_next = coeffs.get(2 * k + 2, DensityOperator.zero(dim))
        odd = (even_cur - sign * even_cur.adjoint()) * (ONE / den)
        if not even_next.is_zero():
            odd = odd + (even_next + sign * even_next.adjoint()) * (den / 4)
        if not odd.is_zero():
            coeffs[2 * k + 1] = odd

    u = DensityOperator.lam_poly(dim, [-l0, ONE])              # L - l0
    t = DensityOperator.lam_poly(dim, [Scalar.of(Fraction(-1, 2)), ONE])  # L - 1/2
    inner = DensityOperator.zero(dim)
    t_pow = DensityOperator.identity(dim)
    for k in range(1, max(coeffs) + 1 if coeffs else 1):
        dk = coeffs.get(k)
        if dk is not None and not dk.is_zero():
            inner = inner + t_pow @ canonical_lift(dk, HALF, rho)
        t_pow = t_pow @ t
    return canonical_lift(delta0, l0, rho) + u @ inner


def limit_lift(delta: DensityOperator, rho: VolumeForm) -> DensityOperator:
    """Weight-0 limit of the canonical construction on normalized operators."""
    _require_weight_free(delta)
    if not delta.is_zero() and delta.x_order() > 2:
        raise OrderTooHighError("operator must have order at most 2")
    if not delta.app1().is_zero():
        raise NotNormalizedError("operator must annihilate the constant function")
    dim = delta.dim
    S = coefficient_tensors(delta).get(2, {})
    div_s = tensor_divergence(S, dim)
    zero = DiffPolynomial.zero()
    gamma = [div_s.get((i,), zero) - delta.coefficient(0, (i,)) for i in range(1, dim + 1)]

    # theta_rho = div gamma - div Gamma^ + gamma . Gamma with Gamma^i = S^{ij} Gamma_j
    theta = zero
    for i, g in enumerate(gamma, start=1):
        theta = theta + g.derive(i) + g * rho.gamma(i)
    for i in range(1, dim + 1):
        upper = zero
        for j in range(1, dim + 1):
            upper = upper + S.get((min(i, j), max(i, j)), zero) * rho.gamma(j)
        theta = theta - upper.derive(i)
    return assemble_self_adjoint_second_order(GeometricData(dim, S, tuple(gamma), theta, zero))


def is_regular_pair(lifted: DensityOperator, n: int) -> bool:
    return lifted.is_zero() or lifted.total_order() <= n


def is_strict_pair(delta: DensityOperator, lifted: DensityOperator) -> bool:
    if lifted.is_zero():
        return True
    return lifted.total_order() <= delta.total_order()
