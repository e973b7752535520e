"""Volume-form liftings of operators to the density algebra.

Everything here draws a pencil through an operator given at one base weight:
the canonical lift conjugates by powers of a volume form (partials pick up
(L - l0) * Gamma_i corrections with the flat connection Gamma_i of the
volume), the regular family dresses that with adjoint and vertical terms, and
the distinguished member is the unique (anti-)self-adjoint point of the line.
``apply_family`` builds each member from its parameters (b, c, d) and parity n
in closed form, as one polynomial in L - l0 with operator coefficients.
Second-order operators get their geometric classification (tensor, upper
connection, scale function) and the associated canonical self-adjoint pencil.
"""

from __future__ import annotations

from math import comb
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    ExceptionalWeightError,
    NotNormalizedError,
    OrderTooHighError,
    OrderViolationError,
)
from .jets import DiffPolynomial, REGISTRY
from .operators import (
    Density,
    DensityOperator,
    Tensor,
    coefficient_tensors,
    lie_operator,
    tensor_divergence,
    tensor_operator,
    vector_divergence,
)
from .scalars import HALF, ONE, Scalar, ZERO, collect

REGISTRY.ensure("ell")


class VolumeForm(NamedTuple):
    """Volume structure through the jet of log rho; Gamma_i = -d_i(log rho).
    ``ell`` names that jet, None for the coordinate volume."""

    ell: Optional[str] = None

    @staticmethod
    def coordinate() -> "VolumeForm":
        return VolumeForm(None)

    @staticmethod
    def generic() -> "VolumeForm":
        return VolumeForm("ell")

    @property
    def is_coordinate(self) -> bool:
        return self.ell is None

    def gamma(self, axis: int) -> DiffPolynomial:
        if self.ell is None:
            return DiffPolynomial.zero()
        return -DiffPolynomial.jet(self.ell, (), (axis,))


class VolLiftParams(NamedTuple("VolLiftParams", [("b", Scalar), ("c", Tuple[Scalar, ...]),
                                                  ("d", Tuple[Scalar, ...])])):
    """Parameters (b, c_1..c_n, d_1..d_n) of the regular lifting family; a
    NamedTuple that iterates as, and equals, the plain tuple (b, c, d).
    ``_replace`` and ``_make`` skip the length check; nothing calls them."""

    __slots__ = ()

    def __new__(cls, b: Scalar, c: Tuple[Scalar, ...], d: Tuple[Scalar, ...]):
        if len(c) != len(d):
            raise ValueError("c and d parameter lists must have equal length")
        return super().__new__(cls, b, c, d)

    @property
    def n(self) -> int:
        return len(self.c)

    @staticmethod
    def of(b, c: Sequence, d: Sequence) -> "VolLiftParams":
        return VolLiftParams(Scalar.of(b), tuple(Scalar.of(x) for x in c),
                             tuple(Scalar.of(x) for x in d))


class GeometricData(NamedTuple):
    """Classifying data (S^{ij}, gamma^i, theta) of the self-adjoint pencil
    S D D + (div S) D + (2L - 1) gamma D + L div gamma + L(L - 1) theta."""

    dim: int
    S: Tensor   # symmetric: nonzero components, sorted keys
    gamma: Tuple[DiffPolynomial, ...]
    theta: DiffPolynomial


def _reject_weights(l0: Scalar, *weights: Scalar):
    """Reject the base weights at which a construction's denominators vanish."""
    for bad in weights:
        if l0 == bad:
            raise ExceptionalWeightError(f"exceptional weight {bad}")


def _require_order(delta: DensityOperator, n: int):
    """Weight-free, then of order at most n."""
    delta.require_weight_free()
    if delta.x_order() > n:
        raise OrderTooHighError(f"operator must have order at most {n}")


def _require_second_order(delta: DensityOperator, l0) -> Scalar:
    """Weight-free, of order at most 2, at a base weight other than 0, 1/2
    and 1, checked in that order; returns l0 as a Scalar."""
    _require_order(delta, 2)
    l0 = Scalar.of(l0)
    _reject_weights(l0, ZERO, HALF, ONE)
    return l0


def covariant_partials(dim: int, l0: Scalar, rho: VolumeForm,
                       sign: int = 1) -> List[DensityOperator]:
    """The replacement operators nabla_i = D_i + sign (L - l0) Gamma_i: sign +1
    lifts, sign -1 undoes the lift."""
    return [DensityOperator.lam_poly(dim, [DensityOperator.partial(dim, i),
                                           sign * rho.gamma(i)], l0)
            for i in range(1, dim + 1)]


def canonical_lift(delta: DensityOperator, l0, rho: VolumeForm) -> DensityOperator:
    """Conjugation by rho^(L - l0): every D_i becomes D_i + (L - l0) Gamma_i."""
    delta.require_weight_free()
    l0 = Scalar.of(l0)
    if rho.is_coordinate:
        return delta
    return delta.substitute_partials(covariant_partials(delta.dim, l0, rho))


def apply_family(lifted: DensityOperator, l0: Scalar, n: int, b: Scalar,
                 c: Sequence[Scalar] = (), d: Sequence[Scalar] = ()) -> DensityOperator:
    """A(L) P + B(L) P* + C(L) P(1) + D(L) P*(1) with A = 1 - b u, B = (-1)^n b u,
    C = sum_k c_k u^k and D = sum_k d_k u^k in u = L - l0: the polynomial in u
    with coefficients P, -b (P - (-1)^n P*) + c_1 P(1) + d_1 P*(1), c_2 P(1) + ..."""
    coeffs = [lifted] + [DensityOperator.zero(lifted.dim)] * max(len(c), 1)
    adjoint = None if b.is_zero() and all(dk.is_zero() for dk in d) else lifted.adjoint()
    if not b.is_zero():
        coeffs[1] = (lifted + adjoint if n % 2 else lifted - adjoint) * -b
    for ks, op in ((c, lifted), (d, adjoint)):
        for k, kk in enumerate(ks, start=1):
            if not kk.is_zero():
                coeffs[k] = coeffs[k] + DensityOperator.function(lifted.dim, op.app1() * kk)
    return DensityOperator.lam_poly(lifted.dim, coeffs, l0)


def vol_lift(delta: DensityOperator, l0, rho: VolumeForm,
             params: VolLiftParams) -> DensityOperator:
    """The member of the regular lifting family with params."""
    delta.require_weight_free()
    l0 = Scalar.of(l0)
    b, c, d = vol_family(delta, params)
    return apply_family(canonical_lift(delta, l0, rho), l0, params.n, b, c, d)


def vol_family(delta: DensityOperator, params: VolLiftParams) -> VolLiftParams:
    """params, whose lists must cover delta's order."""
    if params.n < delta.total_order():
        raise OrderViolationError(f"parameter lists of length {params.n} cannot lift "
                                  f"an order {delta.total_order()} operator")
    return params


def distinguished_coefficients(l0: Scalar) -> VolLiftParams:
    """Parameters of the distinguished member, b = -1/(2 l0 - 1) and no vertical
    terms: A = (L + l0 - 1)/(2 l0 - 1) and B = +/-(l0 - L)/(2 l0 - 1)."""
    _reject_weights(l0, HALF)
    return VolLiftParams(ONE / (1 - 2 * l0), (), ())


def distinguished_lift(delta: DensityOperator, l0, rho: VolumeForm) -> DensityOperator:
    """The unique (anti-)self-adjoint point of the regular lifting line: the
    member of the self-adjoint family with no free data."""
    return selfadjoint_family(delta, l0, rho)


def even_t_family(dim: int, l0: Scalar, coeffs: Sequence) -> DensityOperator:
    """sum_k c_k (t^{2k}(L) - t^{2k}(l0)) with t(L) = L - 1/2, which the adjoint
    maps to -t(L): self-adjoint and zero at L = l0."""
    t0 = l0 - HALF
    poly = [ZERO]
    for k, ck in enumerate(coeffs, start=1):
        ck = Scalar.of(ck)
        poly[0] = poly[0] - ck * t0 ** (2 * k)
        poly += [ZERO, ck]
    return DensityOperator.lam_poly(dim, poly, HALF)


def sa_vertical_polynomials(dim: int, n: int, l0,
                            c: Sequence, d: Sequence
                            ) -> Tuple[DensityOperator, DensityOperator]:
    """Self-adjoint (n even) / anti-self-adjoint (n odd) vertical polynomials:
    the even t-family, times t(L) when n is odd; both vanish at L = l0."""
    l0 = Scalar.of(l0)
    k_max = n // 2
    if len(c) > k_max or len(d) > k_max:
        raise OrderViolationError(f"at most {k_max} coefficients allowed for order {n}")
    odd = [ZERO] * (n % 2)
    return tuple(DensityOperator.lam_poly(dim, odd + [even_t_family(dim, l0, coeffs)], HALF)
                 for coeffs in (c, d))


def first_order_lift(delta: DensityOperator, l0, c) -> DensityOperator:
    """Lie-derivative lift plus (1 + c (L - l0)) times the scalar remainder."""
    l0, c = Scalar.of(l0), Scalar.of(c)
    A, S = decompose_first_order(delta, l0)
    dim = delta.dim
    factor = DensityOperator.lam_poly(dim, [ONE, c], l0)
    return lie_operator(dim, A) + factor * S


def decompose_first_order(delta: DensityOperator, l0
                          ) -> Tuple[List[DiffPolynomial], DiffPolynomial]:
    """Split A^i D_i + B into Lie derivative along A at weight l0 plus scalar."""
    _require_order(delta, 1)
    l0 = Scalar.of(l0)
    comps = [delta.coefficient(0, (i,)) for i in range(1, delta.dim + 1)]
    remainder = delta.coefficient(0, ()) - vector_divergence(comps) * l0
    return comps, remainder


def _tensor_and_connection(delta: DensityOperator,
                           l0: Scalar) -> Tuple[Tensor, Tuple[DiffPolynomial, ...]]:
    """S and gamma = (T - div S)/(2 l0 - 1) of S^{ij} D_i D_j + T^i D_i + R."""
    S = coefficient_tensors(delta).get(2, {})
    div_s = tensor_divergence(S)
    zero, scale = DiffPolynomial.zero(), ONE / (2 * l0 - 1)
    return S, tuple((delta.coefficient(0, (i,)) - div_s.get((i,), zero)) * scale
                    for i in range(1, delta.dim + 1))


def extract_geometric_data(delta: DensityOperator, l0) -> GeometricData:
    """Invert the second-order self-adjoint pencil conditions at weight l0."""
    l0 = _require_second_order(delta, l0)
    S, gamma = _tensor_and_connection(delta, l0)
    R = delta.coefficient(0, ())
    theta = (R - vector_divergence(gamma) * l0) * (ONE / (l0 * (l0 - 1)))
    return GeometricData(delta.dim, S, gamma, theta)


def assemble_self_adjoint_second_order(data: GeometricData) -> DensityOperator:
    """S D D + (div S) D + (2L - 1) gamma D + L div gamma + L(L-1) theta."""
    dim = data.dim
    div_s = tensor_divergence(data.S)
    zero = DiffPolynomial.zero()
    terms = {}
    for i, g in enumerate(data.gamma, start=1):
        terms[(0, (i,))] = div_s.get((i,), zero) - g
        terms[(1, (i,))] = 2 * g
    terms[(1, ())] = vector_divergence(data.gamma) - data.theta
    terms[(2, ())] = data.theta
    return tensor_operator(data.S, dim) + DensityOperator(dim, terms)


def second_order_canonical_lift(delta: DensityOperator, l0) -> DensityOperator:
    """The unique normalized self-adjoint second-order pencil through delta."""
    return assemble_self_adjoint_second_order(extract_geometric_data(delta, l0))


def cocycle_rho(delta: DensityOperator, l0, rho: VolumeForm) -> DiffPolynomial:
    """theta - 2 gamma^i Gamma_i + S^{ij} Gamma_i Gamma_j for the volume's Gamma."""
    data = extract_geometric_data(delta, l0)
    Gamma = [rho.gamma(i) for i in range(1, data.dim + 1)]
    out = data.theta
    for g, G in zip(data.gamma, Gamma):
        out = out - 2 * g * G
    # S is keyed by sorted pairs: an off-diagonal component stands for two
    for (i, j), s in data.S.items():
        out = out + (1 if i == j else 2) * s * Gamma[i - 1] * Gamma[j - 1]
    return out


def taylor_expand(op: DensityOperator, l0, rho: VolumeForm) -> List[DensityOperator]:
    """Coefficients [D0..Dn] with op = sum_k (L - l0)^k canonical_lift(Dk): undo
    the lift once, then expand L^r = sum_k C(r, k) l0^(r-k) (L - l0)^k."""
    l0 = Scalar.of(l0)
    if not rho.is_coordinate:
        op = op.substitute_partials(covariant_partials(op.dim, l0, rho, -1))
    top = op.lam_degree()
    l0_pows = [l0 ** j for j in range(top + 1)]
    shifted = collect(((k, alpha), c * (comb(r, k) * l0_pows[r - k]))
                      for (r, alpha), c in op.terms.items() for k in range(r + 1))
    return [DensityOperator(op.dim, {(0, alpha): c for (j, alpha), c in shifted.items() if j == k})
            for k in range(top + 1)]


def taylor_assemble(coeffs: Sequence[DensityOperator], l0, rho: VolumeForm) -> DensityOperator:
    """sum_k (L - l0)^k canonical_lift(Dk) for coeffs = [D0..Dn]."""
    l0 = Scalar.of(l0)
    if not coeffs:
        raise ValueError("need at least one Taylor coefficient")
    return DensityOperator.lam_poly(coeffs[0].dim,
                                    [canonical_lift(dk, l0, rho) for dk in coeffs], l0)


def selfadjoint_family(delta0: DensityOperator, l0, rho: VolumeForm,
                       evens: Sequence[DensityOperator] = ()) -> DensityOperator:
    """All liftings of delta0 with adjoint = (-1)^n times themselves.

    Free data are the even Taylor coefficients E_k around weight 1/2; the odd
    ones are forced.  With t = L - 1/2, the member is the distinguished map
    A(L) Q + B(L) Q* = Q + (L - l0) (Q - (-1)^n Q*)/(2 l0 - 1) applied to
    Q = canonical_lift(delta0) + sum_k t^(2k-2) (t^2 - t(l0)^2) canonical_lift(E_k, 1/2),
    each added pencil even in t and zero at l0.  With no even data it is the
    distinguished lift.
    """
    delta0.require_weight_free()
    l0 = Scalar.of(l0)
    member = distinguished_coefficients(l0)
    n = delta0.total_order()
    pencil = canonical_lift(delta0, l0, rho)
    for k, op in enumerate(evens, start=1):
        op.require_weight_free()
        if op.x_order() > n - 2 * k:
            raise OrderViolationError(
                f"even coefficient #{k} has order {op.x_order()} > {n - 2 * k}")
        vanishing = [ZERO] * (2 * k - 2) + [-(l0 - HALF) ** 2, ZERO, ONE]
        pencil = pencil + (DensityOperator.lam_poly(pencil.dim, vanishing, HALF)
                           @ canonical_lift(op, HALF, rho))
    return apply_family(pencil, l0, n, *member)


def limit_lift(delta: DensityOperator, rho: VolumeForm) -> DensityOperator:
    """Weight-0 limit of the canonical construction on normalized operators.

    Here gamma = div S - T and theta_rho = div gamma + delta(log rho): for
    normalized delta, -div(S Gamma) + gamma . Gamma with Gamma = -d log rho
    is S^{ij} (log rho)_{,ij} + T^i (log rho)_{,i}, which is delta(log rho).
    """
    _require_order(delta, 2)
    if not delta.app1().is_zero():
        raise NotNormalizedError("operator must annihilate the constant function")
    S, gamma = _tensor_and_connection(delta, ZERO)
    theta = vector_divergence(gamma)
    if not rho.is_coordinate:
        theta = theta + delta.apply(Density(DiffPolynomial.jet(rho.ell), ZERO)).coeff
    return assemble_self_adjoint_second_order(GeometricData(delta.dim, S, gamma, theta))


def is_regular_pair(lifted: DensityOperator, n: int) -> bool:
    return lifted.total_order() <= n


def is_strict_pair(delta: DensityOperator, lifted: DensityOperator) -> bool:
    return lifted.total_order() <= delta.total_order()
