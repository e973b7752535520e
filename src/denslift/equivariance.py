"""Infinitesimal equivariance machinery.

Equivariance of a lifting map along a vector field is measured by the defect
ad_X(h(D)) - h(ad_X D); for volume-form liftings the same defect is produced
by varying the volume along the flow, which is what ties the distinguished
(anti-)self-adjoint member to coordinate independence.  Divergence-free
fields and divergenceless tensors are modeled generically, with the linear
constraint and all its prolongations solved by eliminating the jets of the
last axis.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from . import lifting, projective
from .errors import DimensionTooSmallError
from .jets import DiffPolynomial, JetSymbol
from .lifting import (
    VolLiftParams,
    VolumeForm,
    apply_family,
    canonical_lift,
    distinguished_coefficients,
    vol_family,
)
from .operators import (
    DensityOperator,
    ad_vf,
    coefficient_tensors,
    generic_second_order,
    generic_tensor,
    tensor_divergence,
    tensor_operator,
    vector_divergence,
)
from .scalars import ZERO, Scalar

VectorField = Sequence[DiffPolynomial]


def divergence(components: VectorField, rho: VolumeForm) -> DiffPolynomial:
    """div_rho X = d_i X^i - X^i Gamma_i, with Gamma_i = -d_i log rho."""
    out = vector_divergence(components)
    if not rho.is_coordinate:
        for i, comp in enumerate(components, start=1):
            out = out - comp * rho.gamma(i)
    return out


def ad_weight(components: VectorField, op: DensityOperator, l0) -> DensityOperator:
    """Action of the field on an operator given at a fixed weight."""
    return ad_vf(components, op).restrict(l0)


class LiftingHandle(NamedTuple):
    """A lifting map reified so its own Lie derivative can be formed.

    ``lift`` computes the map; ``kind`` and ``params`` name it for code that
    models it independently (perfbench's sympy oracle).  Each closure looks
    its lifting function up on the module when called, so wrappers installed
    on the module after the handle was built still see the call.  A
    NamedTuple that iterates as, and equals, the plain tuple
    (kind, l0, lift, params).
    """

    kind: str
    l0: Scalar
    lift: Callable[[DensityOperator], DensityOperator]
    params: Optional[VolLiftParams] = None

    @staticmethod
    def canonical(l0, rho: VolumeForm) -> "LiftingHandle":
        l0 = Scalar.of(l0)
        return LiftingHandle("canonical", l0, lambda d: lifting.canonical_lift(d, l0, rho))

    @staticmethod
    def vol(l0, rho: VolumeForm, params: VolLiftParams) -> "LiftingHandle":
        l0 = Scalar.of(l0)
        return LiftingHandle("vol", l0, lambda d: lifting.vol_lift(d, l0, rho, params), params)

    @staticmethod
    def distinguished(l0, rho: VolumeForm) -> "LiftingHandle":
        l0 = Scalar.of(l0)
        return LiftingHandle("distinguished", l0,
                             lambda d: lifting.distinguished_lift(d, l0, rho))

    @staticmethod
    def first_order(l0, c) -> "LiftingHandle":
        l0, c = Scalar.of(l0), Scalar.of(c)
        return LiftingHandle("first_order", l0, lambda d: lifting.first_order_lift(d, l0, c))

    @staticmethod
    def second_order_canonical(l0) -> "LiftingHandle":
        l0 = Scalar.of(l0)
        return LiftingHandle("second_order_canonical", l0,
                             lambda d: lifting.second_order_canonical_lift(d, l0))

    @staticmethod
    def proj(l0) -> "LiftingHandle":
        l0 = Scalar.of(l0)
        return LiftingHandle("proj", l0, lambda d: projective.proj_lift(d, l0))

    @staticmethod
    def proj_regular(l0, weight_polys) -> "LiftingHandle":
        l0 = Scalar.of(l0)
        polys = [tuple(p) for p in weight_polys]
        return LiftingHandle("proj_regular", l0,
                             lambda d: projective.proj_regular_lift(d, l0, polys))

    def __call__(self, delta: DensityOperator) -> DensityOperator:
        return self.lift(delta)


def ad_on_lifting(handle: LiftingHandle, delta: DensityOperator,
                  components: VectorField) -> DensityOperator:
    """Defect ad_X(h(D)) - h(ad_X D); zero iff h is equivariant at D along X."""
    lifted = handle(delta)
    moved = ad_weight(components, delta, handle.l0)
    return ad_vf(components, lifted) - handle(moved)


# parity n and parameters (b, c, d) of each kind with a volume variation, at delta's order
_FAMILIES = {
    "canonical": lambda d, l0, p: (d.total_order(), ZERO),
    "distinguished": lambda d, l0, p: (d.total_order(), *distinguished_coefficients(l0)),
    "vol": lambda d, l0, p: (p.n, *vol_family(d, p)),
}


def volume_variation(kind: str, delta: DensityOperator, l0, rho: VolumeForm,
                     h: DiffPolynomial,
                     params: Optional[VolLiftParams] = None) -> DensityOperator:
    """First-order response of the lifting to rho -> rho (1 + h).

    The canonical lift varies by (L - l0)[h, P(D)]; adjoint and vertical
    pieces of the family vary by the adjoint and the evaluation of that same
    commutator.
    """
    l0 = Scalar.of(l0)
    if kind not in _FAMILIES:
        raise ValueError(f"no variation formula for lifting kind {kind!r}")
    fam = _FAMILIES[kind](delta, l0, params)
    commutator = DensityOperator.function(delta.dim, h).commutator(canonical_lift(delta, l0, rho))
    return apply_family(DensityOperator.lam_poly(delta.dim, [ZERO, commutator], l0), l0, *fam)


def check_adX_variation_identity(delta: DensityOperator, l0, rho: VolumeForm,
                                 components: VectorField, kind: str = "canonical",
                                 params: Optional[VolLiftParams] = None) -> bool:
    """ad_X of the lifting equals its volume variation at delta rho = rho div X.
    Both sides use the family of delta's order, also where ad_X lowers it."""
    l0 = Scalar.of(l0)
    if kind not in _FAMILIES:
        raise ValueError(f"identity check undefined for kind {kind!r}")
    fam = _FAMILIES[kind](delta, l0, params)
    handle = LiftingHandle(kind, l0, lambda d: apply_family(canonical_lift(d, l0, rho), l0, *fam))
    lhs = ad_on_lifting(handle, delta, components)
    rhs = volume_variation(kind, delta, l0, rho, divergence(components, rho), params)
    return lhs == rhs


class DivFreeField(NamedTuple):
    """Generic vector field with the divergence constraint solved for axis dim;
    a NamedTuple that iterates as, and equals, the plain tuple (dim, components)."""

    dim: int
    components: Tuple[DiffPolynomial, ...]

    def reduce(self, obj):
        return _eliminate_divergence(obj, "X", self.dim)


def generic_divfree_field(dim: int) -> DivFreeField:
    """Generic jet components X^i with d_i X^i = 0 imposed by elimination.

    Jets here are symbolic and closed under prolongation, so the substitution
    covers the constraint's prolongations to all orders.
    """
    if dim < 2:
        raise DimensionTooSmallError("divergence constraint needs dim >= 2")
    comps = tuple(DiffPolynomial.jet("X", (i,)) for i in range(1, dim + 1))
    return DivFreeField(dim, comps)


def sdiff_basis_map(op: DensityOperator, a1, a2, a3, b1, b2, c) -> DensityOperator:
    """F(D) = a1 S dd + a2 (div S) d + a3 div div S + b1 T d + b2 div T + c R."""
    a1, a2, a3, b1, b2, c = (Scalar.of(v) for v in (a1, a2, a3, b1, b2, c))
    dim = op.dim
    zero = DiffPolynomial.zero()
    tensors = coefficient_tensors(op)
    S, T = tensors.get(2, {}), tensors.get(1, {})
    div_s = tensor_divergence(S)
    terms = {(0, (k,)): div_s.get((k,), zero) * a2 + T.get((k,), zero) * b1
             for k in range(1, dim + 1)}
    terms[(0, ())] = (tensor_divergence(div_s).get((), zero) * a3
                      + tensor_divergence(T).get((), zero) * b2
                      + tensors.get(0, {}).get((), zero) * c)
    return tensor_operator(S, dim) * a1 + DensityOperator(dim, terms)


def classify_sdiff_map(a1, a2, a3, b1, b2, c, dim: int) -> DensityOperator:
    """Equivariance residual of the coefficient map along a generic
    divergence-free field; zero exactly on the b1 = a1 - a2, b2 = -a3 plane."""
    if dim < 3:
        raise DimensionTooSmallError("classification needs dim >= 3")
    delta = generic_second_order(dim)
    X = generic_divfree_field(dim)

    def fmap(op):
        return sdiff_basis_map(op, a1, a2, a3, b1, b2, c)

    moved = ad_weight(X.components, delta, 0)
    residual = ad_weight(X.components, fmap(delta), 0) - fmap(moved)
    return X.reduce(residual)


class DivFreeTensor(NamedTuple):
    """Generic symmetric rank-k tensor S, optionally divergenceless; a
    NamedTuple that iterates as, and equals, the plain tuple (dim, rank, constrained)."""

    dim: int
    rank: int
    constrained: bool = True

    def operator(self) -> DensityOperator:
        """S^{i1..ik} D_i1..D_ik summed over all index tuples."""
        return tensor_operator(generic_tensor("S", self.dim, self.rank), self.dim)

    def reduce(self, obj):
        return _eliminate_divergence(obj, "S", self.dim) if self.constrained else obj


def _eliminate_divergence(obj, base: str, dim: int):
    """Impose d_p base^{p i2..ik} = 0 and its prolongations on a polynomial or
    operator: every jet with the last axis both as an upper index and as a
    derivative becomes minus the sum of its partners over the other axes."""

    def rewrite(sym: JetSymbol) -> Optional[DiffPolynomial]:
        if sym.base != base or dim not in sym.upper or dim not in sym.lower:
            return None
        upper, lower = list(sym.upper), list(sym.lower)
        upper.remove(dim)
        lower.remove(dim)
        return -sum((DiffPolynomial.jet(base, upper + [j], lower + [j]) for j in range(1, dim)),
                    DiffPolynomial.zero())

    if isinstance(obj, DiffPolynomial):
        return obj.substitute_jets(rewrite)
    return obj.map_coefficients(lambda c: c.substitute_jets(rewrite))


def divfree_tensor_lift_check(tensor: DivFreeTensor, l0) -> bool:
    """Whether the signed distinguished lift of the tensor operator is
    equivariant along a generic (unconstrained) field, modulo the constraint.
    The distinguished lift rejects the exceptional weight 1/2."""
    delta = tensor.operator()
    rho = VolumeForm.coordinate()
    handle = LiftingHandle.distinguished(l0, rho)
    X = [DiffPolynomial.jet("X", (i,)) for i in range(1, tensor.dim + 1)]
    defect = ad_on_lifting(handle, delta, X)
    return tensor.reduce(defect).is_zero()
