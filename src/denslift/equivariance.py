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

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from . import lifting, projective
from .errors import DimensionTooSmallError, ExceptionalWeightError
from .jets import DiffPolynomial, JetSymbol
from .lifting import (
    VolLiftParams,
    VolumeForm,
    apply_family,
    canonical_lift,
    distinguished_coefficients,
    family_polynomials,
)
from .operators import (
    DensityOperator,
    ad_vf,
    coefficient_tensors,
    generic_second_order,
    tensor_divergence,
    tensor_operator,
)
from .scalars import HALF, ONE, ZERO, Scalar

VectorField = Sequence[DiffPolynomial]


def divergence(components: VectorField, rho: VolumeForm) -> DiffPolynomial:
    """div_rho X = d_i X^i + X^i d_i log rho."""
    out = DiffPolynomial.zero()
    log_jet = rho.log_density()
    for i, comp in enumerate(components, start=1):
        out = out + comp.derive(i)
        if not rho.is_coordinate:
            out = out + comp * log_jet.derive(i)
    return out


def ad_weight(components: VectorField, op: DensityOperator, l0) -> DensityOperator:
    """Action of the field on an operator given at a fixed weight."""
    return ad_vf(components, op).restrict(l0)


@dataclass(frozen=True)
class LiftingHandle:
    """A lifting map reified so its own Lie derivative can be formed.

    ``lift`` computes the map; ``kind`` and ``params`` name it for code that
    models it independently (perfbench's sympy oracle).  Each closure looks
    its lifting function up on the module when called, so wrappers installed
    on the module after the handle was built still see the call.
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


def volume_variation(kind: str, delta: DensityOperator, l0, rho: VolumeForm,
                     h: DiffPolynomial,
                     params: Optional[VolLiftParams] = None) -> DensityOperator:
    """First-order response of the lifting to rho -> rho (1 + h).

    The canonical lift varies by (L - l0)[h, P(D)]; adjoint and vertical
    pieces of the family vary by the adjoint and the evaluation of that same
    commutator.
    """
    l0 = Scalar.of(l0)
    dim = delta.dim
    n = delta.total_order()
    lifted = canonical_lift(delta, l0, rho)
    h_op = DensityOperator.function(dim, h)
    core = DensityOperator.lam_poly(dim, [-l0, ONE]) @ h_op.commutator(lifted)
    if kind == "canonical":
        polys = family_polynomials(dim, l0, n, ZERO)
    elif kind == "distinguished":
        polys = distinguished_coefficients(dim, l0, n)
    elif kind == "vol":
        polys = family_polynomials(dim, l0, params.n, params.b, params.c, params.d)
    else:
        raise ValueError(f"no variation formula for lifting kind {kind!r}")
    return apply_family(polys, core)


def check_adX_variation_identity(delta: DensityOperator, l0, rho: VolumeForm,
                                 components: VectorField, kind: str = "canonical",
                                 params: Optional[VolLiftParams] = None) -> bool:
    """ad_X of the lifting equals its volume variation at delta rho = rho div X."""
    l0 = Scalar.of(l0)
    if kind == "canonical":
        handle = LiftingHandle.canonical(l0, rho)
    elif kind == "vol":
        handle = LiftingHandle.vol(l0, rho, params)
    elif kind == "distinguished":
        handle = LiftingHandle.distinguished(l0, rho)
    else:
        raise ValueError(f"identity check undefined for kind {kind!r}")
    lhs = ad_on_lifting(handle, delta, components)
    rhs = volume_variation(kind, delta, l0, rho, divergence(components, rho), params)
    return lhs == rhs


@dataclass(frozen=True)
class DivFreeField:
    """Generic vector field with the divergence constraint solved for axis dim."""

    dim: int
    components: Tuple[DiffPolynomial, ...]

    def rewrite(self, sym: JetSymbol) -> Optional[DiffPolynomial]:
        if sym.base != "X" or sym.upper != (self.dim,) or self.dim not in sym.lower:
            return None
        rest = list(sym.lower)
        rest.remove(self.dim)
        out = DiffPolynomial.zero()
        for j in range(1, self.dim):
            out = out - DiffPolynomial.of_symbol(
                JetSymbol("X", (j,), tuple(rest) + (j,)))
        return out

    def reduce(self, obj):
        if isinstance(obj, DiffPolynomial):
            return obj.substitute_jets(self.rewrite)
        return obj.map_coefficients(lambda c: c.substitute_jets(self.rewrite))


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
    div_s = tensor_divergence(S, dim)
    terms = {(0, (k,)): div_s.get((k,), zero) * a2 + T.get((k,), zero) * b1
             for k in range(1, dim + 1)}
    terms[(0, ())] = (tensor_divergence(div_s, dim).get((), zero) * a3
                      + tensor_divergence(T, dim).get((), zero) * b2
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


@dataclass(frozen=True)
class DivFreeTensor:
    """Generic symmetric rank-k tensor, optionally divergenceless."""

    dim: int
    rank: int
    constrained: bool = True
    base: str = "S"

    def operator(self) -> DensityOperator:
        if self.rank == 0:
            return DensityOperator.function(self.dim, DiffPolynomial.jet(self.base))
        terms = {}
        for idx in _tuples(self.dim, self.rank):
            key = (0, tuple(sorted(idx)))
            add = DiffPolynomial.jet(self.base, idx)
            prev = terms.get(key)
            terms[key] = add if prev is None else prev + add
        return DensityOperator(self.dim, terms)

    def rewrite(self, sym: JetSymbol) -> Optional[DiffPolynomial]:
        if not self.constrained or sym.base != self.base:
            return None
        if self.dim not in sym.upper or self.dim not in sym.lower:
            return None
        upper_rest = list(sym.upper)
        upper_rest.remove(self.dim)
        lower_rest = list(sym.lower)
        lower_rest.remove(self.dim)
        out = DiffPolynomial.zero()
        for j in range(1, self.dim):
            out = out - DiffPolynomial.of_symbol(
                JetSymbol(self.base, tuple(upper_rest) + (j,), tuple(lower_rest) + (j,)))
        return out

    def reduce(self, obj):
        if isinstance(obj, DiffPolynomial):
            return obj.substitute_jets(self.rewrite)
        return obj.map_coefficients(lambda cf: cf.substitute_jets(self.rewrite))


def _tuples(dim, rank):
    if rank == 0:
        yield ()
        return
    for rest in _tuples(dim, rank - 1):
        for i in range(1, dim + 1):
            yield rest + (i,)


def divfree_tensor_lift_check(tensor: DivFreeTensor, l0) -> bool:
    """Whether the signed distinguished lift of the tensor operator is
    equivariant along a generic (unconstrained) field, modulo the constraint."""
    l0 = Scalar.of(l0)
    if l0 == HALF:
        raise ExceptionalWeightError("exceptional weight 1/2")
    delta = tensor.operator()
    rho = VolumeForm.coordinate()
    handle = LiftingHandle.distinguished(l0, rho)
    X = [DiffPolynomial.jet("X", (i,)) for i in range(1, tensor.dim + 1)]
    defect = ad_on_lifting(handle, delta, X)
    return tensor.reduce(defect).is_zero()
