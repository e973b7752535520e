"""Normal-ordered weight-0 operators on the algebra of densities.

An operator is a finite sum  sum_(r,alpha) c_{r,alpha}(x) L^r D^alpha  with
coefficient functions to the left, powers of the weight generator L (which
multiplies a density by its weight and is central here) in the middle, and
symmetric derivative multi-indices D^alpha on the right.  Composition
normal-orders via the Leibniz rule; the adjoint is the formal integration-by-
parts anti-automorphism generated by L* = 1 - L, D* = -D, f* = f.

All values are immutable by convention and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    HasWeightOperatorError,
    ZeroOperatorError,
)
from .jets import DiffPolynomial
from .scalars import Scalar, render_sum

TermKey = Tuple[int, Tuple[int, ...]]


@dataclass(frozen=True)
class Density:
    """Coefficient function together with a (possibly formal) weight."""

    coeff: DiffPolynomial
    weight: Scalar

    def __mul__(self, other: "Density") -> "Density":
        # product of densities adds weights
        return Density(self.coeff * other.coeff, self.weight + other.weight)


class DensityOperator:
    """Finite map (weight-power, derivative multi-index) -> coefficient."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Optional[Dict[TermKey, DiffPolynomial]] = None):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = dim
        self.terms = {}
        for (r, alpha), coeff in (terms or {}).items():
            alpha = tuple(sorted(alpha))
            if r < 0 or alpha and (alpha[0] < 1 or alpha[-1] > dim):
                raise ValueError(f"term key {(r, alpha)}: need a weight power >= 0 "
                                 f"and axes in 1..{dim}")
            if not coeff.is_zero():
                self.terms[(r, alpha)] = coeff

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "DensityOperator":
        return DensityOperator(dim)

    @staticmethod
    def identity(dim: int) -> "DensityOperator":
        return DensityOperator(dim, {(0, ()): DiffPolynomial.const(1)})

    @staticmethod
    def function(dim: int, f) -> "DensityOperator":
        if isinstance(f, (int, Fraction, Scalar)):
            f = DiffPolynomial.const(f)
        return DensityOperator(dim, {(0, ()): f})

    @staticmethod
    def partial(dim: int, axis: int) -> "DensityOperator":
        if not 1 <= axis <= dim:
            raise ValueError(f"axis {axis} outside 1..{dim}")
        return DensityOperator(dim, {(0, (axis,)): DiffPolynomial.const(1)})

    @staticmethod
    def weight(dim: int) -> "DensityOperator":
        return DensityOperator(dim, {(1, ()): DiffPolynomial.const(1)})

    @staticmethod
    def lam_poly(dim: int, coeffs: Sequence) -> "DensityOperator":
        """Vertical polynomial sum_r coeffs[r] * L^r."""
        terms: Dict[TermKey, DiffPolynomial] = {}
        for r, c in enumerate(coeffs):
            if isinstance(c, (int, Fraction, Scalar)):
                c = DiffPolynomial.const(c)
            if not c.is_zero():
                terms[(r, ())] = c
        return DensityOperator(dim, terms)

    # -- linear structure ----------------------------------------------------

    def _check_dim(self, other: "DensityOperator"):
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "DensityOperator") -> "DensityOperator":
        self._check_dim(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
        return DensityOperator(self.dim, out)

    def __neg__(self) -> "DensityOperator":
        return DensityOperator(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "DensityOperator") -> "DensityOperator":
        return self + (-other)

    def __mul__(self, factor) -> "DensityOperator":
        """Left multiplication by a coefficient function or scalar."""
        if isinstance(factor, (int, Fraction, Scalar)):
            factor = DiffPolynomial.const(factor)
        return DensityOperator(self.dim, {k: factor * c for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityOperator):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    # -- composition ---------------------------------------------------------

    def __matmul__(self, other: "DensityOperator") -> "DensityOperator":
        return self.compose(other)

    def compose(self, other: "DensityOperator") -> "DensityOperator":
        """Normal form of self o other."""
        self._check_dim(other)
        out: Dict[TermKey, DiffPolynomial] = {}
        for (r1, alpha1), c1 in self.terms.items():
            for (r2, alpha2), c2 in other.terms.items():
                # D^alpha1 o c2 = sum_beta coeff_beta D^beta  (Leibniz)
                for beta, g in _push_derivatives(alpha1, c2).items():
                    key = (r1 + r2, tuple(sorted(beta + alpha2)))
                    add = c1 * g
                    prev = out.get(key)
                    out[key] = add if prev is None else prev + add
        return DensityOperator(self.dim, out)

    def adjoint(self) -> "DensityOperator":
        """Formal adjoint: L -> 1 - L, D -> -D, f -> f, products reversed."""
        out: Dict[TermKey, DiffPolynomial] = {}
        for (r, alpha), c in self.terms.items():
            sign = -1 if len(alpha) % 2 else 1
            # (-1)^|alpha| (1-L)^r (D^alpha o c), with (1-L)^r expanded into L powers
            for beta, g in _push_derivatives(alpha, c).items():
                for j in range(r + 1):
                    k = comb(r, j) * ((-1) ** j) * sign
                    key = (j, tuple(sorted(beta)))
                    add = g * Fraction(k)
                    prev = out.get(key)
                    out[key] = add if prev is None else prev + add
        return DensityOperator(self.dim, out)

    def commutator(self, other: "DensityOperator") -> "DensityOperator":
        return self @ other - other @ self

    # -- restriction and application -----------------------------------------

    def restrict(self, lam) -> "DensityOperator":
        """Replace the weight generator by a fixed scalar weight."""
        lam = Scalar.of(lam)
        powers = {0: Scalar.of(1)}
        out: Dict[TermKey, DiffPolynomial] = {}
        for (r, alpha), c in self.terms.items():
            if r not in powers:
                powers[r] = lam ** r
            key = (0, alpha)
            add = c * powers[r]
            prev = out.get(key)
            out[key] = add if prev is None else prev + add
        return DensityOperator(self.dim, out)

    def apply(self, s: Density) -> Density:
        out = DiffPolynomial.zero()
        for (r, alpha), c in self.terms.items():
            piece = s.coeff
            for axis in alpha:
                piece = piece.derive(axis)
            out = out + c * (s.weight ** r) * piece
        return Density(out, s.weight)

    def app1(self) -> DiffPolynomial:
        """The function obtained by applying the operator to the constant 1."""
        applied = self.apply(Density(DiffPolynomial.const(1), Scalar.of(0)))
        return applied.coeff

    def vertical_part(self) -> "DensityOperator":
        return DensityOperator(
            self.dim, {k: c for k, c in self.terms.items() if not k[1]})

    # -- order bookkeeping -----------------------------------------------------

    def total_order(self) -> int:
        if not self.terms:
            raise ZeroOperatorError("zero operator has no order")
        return max(r + len(alpha) for r, alpha in self.terms)

    def x_order(self) -> int:
        if not self.terms:
            raise ZeroOperatorError("zero operator has no order")
        return max(len(alpha) for _, alpha in self.terms)

    def lam_degree(self) -> int:
        if not self.terms:
            raise ZeroOperatorError("zero operator has no order")
        return max(r for r, _ in self.terms)

    def is_vertical(self) -> bool:
        return all(not alpha for _, alpha in self.terms)

    def has_weight_factor(self) -> bool:
        return any(r for r, _ in self.terms)

    def require_weight_free(self, what: str = "operator"):
        if self.has_weight_factor():
            raise HasWeightOperatorError(f"{what} must not contain the weight generator")

    def coefficient(self, r: int, alpha: Iterable[int]) -> DiffPolynomial:
        return self.terms.get((r, tuple(sorted(alpha))), DiffPolynomial.zero())

    def map_coefficients(self, fn) -> "DensityOperator":
        return DensityOperator(self.dim, {k: fn(c) for k, c in self.terms.items()})

    def substitute_params(self, bindings) -> "DensityOperator":
        return self.map_coefficients(lambda c: c.substitute_params(bindings))

    def substitute_partials(self, repl: Sequence["DensityOperator"]) -> "DensityOperator":
        """Replace each D_i by repl[i-1]; the replacements must commute pairwise."""
        out = DensityOperator.zero(self.dim)
        for (r, alpha), c in self.terms.items():
            piece = DensityOperator(self.dim, {(r, ()): c})
            for axis in alpha:
                piece = piece @ repl[axis - 1]
            out = out + piece
        return out

    # -- display ---------------------------------------------------------------

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (-(kv[0][0] + len(kv[0][1])), -kv[0][0], kv[0][1]))

    def render(self) -> str:
        return render_sum((c, ["L"] * r + [f"D{a}" for a in alpha])
                          for (r, alpha), c in self.sorted_terms())

    def to_json(self) -> str:
        data = {
            "schema": "denslift/1",
            "terms": [
                {"lpow": r, "dmulti": list(alpha), "coeff": str(c)}
                for (r, alpha), c in self.sorted_terms()
            ],
        }
        data["order"] = self.total_order() if self.terms else 0
        return json.dumps(data)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"DensityOperator(d={self.dim}, {self.render()})"


def _push_derivatives(alpha: Tuple[int, ...], coeff: DiffPolynomial
                      ) -> Dict[Tuple[int, ...], DiffPolynomial]:
    """Normal-order D^alpha o coeff as sum_beta out[beta] D^beta."""
    table = {(): coeff}
    for axis in alpha:
        new: Dict[Tuple[int, ...], DiffPolynomial] = {}
        for beta, g in table.items():
            up = tuple(sorted(beta + (axis,)))
            prev = new.get(up)
            new[up] = g if prev is None else prev + g
            dg = g.derive(axis)
            if not dg.is_zero():
                prev = new.get(beta)
                new[beta] = dg if prev is None else prev + dg
        table = new
    return table


# -- function forms of the core operations -------------------------------------

def compose(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    return a.compose(b)


def adjoint(a: DensityOperator) -> DensityOperator:
    return a.adjoint()


def restrict(a: DensityOperator, lam) -> DensityOperator:
    return a.restrict(lam)


def apply_operator(a: DensityOperator, s: Density) -> Density:
    return a.apply(s)


# -- coefficient tensors -------------------------------------------------------

Tensor = Dict[Tuple[int, ...], DiffPolynomial]


def multinomial(alpha: Tuple[int, ...]) -> int:
    """Number of orderings of the multi-index: the weight of a symmetric
    tensor component in the operator coefficient of D^alpha."""
    counts: Dict[int, int] = {}
    for a in alpha:
        counts[a] = counts.get(a, 0) + 1
    out = factorial(len(alpha))
    for c in counts.values():
        out //= factorial(c)
    return out


def coefficient_tensors(op: DensityOperator) -> Dict[int, Tensor]:
    """Symmetric tensor components per order: c_alpha D^alpha summed over
    sorted alpha equals S^{i1..ik} D_i1..D_ik summed over all index tuples."""
    levels: Dict[int, Tensor] = {}
    for (r, alpha), c in op.terms.items():
        if r:
            raise HasWeightOperatorError("symbol calculus expects a weight-free operator")
        weight = multinomial(alpha)
        levels.setdefault(len(alpha), {})[alpha] = c if weight == 1 else c * Fraction(1, weight)
    return levels


def tensor_divergence(tensor: Tensor, dim: int) -> Tensor:
    """Contraction d_p S^{p i2..ik} of a symmetric tensor keyed by sorted indices."""
    out: Tensor = {}
    rank = len(next(iter(tensor))) if tensor else 0
    if rank == 0:
        return {}
    seen = set()
    for idx in tensor:
        for gamma in {tuple(sorted(idx[:pos] + idx[pos + 1:])) for pos in range(rank)}:
            seen.add(gamma)
    for gamma in seen:
        total = DiffPolynomial.zero()
        for p in range(1, dim + 1):
            comp = tensor.get(tuple(sorted(gamma + (p,))))
            if comp is not None:
                total = total + comp.derive(p)
        if not total.is_zero():
            out[gamma] = total
    return out


def tensor_operator(tensor: Tensor, dim: int) -> DensityOperator:
    """Inverse of coefficient_tensors on one order: S^{i..k} D_i..D_k summed."""
    terms = {}
    for beta, c in tensor.items():
        weight = multinomial(beta)
        terms[(0, beta)] = c if weight == 1 else c * weight
    return DensityOperator(dim, terms)


def generic_second_order(dim: int) -> DensityOperator:
    """S^{ij} D_i D_j + T^i D_i + R with fully generic jet coefficients."""
    terms = {}
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            factor = 1 if i == j else 2
            terms[(0, (i, j))] = DiffPolynomial.jet("S", (i, j)) * factor
        terms[(0, (i,))] = DiffPolynomial.jet("T", (i,))
    terms[(0, ())] = DiffPolynomial.jet("R")
    return DensityOperator(dim, terms)


def lie_operator(dim: int, components: Sequence[DiffPolynomial]) -> DensityOperator:
    """Lie derivative pencil X^i D_i + L * div X on the density algebra."""
    if len(components) != dim:
        raise DimensionMismatchError(
            f"vector field has {len(components)} components in dimension {dim}")
    terms: Dict[TermKey, DiffPolynomial] = {}
    div = DiffPolynomial.zero()
    for i, comp in enumerate(components, start=1):
        if not comp.is_zero():
            terms[(0, (i,))] = comp
        div = div + comp.derive(i)
    op = DensityOperator(dim, terms)
    if not div.is_zero():
        op = op + DensityOperator(dim, {(1, ()): div})
    return op


def ad_vf(components: Sequence[DiffPolynomial], a: DensityOperator) -> DensityOperator:
    """Commutator with the Lie derivative along the field."""
    lie = lie_operator(a.dim, list(components))
    return lie @ a - a @ lie
