"""Normal-ordered weight-0 operators on the algebra of densities.

An operator is a finite sum  sum_(r,alpha) c_{r,alpha}(x) L^r D^alpha  with
coefficient functions to the left, powers of the weight generator L (which
multiplies a density by its weight and is central here) in the middle, and
symmetric derivative multi-indices D^alpha on the right.  Composition and
the adjoint normal-order by the closed Leibniz sum D^alpha o c = sum over
beta <= alpha of C(alpha, beta) d^(alpha - beta)(c) D^beta, each derivative
of c taken once, and sum its products through ``scalars.collect_products``.
Composition merges the left factor's terms that share an alpha by jet
monomial, as L is central, so one monomial product serves every L power; the
adjoint makes one Leibniz pass per term and spreads it over the L powers of
(1 - L)^r.  A commutator is A o B + (-B) o A in one map without the top terms
(beta = alpha), which coefficients commute and so would only cancel.  The
adjoint is the formal anti-automorphism L* = 1 - L, D* = -D, f* = f.

All values are immutable by convention and safe to share across threads.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from .errors import DimensionMismatchError, HasWeightOperatorError
from .jets import DiffPolynomial
from .scalars import Scalar, collect, collect_products, render_sum

TermKey = Tuple[int, Tuple[int, ...]]


class Density(NamedTuple):
    """Coefficient function together with a (possibly formal) weight; a
    NamedTuple that iterates as, and equals, the plain tuple (coeff, weight)."""

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
        # D_i commute, so keys equal up to the order of alpha add up
        summed = collect(((r, tuple(sorted(alpha))), c) for (r, alpha), c in (terms or {}).items())
        for r, alpha in summed:
            if r < 0 or alpha and (alpha[0] < 1 or alpha[-1] > dim):
                raise ValueError(f"term key {(r, alpha)}: need a weight power >= 0 "
                                 f"and axes in 1..{dim}")
        self.terms = {k: c for k, c in summed.items() if not c.is_zero()}

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
    def lam_poly(dim: int, coeffs: Sequence, center=0) -> "DensityOperator":
        """Weight polynomial sum_k coeffs[k] * (L - center)^k by Horner's rule;
        a coefficient is a scalar, a coefficient function or an operator."""
        shift = DensityOperator.weight(dim) - DensityOperator.function(dim, center)
        out = DensityOperator.zero(dim)
        for c in reversed(coeffs):
            c = c if isinstance(c, DensityOperator) else DensityOperator.function(dim, c)
            out = (shift @ out if out.terms else out) + c
        return out

    # -- linear structure ----------------------------------------------------

    def _check_dim(self, other: "DensityOperator"):
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "DensityOperator") -> "DensityOperator":
        if not isinstance(other, DensityOperator):
            return NotImplemented
        self._check_dim(other)
        return DensityOperator(self.dim, collect(other.terms.items(), dict(self.terms)))

    def __neg__(self) -> "DensityOperator":
        return DensityOperator(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "DensityOperator") -> "DensityOperator":
        return self + (-other) if isinstance(other, DensityOperator) else NotImplemented

    def __mul__(self, factor) -> "DensityOperator":
        """Left multiplication by a coefficient function or scalar."""
        if not isinstance(factor, (int, Fraction, Scalar, DiffPolynomial)):
            return NotImplemented   # an operator or symbol is no coefficient
        return DensityOperator(self.dim, {k: c * factor for k, c in self.terms.items()})

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
        """Normal form of self o other (see _compose_into)."""
        self._check_dim(other)
        out = _compose_into({}, self, other)
        return DensityOperator(self.dim, {k: DiffPolynomial(t) for k, t in out.items()})

    def adjoint(self) -> "DensityOperator":
        """Formal adjoint: L -> 1 - L, D -> -D, f -> f, products reversed."""
        # (-1)^|alpha| (1-L)^r (D^alpha o c): each D^beta piece spread over the L powers
        out: Dict[TermKey, dict] = {}
        for (r, alpha), c in self.terms.items():
            for beta, weight, g in _leibniz(alpha, {(): c}):
                left = {(): [(j, Scalar.of(comb(r, j) * weight * (-1) ** (j + len(alpha))))
                             for j in range(r + 1)]}
                collect_products([out.setdefault((j, beta), {}) for j in range(r + 1)], left, g)
        return DensityOperator(self.dim, {k: DiffPolynomial(t) for k, t in out.items()})

    def commutator(self, other: "DensityOperator") -> "DensityOperator":
        """[self, other] as self o other + (-other) o self in one map, without
        the top Leibniz terms: coefficients commute, so the top term
        a b D^(alpha + gamma) of each pair of terms would only cancel."""
        self._check_dim(other)
        out = _compose_into({}, self, other, top=False)
        _compose_into(out, -other, self, top=False)
        return DensityOperator(self.dim, {k: DiffPolynomial(t) for k, t in out.items()})

    # -- restriction and application -----------------------------------------

    def restrict(self, lam) -> "DensityOperator":
        """Replace the weight generator by a fixed scalar weight."""
        lam = Scalar.of(lam)
        powers = {0: Scalar.of(1)}
        for r, _ in self.terms:
            if r not in powers:
                powers[r] = lam ** r
        return DensityOperator(self.dim, collect(
            ((0, alpha), c * powers[r]) for (r, alpha), c in self.terms.items()))

    def apply(self, s: Density) -> Density:
        out = DiffPolynomial.zero()
        for (r, alpha), c in self.terms.items():
            piece = s.coeff
            for axis in alpha:
                piece = piece.derive(axis)
            out = out + c * (s.weight ** r) * piece
        return Density(out, s.weight)

    def app1(self) -> DiffPolynomial:
        """The function obtained by applying the operator to the constant 1
        of weight 0: every L and every D kills it."""
        return self.coefficient(0, ())

    def vertical_part(self) -> "DensityOperator":
        return DensityOperator(
            self.dim, {k: c for k, c in self.terms.items() if not k[1]})

    # -- order bookkeeping -----------------------------------------------------

    def total_order(self) -> int:
        return max((r + len(alpha) for r, alpha in self.terms), default=0)

    def x_order(self) -> int:
        return max((len(alpha) for _, alpha in self.terms), default=0)

    def lam_degree(self) -> int:
        return max((r for r, _ in self.terms), default=0)

    def require_weight_free(self):
        if self.lam_degree():
            raise HasWeightOperatorError("operator must not contain the weight generator")

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
            "order": self.total_order(),
        }
        return json.dumps(data)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"DensityOperator(d={self.dim}, {self.render()})"


def _compose_into(out: Dict[TermKey, dict], a: DensityOperator, b: DensityOperator,
                  top: bool = True) -> Dict[TermKey, dict]:
    """Add a o b into out, {key: {jet monomial: Scalar}}, and return it;
    top=False leaves out the top Leibniz terms (see _leibniz).  a's terms are
    grouped by alpha1, sharing one derivative table of each c2, and merged by
    jet monomial, so collect_products forms each m1 m2 once for all L powers."""
    # alpha1 -> (its L powers, {m1: [(index of r1 in the powers, a1), ...]})
    groups: Dict[Tuple[int, ...], tuple] = {}
    for (r1, alpha1), c1 in a.terms.items():
        powers, merged = groups.setdefault(alpha1, ([], {}))
        for m1, a1 in c1.terms.items():
            merged.setdefault(m1, []).append((len(powers), a1))
        powers.append(r1)
    for (r2, alpha2), c2 in b.terms.items():
        derivs = {(): c2}
        for alpha1, (powers, merged) in groups.items():
            for beta, weight, g in _leibniz(alpha1, derivs, top=top):
                beta = tuple(sorted(beta + alpha2))
                collect_products([out.setdefault((r1 + r2, beta), {}) for r1 in powers], merged,
                                 g if weight == 1 else [(m, a * weight) for m, a in g])
    return out


def _leibniz(alpha: Tuple[int, ...], derivs: Dict[Tuple[int, ...], DiffPolynomial],
             top: bool = True):
    """D^alpha o c as (beta, C(alpha, beta), d^(alpha - beta) c) for every
    beta <= alpha, the derivative as (jet monomial, Scalar) pairs; top=False
    skips beta = alpha.  derivs starts as {(): c} and keeps each derivative
    of c taken, with its axes applied in sorted order."""
    counts = collect((axis, 1) for axis in alpha)
    full = tuple(counts.values())
    for ks in product(*(range(n + 1) for n in full)):
        if not top and ks == full:
            continue
        beta, gamma, weight = (), (), 1
        for (axis, n), k in zip(counts.items(), ks):
            beta += (axis,) * k
            gamma += (axis,) * (n - k)
            weight *= comb(n, k)
        for i, axis in enumerate(gamma):
            if gamma[:i + 1] not in derivs:
                derivs[gamma[:i + 1]] = derivs[gamma[:i]].derive(axis)
        yield beta, weight, derivs[gamma].terms.items()


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
    out = factorial(len(alpha))
    for c in collect((a, 1) for a in alpha).values():
        out //= factorial(c)
    return out


def coefficient_tensors(op: DensityOperator) -> Dict[int, Tensor]:
    """Symmetric tensor components per order: c_alpha D^alpha summed over
    sorted alpha equals S^{i1..ik} D_i1..D_ik summed over all index tuples."""
    op.require_weight_free()
    levels: Dict[int, Tensor] = {}
    for (_, alpha), c in op.terms.items():
        weight = multinomial(alpha)
        levels.setdefault(len(alpha), {})[alpha] = c if weight == 1 else c * Fraction(1, weight)
    return levels


def tensor_divergence(tensor: Tensor) -> Tensor:
    """Contraction d_p S^{p i2..ik} of a symmetric tensor keyed by sorted indices."""
    # S^idx enters once per distinct index p in idx: d_p S^idx at idx less one p
    summed = collect((idx[:k] + idx[k + 1:], c.derive(p)) for idx, c in tensor.items()
                     for k, p in enumerate(idx) if not k or idx[k - 1] != p)
    return {gamma: t for gamma, t in summed.items() if not t.is_zero()}


def tensor_operator(tensor: Tensor, dim: int) -> DensityOperator:
    """Inverse of coefficient_tensors on one order: S^{i..k} D_i..D_k summed."""
    terms = {}
    for beta, c in tensor.items():
        weight = multinomial(beta)
        terms[(0, beta)] = c if weight == 1 else c * weight
    return DensityOperator(dim, terms)


def generic_tensor(base: str, dim: int, rank: int) -> Tensor:
    """Generic symmetric rank-k tensor: the jet base[idx] at each sorted index tuple."""
    return {idx: DiffPolynomial.jet(base, idx)
            for idx in combinations_with_replacement(range(1, dim + 1), rank)}


def generic_second_order(dim: int) -> DensityOperator:
    """S^{ij} D_i D_j + T^i D_i + R with fully generic jet coefficients."""
    return sum((tensor_operator(generic_tensor(base, dim, rank), dim)
                for base, rank in (("R", 0), ("T", 1), ("S", 2))), DensityOperator.zero(dim))


def vector_divergence(components: Sequence[DiffPolynomial]) -> DiffPolynomial:
    """Coordinate divergence d_i X^i of a vector field given by its components:
    the divergence of the rank-1 tensor."""
    tensor = {(i,): comp for i, comp in enumerate(components, start=1)}
    return tensor_divergence(tensor).get((), DiffPolynomial.zero())


def lie_operator(dim: int, components: Sequence[DiffPolynomial]) -> DensityOperator:
    """Lie derivative pencil X^i D_i + L * div X on the density algebra."""
    if len(components) != dim:
        raise DimensionMismatchError(
            f"vector field has {len(components)} components in dimension {dim}")
    terms = {(0, (i,)): comp for i, comp in enumerate(components, start=1)}
    terms[(1, ())] = vector_divergence(components)
    return DensityOperator(dim, terms)


def ad_vf(components: Sequence[DiffPolynomial], a: DensityOperator) -> DensityOperator:
    """Commutator with the Lie derivative along the field."""
    return lie_operator(a.dim, list(components)).commutator(a)
