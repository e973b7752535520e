"""Projectively equivariant symbol calculus, quantization, and the Schwarzian.

The full symbol map sends an operator to a fiberwise-polynomial function on
the cotangent bundle, contracting iterated divergences of its coefficient
tensors against closed-form weight-dependent coefficients; its inverse is
built by triangular descent on the degree.  Composing symbol and quantization
at different weights draws strictly regular pencils equivariant under the
projective algebra, whose comparison with the canonical self-adjoint pencil
produces the Schwarzian cocycle in one dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import BadPolynomialError, DimensionNotOneError
from .jets import DiffPolynomial, JetSymbol, REGISTRY
from .lifting import extract_geometric_data
from .operators import (
    DensityOperator,
    coefficient_tensors,
    multinomial,
    tensor_divergence,
    tensor_operator,
)
from .scalars import ONE, Scalar, render_sum

# Reciprocal-jet symbols: w = 1/y_x with dw = -w^2 y_xx, and the pair (u, q)
# with du = u^2, dq = -1 encoding u = 1/(1-x) for Moebius jets.
_Y1 = JetSymbol("y", (), (1,))
_Y2 = JetSymbol("y", (), (1, 1))
REGISTRY.ensure(
    "w",
    lambda sym, axis: -(DiffPolynomial.jet("w") ** 2) * DiffPolynomial.of_symbol(_Y2),
    inverse_of=_Y1,
)
REGISTRY.ensure("u", lambda sym, axis: DiffPolynomial.jet("u") ** 2,
                inverse_of=JetSymbol("q"))
REGISTRY.ensure("q", lambda sym, axis: DiffPolynomial.const(-1))


class SymbolPoly:
    """Polynomial in the cotangent fiber variables with jet coefficients."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Optional[Dict[Tuple[int, ...], DiffPolynomial]] = None):
        self.dim = dim
        self.terms = {}
        for beta, c in (terms or {}).items():
            if not c.is_zero():
                self.terms[tuple(sorted(beta))] = c

    @staticmethod
    def zero(dim: int) -> "SymbolPoly":
        return SymbolPoly(dim)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(b) for b in self.terms), default=0)

    def homogeneous_part(self, k: int) -> "SymbolPoly":
        return SymbolPoly(self.dim, {b: c for b, c in self.terms.items() if len(b) == k})

    def coefficient(self, beta) -> DiffPolynomial:
        return self.terms.get(tuple(sorted(beta)), DiffPolynomial.zero())

    def __add__(self, other: "SymbolPoly") -> "SymbolPoly":
        out = dict(self.terms)
        for b, c in other.terms.items():
            prev = out.get(b)
            out[b] = c if prev is None else prev + c
        return SymbolPoly(self.dim, out)

    def __neg__(self) -> "SymbolPoly":
        return SymbolPoly(self.dim, {b: -c for b, c in self.terms.items()})

    def __sub__(self, other: "SymbolPoly") -> "SymbolPoly":
        return self + (-other)

    def __mul__(self, factor) -> "SymbolPoly":
        if isinstance(factor, SymbolPoly):
            out: Dict[Tuple[int, ...], DiffPolynomial] = {}
            for b1, c1 in self.terms.items():
                for b2, c2 in factor.terms.items():
                    key = tuple(sorted(b1 + b2))
                    add = c1 * c2
                    prev = out.get(key)
                    out[key] = add if prev is None else prev + add
            return SymbolPoly(self.dim, out)
        return SymbolPoly(self.dim, {b: c * factor for b, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def lie_derive(self, components: Sequence[DiffPolynomial]) -> "SymbolPoly":
        """Canonical cotangent lift: X^i df/dx^i - xi_p dX^p/dx^i df/dxi_i."""
        out: Dict[Tuple[int, ...], DiffPolynomial] = {}

        def bump(beta, poly):
            if poly.is_zero():
                return
            key = tuple(sorted(beta))
            prev = out.get(key)
            out[key] = poly if prev is None else prev + poly

        for beta, c in self.terms.items():
            for i, comp in enumerate(components, start=1):
                bump(beta, comp * c.derive(i))
            seen = set()
            for pos, i in enumerate(beta):
                if i in seen:
                    continue
                seen.add(i)
                mult = beta.count(i)
                reduced = list(beta)
                reduced.remove(i)
                for p in range(1, self.dim + 1):
                    d_x = components[p - 1].derive(i)
                    if d_x.is_zero():
                        continue
                    bump(tuple(reduced) + (p,), -Fraction(mult) * d_x * c)
        return SymbolPoly(self.dim, out)

    def render(self) -> str:
        terms = []
        for beta in sorted(self.terms, key=lambda b: (-len(b), b)):
            powers: Dict[int, int] = {}
            for i in beta:
                powers[i] = powers.get(i, 0) + 1
            factors = [("xi" if self.dim == 1 else f"xi{i}") + ("" if e == 1 else f"^{e}")
                       for i, e in sorted(powers.items())]
            terms.append((self.terms[beta], factors))
        return render_sum(terms)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"SymbolPoly(d={self.dim}, {self.render()})"


# -- tensor bookkeeping -------------------------------------------------------

def _tensor_to_symbol(tensor: Mapping[Tuple[int, ...], DiffPolynomial], dim: int,
                      scale: Scalar) -> SymbolPoly:
    terms = {}
    for beta, c in tensor.items():
        poly = c * scale * multinomial(beta)
        if not poly.is_zero():
            terms[beta] = poly
    return SymbolPoly(dim, terms)


def _symbol_to_tensor(sym: SymbolPoly) -> Dict[Tuple[int, ...], DiffPolynomial]:
    return {beta: c * Fraction(1, multinomial(beta)) for beta, c in sym.terms.items()}


# -- the full symbol map and its inverse --------------------------------------

def symbol_coeff(n: int, k: int, lam, dim: int) -> Scalar:
    """Closed-form weight coefficient of the k-fold divergence at order n."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    lam = Scalar.of(lam)
    arg = lam * (dim + 1) + (n - 1)
    falling = Scalar.of(1)
    for j in range(k):
        falling = falling * (arg - j)
    gen_binom = falling * Fraction(1, factorial(k))
    return (Scalar.of((-1) ** k) * comb(n, k) * gen_binom
            * (ONE / Scalar.of(comb(2 * n - k + dim, k))))


def full_symbol(op: DensityOperator, lam) -> SymbolPoly:
    """Projectively equivariant total symbol, normalized on principal parts."""
    lam = Scalar.of(lam)
    out = SymbolPoly.zero(op.dim)
    for n, tensor in coefficient_tensors(op).items():
        current = tensor
        for k in range(n + 1):
            if not current:
                break
            out = out + _tensor_to_symbol(current, op.dim, symbol_coeff(n, k, lam, op.dim))
            current = tensor_divergence(current, op.dim)
        # order-0 coefficients have an empty divergence chain after k = 0
    return out


def principal_symbol(op: DensityOperator) -> SymbolPoly:
    n = op.x_order()
    terms = {alpha: c for (r, alpha), c in op.terms.items() if len(alpha) == n and not r}
    return SymbolPoly(op.dim, terms)


def quantize(sym: SymbolPoly, lam) -> DensityOperator:
    """Inverse of the full symbol map by degree-descending triangular descent."""
    lam = Scalar.of(lam)
    dim = sym.dim
    out = DensityOperator.zero(dim)
    remaining = sym
    while not remaining.is_zero():
        n = remaining.degree()
        top = _symbol_to_tensor(remaining.homogeneous_part(n))
        op_piece = tensor_operator(top, dim)
        out = out + op_piece
        remaining = remaining - full_symbol(op_piece, lam)
    return out


# -- projective liftings -------------------------------------------------------

def proj_generators(dim: int) -> List[List[DiffPolynomial]]:
    """Translations, linear fields, and special projective fields on R^d."""
    zero = DiffPolynomial.zero()
    gens: List[List[DiffPolynomial]] = []
    for i in range(1, dim + 1):
        gens.append([DiffPolynomial.const(1) if m == i else zero
                     for m in range(1, dim + 1)])
    for i in range(1, dim + 1):
        xi = DiffPolynomial.jet("x", (i,))
        for k in range(1, dim + 1):
            gens.append([xi if m == k else zero for m in range(1, dim + 1)])
    for i in range(1, dim + 1):
        xi = DiffPolynomial.jet("x", (i,))
        gens.append([xi * DiffPolynomial.jet("x", (m,)) for m in range(1, dim + 1)])
    return gens


# Formal weight at which proj_lift quantizes; the CLI grammar cannot name it.
_WEIGHT = "_L"


def proj_lift(delta: DensityOperator, l0) -> DensityOperator:
    """Quantize the weight-l0 symbol at the formal weight generator.

    The quantization is taken once at a reserved formal weight parameter;
    its coefficients are polynomial in that parameter, and the coefficient of
    its k-th power becomes the coefficient of L^k.
    """
    l0 = Scalar.of(l0)
    if delta.is_zero():
        return delta
    quantized = quantize(full_symbol(delta, l0), Scalar.param(_WEIGHT))
    split: Dict[Tuple[int, Tuple[int, ...]], Dict] = {}
    for (_, alpha), c in quantized.terms.items():
        for mono, s in c.terms.items():
            for k, sk in s.coefficients_in(_WEIGHT).items():
                split.setdefault((k, alpha), {})[mono] = sk
    return DensityOperator(delta.dim, {key: DiffPolynomial(t) for key, t in split.items()})


def proj_decompose(delta: DensityOperator, l0) -> List[DensityOperator]:
    """Split into parts whose pencils each keep a fixed symbol."""
    l0 = Scalar.of(l0)
    delta.require_weight_free("decomposition input")
    if delta.is_zero():
        return [delta]
    n = delta.x_order()
    parts = []
    remaining = delta
    for i in range(n + 1):
        if remaining.is_zero() or remaining.x_order() < n - i:
            parts.append(DensityOperator.zero(delta.dim))
            continue
        piece = quantize(principal_symbol(remaining), l0)
        parts.append(piece)
        remaining = remaining - piece
    if not remaining.is_zero():
        raise AssertionError("decomposition did not terminate")
    return parts


def _eval_poly(coeffs: Sequence[Scalar], at: Scalar) -> Scalar:
    total = Scalar.of(0)
    power = Scalar.of(1)
    for c in coeffs:
        total = total + c * power
        power = power * at
    return total


def proj_regular_lift(delta: DensityOperator, l0,
                      weight_polys: Sequence[Sequence] ) -> DensityOperator:
    """Regular projective lifting sum_k P_k(L) applied to the k-th part.

    Each P_k must have degree <= k and P_k(l0) = 1.
    """
    l0 = Scalar.of(l0)
    parts = proj_decompose(delta, l0)
    polys = [[Scalar.of(c) for c in p] for p in weight_polys]
    if len(polys) < len(parts):
        polys = polys + [[Scalar.of(1)]] * (len(parts) - len(polys))
    elif len(polys) > len(parts):
        parts = parts + [DensityOperator.zero(delta.dim)] * (len(polys) - len(parts))
    out = DensityOperator.zero(delta.dim)
    for k, (coeffs, part) in enumerate(zip(polys, parts)):
        if len(coeffs) > k + 1:
            raise BadPolynomialError(f"P_{k} has degree {len(coeffs) - 1} > {k}")
        if not _eval_poly(coeffs, l0).is_one():
            raise BadPolynomialError(f"P_{k} is not normalized to 1 at the base weight")
        if part.is_zero():
            continue
        out = out + DensityOperator.lam_poly(delta.dim, coeffs) @ proj_lift(part, l0)
    return out


def _poly_mul(a: Sequence[Scalar], b: Sequence[Scalar]) -> List[Scalar]:
    out = [Scalar.of(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return out


def proj_sa_polynomials(n: int, l0, even_coeffs: Mapping[int, Sequence] = (),
                        odd_coeffs: Mapping[int, Sequence] = ()) -> List[List[Scalar]]:
    """Weight polynomials of all (anti-)self-adjoint regular projective liftings.

    P_0 = 1, P_1 = (2L-1)/(2l0-1); even P_2k are 1 plus combinations of
    t^{2r}(L) - t^{2r}(l0), odd P_2k+1 carry the extra factor t(L)/t(l0).
    Free coefficients are per-polynomial; their total count is (n^2 - p(n))/4.
    """
    from .errors import ExceptionalWeightError
    from .scalars import HALF

    l0 = Scalar.of(l0)
    if l0 == HALF:
        raise ExceptionalWeightError("exceptional weight 1/2")
    even_coeffs = dict(even_coeffs or {})
    odd_coeffs = dict(odd_coeffs or {})
    t = [Scalar.of(Fraction(-1, 2)), Scalar.of(1)]
    t0 = l0 - HALF
    t_sq = _poly_mul(t, t)

    out: List[List[Scalar]] = []
    for k in range(n + 1):
        if k == 0:
            out.append([Scalar.of(1)])
            continue
        half_k = k // 2
        given = even_coeffs.get(k, ()) if k % 2 == 0 else odd_coeffs.get(k, ())
        given = [Scalar.of(c) for c in given]
        if len(given) > half_k:
            raise BadPolynomialError(
                f"P_{k} admits at most {half_k} free coefficients")
        body = [Scalar.of(1)]
        t_pow = list(t_sq)
        for r in range(1, half_k + 1):
            cr = given[r - 1] if r <= len(given) else Scalar.of(0)
            if not cr.is_zero():
                shift = [c * cr for c in t_pow]
                shift[0] = shift[0] - cr * (t0 ** (2 * r))
                body = [
                    (body[i] if i < len(body) else Scalar.of(0))
                    + (shift[i] if i < len(shift) else Scalar.of(0))
                    for i in range(max(len(body), len(shift)))
                ]
            t_pow = _poly_mul(t_pow, t_sq)
        if k % 2 == 0:
            out.append(body)
        else:
            scaled = _poly_mul(t, body)
            out.append([c / t0 for c in scaled])
    return out


# -- the Schwarzian and one-dimensional coordinate changes ---------------------

def schwarzian_data(delta: DensityOperator, l0) -> DiffPolynomial:
    """theta - 2 gamma_x + (2/3) a_xx of a second-order operator on the line."""
    if delta.dim != 1:
        raise DimensionNotOneError("the Schwarzian lives on the line")
    data = extract_geometric_data(delta, l0)
    a = delta.coefficient(0, (1, 1))
    return data.theta - 2 * data.gamma[0].derive(1) + Fraction(2, 3) * a.derive(1).derive(1)


@dataclass(frozen=True)
class DiffeoJet1D:
    """Jets of a line diffeomorphism: y1 = dy/dx and w = 1/y1.

    Higher jets come from differentiating y1, so the chain of derivative
    identities holds by construction.  ``pairs`` lists the monomial inverse
    relations available for reduction.
    """

    y1: DiffPolynomial
    w: DiffPolynomial
    pairs: Tuple[Tuple[JetSymbol, JetSymbol], ...] = ()

    @staticmethod
    def generic() -> "DiffeoJet1D":
        return DiffeoJet1D(
            DiffPolynomial.of_symbol(_Y1), DiffPolynomial.jet("w"),
            ((JetSymbol("w"), _Y1),))

    @staticmethod
    def identity() -> "DiffeoJet1D":
        return DiffeoJet1D(DiffPolynomial.const(1), DiffPolynomial.const(1))

    @staticmethod
    def scale(a) -> "DiffeoJet1D":
        a = Fraction(a)
        return DiffeoJet1D(DiffPolynomial.const(a), DiffPolynomial.const(Fraction(1) / a))

    @staticmethod
    def mobius() -> "DiffeoJet1D":
        # y = x/(1-x): y1 = u^2 with u = 1/(1-x), w = q^2 with q = 1-x
        u = DiffPolynomial.jet("u")
        q = DiffPolynomial.jet("q")
        return DiffeoJet1D(u * u, q * q, ((JetSymbol("u"), JetSymbol("q")),))

    def jet(self, order: int) -> DiffPolynomial:
        out = self.y1
        for _ in range(order - 1):
            out = out.derive(1)
        return out

    def d_y(self, f: DiffPolynomial) -> DiffPolynomial:
        """Derivative with respect to the image coordinate: w * d/dx."""
        return self.w * f.derive(1)

    def reduce_poly(self, p: DiffPolynomial) -> DiffPolynomial:
        return p.cancel_pairs(self.pairs) if self.pairs else p

    def reduce(self, op: DensityOperator) -> DensityOperator:
        return op.map_coefficients(self.reduce_poly)


def coordinate_change_1d(op: DensityOperator, phi: DiffeoJet1D) -> DensityOperator:
    """Express the operator in the image coordinate of the diffeomorphism.

    Conjugation by the jacobian power (y_x)^L turns each D_x into
    D_x + L y_xx w; rewriting D_x = y_1 D_y then normal-orders against the
    image-coordinate derivation.  Output coefficients stay written in x-jets.
    """
    if op.dim != 1:
        raise DimensionNotOneError("coordinate changes are implemented on the line")
    g = phi.jet(2) * phi.w
    repl = DensityOperator.partial(1, 1)
    if not g.is_zero():
        repl = repl + DensityOperator(1, {(1, ()): g})
    conj = op.substitute_partials([repl])

    # D_x^k -> (y1 D_y)^k with D_y acting on coefficients as w d/dx
    expansions: List[Dict[int, DiffPolynomial]] = [{0: DiffPolynomial.const(1)}]
    max_k = max((len(alpha) for _, alpha in conj.terms), default=0)
    for _ in range(max_k):
        prev = expansions[-1]
        nxt: Dict[int, DiffPolynomial] = {}
        for j, e in prev.items():
            de = phi.d_y(e)
            if not de.is_zero():
                cur = nxt.get(j)
                nxt[j] = phi.y1 * de if cur is None else cur + phi.y1 * de
            cur = nxt.get(j + 1)
            add = phi.y1 * e
            nxt[j + 1] = add if cur is None else cur + add
        expansions.append(nxt)

    terms: Dict[Tuple[int, Tuple[int, ...]], DiffPolynomial] = {}
    for (r, alpha), c in conj.terms.items():
        for j, e in expansions[len(alpha)].items():
            key = (r, (1,) * j)
            add = c * e
            prev = terms.get(key)
            terms[key] = add if prev is None else prev + add
    return phi.reduce(DensityOperator(1, terms))


def transformed_schwarzian_data(delta: DensityOperator, l0,
                                phi: DiffeoJet1D) -> DiffPolynomial:
    """The invariant of the transformed operator, computed in the image chart.

    All derivatives that enter the geometric data go through the image
    coordinate (w d/dx); coefficients stay written in source jets.
    """
    l0 = Scalar.of(l0)
    moved = coordinate_change_1d(delta, phi).restrict(l0)
    a_t = moved.coefficient(0, (1, 1))
    b_t = moved.coefficient(0, (1,))
    c_t = moved.coefficient(0, ())
    den = 2 * l0 - 1
    gamma_t = (b_t - phi.d_y(a_t)) * (ONE / den)
    theta_t = (c_t - (phi.d_y(b_t) - phi.d_y(phi.d_y(a_t))) * (l0 / den)) * (
        ONE / (l0 * (l0 - 1)))
    return theta_t - 2 * phi.d_y(gamma_t) + Fraction(2, 3) * phi.d_y(phi.d_y(a_t))


def schwarzian_combination(phi: DiffeoJet1D) -> DiffPolynomial:
    """The classical weight-2 cocycle y_xxx/y_x - (3/2)(y_xx/y_x)^2 in jets."""
    y2, y3 = phi.jet(2), phi.jet(3)
    return y3 * phi.w - Fraction(3, 2) * y2 * y2 * phi.w * phi.w


def schwarzian_cocycle_check(delta: DensityOperator, l0, phi: DiffeoJet1D) -> bool:
    """Transformation law of the Schwarzian invariant under a diffeomorphism.

    The invariant computed in the image chart differs from the source one by
    minus two thirds of the classical Schwarzian contracted with the leading
    coefficient; the 2/3 matches the invariant's own normalization (the a_xx
    coefficient), and the anomaly vanishes exactly on Moebius jets.
    """
    l0 = Scalar.of(l0)
    if delta.dim != 1:
        raise DimensionNotOneError("the cocycle check lives on the line")
    source = schwarzian_data(delta, l0)
    a = delta.coefficient(0, (1, 1))
    s_t = transformed_schwarzian_data(delta, l0, phi)
    lhs = phi.reduce_poly(s_t)
    rhs = phi.reduce_poly(source - Fraction(2, 3) * schwarzian_combination(phi) * a)
    return lhs == rhs
