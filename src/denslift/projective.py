"""Projectively equivariant symbol calculus, quantization, and the Schwarzian.

The full symbol map sends an operator to a fiberwise-polynomial function on
the cotangent bundle, contracting iterated divergences of its coefficient
tensors against closed-form weight-dependent coefficients; its inverse, the
quantization, walks the same ladder of divergences of the symbol, with
coefficients that a triangular recurrence gives in closed form.  Composing
symbol and quantization at different weights draws strictly regular pencils
equivariant under the projective algebra, whose comparison with the canonical
self-adjoint pencil produces the Schwarzian cocycle in one dimension.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from .errors import BadPolynomialError, DimensionNotOneError
from .jets import DiffPolynomial, JetSymbol, REGISTRY
from .lifting import _reject_weights, _require_second_order, even_t_family
from .operators import (DensityOperator, TermMap, coefficient_tensors, multinomial,
                        tensor_divergence)
from .scalars import HALF, ONE, ZERO, Scalar, collect, render_sum

# Reciprocal-jet symbols: w = 1/y_x with dw = -w^2 y_xx, and the pair (u, q)
# with du = u^2, dq = -1 encoding u = 1/(1-x) for Moebius jets.
_Y1 = JetSymbol("y", (), (1,))
_Y2 = JetSymbol("y", (), (1, 1))
REGISTRY.ensure("w", lambda sym, axis: -(DiffPolynomial.jet("w") ** 2)
                * DiffPolynomial.of_symbol(_Y2))
REGISTRY.ensure("u", lambda sym, axis: DiffPolynomial.jet("u") ** 2)
REGISTRY.ensure("q", lambda sym, axis: DiffPolynomial.const(-1))


class SymbolPoly(TermMap):
    """Polynomial in the cotangent fiber variables with jet coefficients."""

    __slots__ = ()
    # named here too: perfbench/tracing.py patches each from the class's own __dict__
    __add__, __neg__, __sub__ = TermMap.__add__, TermMap.__neg__, TermMap.__sub__

    def _key(self, beta: Tuple[int, ...]) -> Tuple[int, ...]:
        # fiber variables commute, so keys equal up to order add up
        beta = tuple(sorted(beta))
        if beta and (beta[0] < 1 or beta[-1] > self.dim):
            raise ValueError(f"term key {beta}: need axes in 1..{self.dim}")
        return beta

    def degree(self) -> int:
        return max((len(b) for b in self.terms), default=0)

    def coefficient(self, beta) -> DiffPolynomial:
        return self.terms.get(tuple(sorted(beta)), DiffPolynomial.zero())

    def __mul__(self, factor) -> "SymbolPoly":
        if not isinstance(factor, SymbolPoly):
            return super().__mul__(factor)
        self._check_dim(factor)
        return SymbolPoly(self.dim, collect(
            (b1 + b2, c1 * c2) for b1, c1 in self.terms.items()
            for b2, c2 in factor.terms.items()))

    __rmul__ = __mul__

    def lie_derive(self, components: Sequence[DiffPolynomial]) -> "SymbolPoly":
        """Canonical cotangent lift: X^i df/dx^i - xi_p dX^p/dx^i df/dxi_i."""

        def pieces():
            for beta, c in self.terms.items():
                for i, comp in enumerate(components, start=1):
                    yield beta, comp * c.derive(i)
                for i in sorted(set(beta)):
                    reduced = list(beta)
                    reduced.remove(i)
                    for p in range(1, self.dim + 1):
                        d_x = components[p - 1].derive(i)
                        if not d_x.is_zero():
                            yield tuple(reduced) + (p,), -Fraction(beta.count(i)) * d_x * c

        return SymbolPoly(self.dim, collect(pieces()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (-len(kv[0]), kv[0]))

    def render(self) -> str:
        terms = []
        for beta, c in self.sorted_terms():
            factors = [("xi" if self.dim == 1 else f"xi{i}") + ("" if e == 1 else f"^{e}")
                       for i, e in sorted(collect((i, 1) for i in beta).items())]
            terms.append((c, factors))
        return render_sum(terms)

    def to_json(self) -> str:
        return json.dumps({
            "schema": "denslift/1",
            "symbol": [{"xi": list(beta), "coeff": str(c)} for beta, c in self.sorted_terms()],
            "degree": self.degree(),
        })


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
    return falling * Fraction((-1) ** k * comb(n, k), factorial(k) * comb(2 * n - k + dim, k))


def _ladder(op: DensityOperator):
    """(n, k, Div^k T_n) for each order-n coefficient tensor T_n of op and
    k = 0..n, stopping at the first divergence that vanishes."""
    for n, tensor in coefficient_tensors(op).items():
        for k in range(n + 1):
            if not tensor:
                break
            yield n, k, tensor
            tensor = tensor_divergence(tensor)


def _quantizer(m: int, lam, dim: int) -> List[Scalar]:
    """q_0..q_m of the inverse symbol map on degree m (Lecomte & Ovsienko 1999):
    q_k = C(m, k) a (a - 1)..(a - k + 1) / ((2m + d - 1)..(2m + d - k)) with
    a = lam (d + 1) + m - 1, the solution of q_0 = 1 and
    sum_(j <= k) q_j symbol_coeff(m - j, k - j) = 0 for k >= 1."""
    arg = Scalar.of(lam) * (dim + 1) + (m - 1)
    q = [ONE]
    for k in range(1, m + 1):
        q.append(q[-1] * (arg - (k - 1)) * Fraction(m - k + 1, k * (2 * m + dim - k)))
    return q


def _quantized(sym: SymbolPoly, scales) -> DensityOperator:
    """The operator sum over m and k of F(L) Div^k S_m, S_m the degree-m piece
    of sym, each divergence read as the operator with those coefficients and
    F = scales(m)[k] given as {power of L: Scalar}."""
    table = [scales(m) for m in range(sym.degree() + 1)]
    ladder = _ladder(DensityOperator(sym.dim, {(0, beta): c for beta, c in sym.terms.items()}))
    return DensityOperator(sym.dim, collect(
        ((r, beta), c * (f * multinomial(beta))) for m, k, tensor in ladder
        for beta, c in tensor.items() for r, f in table[m][k].items()))


def full_symbol(op: DensityOperator, lam) -> SymbolPoly:
    """Projectively equivariant total symbol, normalized on principal parts:
    the k-fold divergence of the order-n coefficient tensor, weighted by
    symbol_coeff(n, k), contracted with the fiber variables."""
    lam = Scalar.of(lam)

    def pieces():
        for n, k, tensor in _ladder(op):
            scale = symbol_coeff(n, k, lam, op.dim)
            for beta, c in tensor.items():
                yield beta, c * scale * multinomial(beta)

    return SymbolPoly(op.dim, collect(pieces()))


def principal_symbol(op: DensityOperator) -> SymbolPoly:
    n = op.x_order()
    terms = {alpha: c for (r, alpha), c in op.terms.items() if len(alpha) == n and not r}
    return SymbolPoly(op.dim, terms)


def quantize(sym: SymbolPoly, lam) -> DensityOperator:
    """Inverse of the full symbol map, in closed form: the degree-m piece S_m
    goes to sum_k q_k(lam) Div^k S_m (see _quantizer)."""
    return _quantized(sym, lambda m: [{0: q} for q in _quantizer(m, lam, sym.dim)])


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


# Formal weight the projective liftings quantize at; the CLI grammar cannot name it.
_WEIGHT = "_L"


def proj_lift(delta: DensityOperator, l0) -> DensityOperator:
    """The regular projective lifting with every P_k = 1: the weight-l0 symbol
    quantized at the formal weight generator."""
    return proj_regular_lift(delta, l0, ())


def proj_decompose(delta: DensityOperator, l0) -> List[DensityOperator]:
    """Split into parts whose pencils each keep a fixed symbol: part i
    quantizes the homogeneous piece of degree n - i of the full symbol at l0,
    n the order of delta."""
    l0 = Scalar.of(l0)
    delta.require_weight_free()
    sym = full_symbol(delta, l0)
    return [quantize(SymbolPoly(delta.dim, {beta: c for beta, c in sym.terms.items()
                                            if len(beta) == degree}), l0)
            for degree in range(delta.x_order(), -1, -1)]


def proj_regular_lift(delta: DensityOperator, l0,
                      weight_polys: Sequence[Sequence]) -> DensityOperator:
    """Regular projective lifting sum_k P_k(L) applied to the k-th part of
    proj_decompose, each P_k of degree <= k with P_k(l0) = 1 (missing ones
    are 1): the degree-m piece S_m of the weight-l0 full symbol, n - m = k,
    goes to sum_j P_k(L) q_j(L) Div^j S_m, q_j the quantizer at the formal
    weight, where it is a polynomial with rational coefficients."""
    l0 = Scalar.of(l0)
    delta.require_weight_free()
    polys = []
    for k, coeffs in enumerate([[Scalar.of(c) for c in p] for p in weight_polys]):
        if len(coeffs) > k + 1:
            raise BadPolynomialError(f"P_{k} has degree {len(coeffs) - 1} > {k}")
        if sum((c * l0 ** j for j, c in enumerate(coeffs)), ZERO) != ONE:
            raise BadPolynomialError(f"P_{k} is not normalized to 1 at the base weight")
        polys.append(coeffs)
    n = delta.x_order()
    weight = Scalar.param(_WEIGHT)

    def scales(m: int) -> List[Dict[int, Scalar]]:
        # P_(n - m)(L) q_k(L) by power of L, q_k read off its numerator in L
        p = polys[n - m] if n - m < len(polys) else [ONE]
        return [collect((r + dict(mono).get(_WEIGHT, 0), c * f)
                        for r, c in enumerate(p) for mono, f in q.num.items())
                for q in _quantizer(m, weight, delta.dim)]

    return _quantized(full_symbol(delta, l0), scales)


def proj_sa_polynomials(n: int, l0,
                        free: Mapping[int, Sequence] = MappingProxyType({})) -> List[List[Scalar]]:
    """Weight polynomials of all (anti-)self-adjoint regular projective liftings.

    P_0 = 1, P_1 = (2L-1)/(2l0-1); even P_2k are 1 plus the even t-family
    sum_r c_r (t^{2r}(L) - t^{2r}(l0)), odd P_2k+1 carry the extra factor
    t(L)/t(l0).  ``free`` maps k to the free coefficients c_r of P_k, at most
    k // 2 of them; keys above n are ignored.  Their total count is
    (n^2 - p(n))/4.  Each P_k is returned as its coefficient list in L.
    """
    l0 = Scalar.of(l0)
    _reject_weights(l0, HALF)
    odd_factor = DensityOperator.lam_poly(1, [ZERO, ONE / (l0 - HALF)], HALF)
    out: List[List[Scalar]] = []
    for k in range(n + 1):
        given = free.get(k, ())
        if len(given) > k // 2:
            raise BadPolynomialError(f"P_{k} admits at most {k // 2} free coefficients")
        poly = DensityOperator.identity(1) + even_t_family(1, l0, given)
        if k % 2:
            poly = odd_factor @ poly
        out.append([poly.coefficient(r, ()).const_value() for r in range(poly.lam_degree() + 1)])
    return out


# -- the Schwarzian and one-dimensional coordinate changes ---------------------

def _schwarzian(op: DensityOperator, l0: Scalar, d) -> DiffPolynomial:
    """theta - 2 gamma' + (2/3) a'' for op = a D^2 + b D + c on the line, with
    gamma = (b - a')/(2 l0 - 1) and theta = (c - l0 gamma')/(l0 (l0 - 1)),
    every derivative taken by the derivation d."""
    a, b, c = (op.coefficient(0, (1,) * k) for k in (2, 1, 0))
    d_gamma = d((b - d(a)) * (ONE / (2 * l0 - 1)))
    theta = (c - d_gamma * l0) * (ONE / (l0 * (l0 - 1)))
    return theta - 2 * d_gamma + Fraction(2, 3) * d(d(a))


def _require_line_second_order(delta: DensityOperator, l0) -> Scalar:
    """On the line, weight-free, of order at most 2, at a base weight other
    than 0, 1/2 and 1, checked in that order; returns l0 as a Scalar."""
    if delta.dim != 1:
        raise DimensionNotOneError("the Schwarzian lives on the line")
    return _require_second_order(delta, l0)


def schwarzian_data(delta: DensityOperator, l0) -> DiffPolynomial:
    """theta - 2 gamma_x + (2/3) a_xx of a second-order operator on the line."""
    return _schwarzian(delta, _require_line_second_order(delta, l0), lambda f: f.derive(1))


class DiffeoJet1D(NamedTuple):
    """Jets of a line diffeomorphism: y1 = dy/dx and w = 1/y1.

    Higher jets come from differentiating y1, so the chain of derivative
    identities holds by construction.  ``pairs`` lists the monomial inverse
    relations available for reduction.  A NamedTuple that iterates as, and
    equals, the plain tuple (y1, w, pairs).
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
        return p.cancel_pairs(self.pairs)

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
        # y1 D_y o e = y1 d_y(e) + y1 e D_y, skipping a zero d_y(e)
        expansions.append(collect(
            (j + k, phi.y1 * f) for j, e in expansions[-1].items()
            for k, f in ((0, phi.d_y(e)), (1, e)) if k or not f.is_zero()))
    return phi.reduce(DensityOperator(1, collect(
        ((r, (1,) * j), c * e) for (r, alpha), c in conj.terms.items()
        for j, e in expansions[len(alpha)].items())))


def transformed_schwarzian_data(delta: DensityOperator, l0,
                                phi: DiffeoJet1D) -> DiffPolynomial:
    """The invariant of the transformed operator, computed in the image chart.

    All derivatives that enter the geometric data go through the image
    coordinate (w d/dx); coefficients stay written in source jets.
    """
    l0 = _require_line_second_order(delta, l0)
    return _schwarzian(coordinate_change_1d(delta, phi).restrict(l0), l0, phi.d_y)


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
    source = schwarzian_data(delta, l0)   # checks the input for both charts
    a = delta.coefficient(0, (1, 1))
    s_t = transformed_schwarzian_data(delta, l0, phi)
    lhs = phi.reduce_poly(s_t)
    rhs = phi.reduce_poly(source - Fraction(2, 3) * schwarzian_combination(phi) * a)
    return lhs == rhs
