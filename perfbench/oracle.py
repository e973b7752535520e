"""Independent sympy oracle for the benchmark's expected outputs.

It shares no code with the engine.  Every engine operator is turned into its
action on a concrete density: jet symbols become fixed polynomials in x1..xd
(derivative indices become derivatives), the parameter l0 and the weight L
become fixed rationals, and the volume is rho = exp(ell) for a fixed
polynomial ell.  The constructions (canonical lift, adjoint, Lie derivative,
the lifting handles) are re-derived here from their definitions and applied
to the same density, and both sides are compared exactly at rational points.

Conjugation by rho^s is applied in expanded form, rho^s d_i rho^-s = d_i -
s ell_i, so every function stays a polynomial (sympy ``Poly`` over QQ).  An
operator A is represented by conj(g, s) = rho^s A(rho^-s g).  Only
make_expected.py imports this module.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Callable, Dict

import sympy as sp

X = sp.symbols("x1:4")
L0 = Fraction(2, 7)
LAM = Fraction(-3, 5)
POINTS = [(Fraction(1, 3), Fraction(-2, 5), Fraction(3, 4)),
          (Fraction(-1, 2), Fraction(1, 7), Fraction(2, 3))]

Conj = Callable[[sp.Poly, Fraction], sp.Poly]


def _coef(name: str, k: int) -> Fraction:
    h = int(hashlib.sha256(f"{name}/{k}".encode()).hexdigest()[:8], 16)
    return Fraction(h % 7 - 3 or 1, 1 + h % 4)


def _q(value) -> sp.Rational:
    value = Fraction(value)
    return sp.Rational(value.numerator, value.denominator)


def _scalar(s) -> Fraction:
    """An engine Scalar at l0 = L0."""
    def poly(p):
        total = Fraction(0)
        for mono, c in p.items():
            term = c
            for name, exp in mono:
                term *= {"l0": L0}[name] ** exp
            total += term
        return total
    return poly(s.num) / poly(s.den)


class Model:
    """Concrete functions for jets, and the density the operators act on."""

    def __init__(self, dim: int):
        self.dim = dim
        self.x = X[:dim]
        self.points = [p[:dim] for p in POINTS]
        self._funcs: Dict[tuple, sp.Poly] = {}
        self._values: Dict[tuple, Fraction] = {}
        self.zero = self.poly(0)
        self.ell_d = [self.function("ell", ()).diff(v) for v in self.x]
        x0, xl = self.x[0], self.x[-1]
        # degree 7, so that every derivative of order <= 6 is nonzero
        self.f = self.poly(1 + x0 ** 3 * xl ** 4 - 2 * x0 ** 7 + 3 * xl ** 6 * x0
                           + x0 * xl + xl ** 5)

    def poly(self, expr) -> sp.Poly:
        return sp.Poly(expr, *self.x, domain="QQ")

    def function(self, base: str, upper) -> sp.Poly:
        """A cubic polynomial fixed by the jet's name; x[i] is the coordinate."""
        if base == "x":
            return self.poly(self.x[upper[0] - 1])
        key = (base, tuple(upper))
        if key not in self._funcs:
            name = f"{base}{list(upper)}"
            monos = [sp.Integer(1)] + list(self.x) + [
                a * b for i, a in enumerate(self.x) for b in self.x[i:]]
            monos += [self.x[0] ** 3, self.x[-1] ** 2 * self.x[0]]
            self._funcs[key] = self.poly(sum(_q(_coef(name, k)) * m
                                             for k, m in enumerate(monos)))
        return self._funcs[key]

    def jet(self, sym) -> sp.Poly:
        p = self.function(sym.base, sym.upper)
        for i in sym.lower:
            p = p.diff(self.x[i - 1])
        return p

    def diff_poly(self, c) -> sp.Poly:
        """An engine DiffPolynomial as a polynomial in x."""
        total = self.zero
        for mono, s in c.terms.items():
            term = self.poly(_q(_scalar(s)))
            for sym, exp in mono:
                term = term * self.jet(sym) ** exp
            total = total + term
        return total

    # -- the engine's operator on f, at the sample points -----------------------------

    def _at(self, p: sp.Poly, point) -> Fraction:
        value = sp.Rational(p.as_expr().subs(dict(zip(self.x, map(_q, point)))))
        return Fraction(int(value.p), int(value.q))

    def _cached(self, key, make) -> Fraction:
        if key not in self._values:
            self._values[key] = make()
        return self._values[key]

    def _coeff_at(self, c, point) -> Fraction:
        total = Fraction(0)
        for mono, s in c.terms.items():
            term = _scalar(s)
            for sym, exp in mono:
                term *= self._cached((sym, point),
                                     lambda: self._at(self.jet(sym), point)) ** exp
            total += term
        return total

    def _f_at(self, alpha, point) -> Fraction:
        def make():
            d = self.f
            for i in alpha:
                d = d.diff(self.x[i - 1])
            return self._at(d, point)
        return self._cached(("f", alpha, point), make)

    def agrees(self, op, lam: Fraction, want: sp.Poly) -> bool:
        """Engine operator sum c L^r D^alpha applied to f of weight lam equals
        the oracle's polynomial, exactly, at every sample point."""
        for point in self.points:
            got = sum((self._coeff_at(c, point) * lam ** r * self._f_at(alpha, point)
                       for (r, alpha), c in op.terms.items()), Fraction(0))
            if got != self._at(want, point):
                return False
        return True

    # -- operators as conjugation actions --------------------------------------------

    def nabla(self, g: sp.Poly, alpha, s: Fraction) -> sp.Poly:
        """rho^s d^alpha rho^-s g, one d_i - s ell_i at a time."""
        for i in alpha:
            g = g.diff(self.x[i - 1]) - self.ell_d[i - 1] * g * _q(s)
        return g

    def operator(self, op) -> Conj:
        """A weight-free engine operator D = sum c_alpha d^alpha."""
        coeffs = [(alpha, self.diff_poly(c)) for (r, alpha), c in op.terms.items()]
        return lambda g, s: sum((c * self.nabla(g, a, s) for a, c in coeffs), self.zero)

    def operator_adjoint(self, op) -> Conj:
        """Its formal adjoint D* g = sum (-1)^|alpha| d^alpha (c g)."""
        coeffs = [(alpha, self.diff_poly(c)) for (r, alpha), c in op.terms.items()]
        return lambda g, s: sum((self.nabla(c * g, a, s) * (-1) ** len(a)
                                 for a, c in coeffs), self.zero)

    def lie(self, comps, weight: Fraction) -> Conj:
        """Lie derivative X^i d_i + weight div X."""
        div = sum((c.diff(v) for c, v in zip(comps, self.x)), self.zero) * _q(weight)
        return lambda g, s: sum((c * self.nabla(g, (i,), s)
                                 for i, c in enumerate(comps, start=1)), self.zero) + div * g

    def lie_adjoint(self, comps, weight: Fraction) -> Conj:
        div = sum((c.diff(v) for c, v in zip(comps, self.x)), self.zero) * _q(weight)
        return lambda g, s: div * g - sum((self.nabla(c * g, (i,), s)
                                           for i, c in enumerate(comps, start=1)),
                                          self.zero)

    def field(self, comps):
        return [self.diff_poly(c) for c in comps]


# The canonical lift of D at weight lam is rho^(lam-l0) D rho^-(lam-l0); by
# L* = 1 - L its adjoint at lam is rho^-(1-lam-l0) D* rho^(1-lam-l0).

def lift_at(d: Conj, lam: Fraction):
    return lambda g: d(g, lam - L0)


def lift_adjoint_at(d_adj: Conj, lam: Fraction):
    return lambda g: d_adj(g, -(1 - lam - L0))


def handle(m: Model, kind: str, d: Conj, d_adj: Conj, n: int, params, lam: Fraction):
    """h(D) at weight lam, from each handle's definition."""
    lift, lift_adj = lift_at(d, lam), lift_adjoint_at(d_adj, lam)
    if kind == "canonical":
        return lift
    if kind == "distinguished":
        den = 2 * L0 - 1
        a, b = _q((lam + L0 - 1) / den), _q((-1) ** n * (L0 - lam) / den)
        return lambda g: lift(g) * a + lift_adj(g) * b
    if kind == "vol":
        b, u = params.b.as_fraction(), lam - L0
        one = m.poly(1)
        f_c, f_d = lift_at(d, Fraction(0))(one), lift_adjoint_at(d_adj, Fraction(0))(one)
        vertical = m.zero
        for k, (ck, dk) in enumerate(zip(params.c, params.d), start=1):
            vertical = (vertical + f_c * _q(u ** k * ck.as_fraction())
                        + f_d * _q(u ** k * dk.as_fraction()))
        sign = (-1) ** params.n
        return lambda g: (lift(g) * _q(1 - b * u) + lift_adj(g) * _q(b * sign * u)
                          + vertical * g)
    raise KeyError(kind)


def check_compose_swell(op, outputs) -> bool:
    """lifted, A* A and A A, with A the lift applied as a function."""
    lifted, sym, square = outputs
    m = Model(op.dim)
    lift = lift_at(m.operator(op), LAM)
    lift_adj = lift_adjoint_at(m.operator_adjoint(op), LAM)
    once = lift(m.f)
    return (m.agrees(lifted, LAM, once)
            and m.agrees(square, LAM, lift(once))
            and m.agrees(sym, LAM, lift_adj(once)))


def check_defect(delta, lifting_handle, comps, defect) -> bool:
    """ad_X(h(D)) - h(ad_X D) on the density f of weight LAM, where ad_X D is
    the weight-free commutator [Lie_X at l0, D]."""
    m = Model(delta.dim)
    xs = m.field(comps)
    n = delta.total_order()
    d, d_adj = m.operator(delta), m.operator_adjoint(delta)
    lie0, lie0_adj = m.lie(xs, L0), m.lie_adjoint(xs, L0)

    def moved(g, s):
        return lie0(d(g, s), s) - d(lie0(g, s), s)

    def moved_adj(g, s):       # (Lie D - D Lie)* = D* Lie* - Lie* D*
        return d_adj(lie0_adj(g, s), s) - lie0_adj(d_adj(g, s), s)

    kind, params = lifting_handle.kind, lifting_handle.params
    h = handle(m, kind, d, d_adj, n, params, LAM)
    h_moved = handle(m, kind, moved, moved_adj, n, params, LAM)
    lie = m.lie(xs, LAM)
    want = lie(h(m.f), 0) - h(lie(m.f, 0)) - h_moved(m.f)
    return m.agrees(defect, LAM, want)


def check_restricts(lifted, delta) -> bool:
    """The pencil at the base weight is the input operator."""
    m = Model(delta.dim)
    return m.agrees(lifted, L0, m.operator(delta)(m.f, Fraction(0)))


def check_self_adjoint(op, sign) -> bool:
    """op* = sign op, with op* from integration by parts and L* = 1 - L."""
    m = Model(op.dim)
    adj = m.zero
    for (r, alpha), c in op.terms.items():
        adj = adj + m.nabla(m.diff_poly(c) * m.f, alpha, Fraction(0)) * _q(
            (-1) ** len(alpha) * (1 - LAM) ** r / Fraction(sign))
    return m.agrees(op, LAM, adj)


def check_taylor(op, coeffs) -> bool:
    """op = sum_k (L - l0)^k lift(D_k)."""
    m = Model(op.dim)
    total = m.zero
    for k, dk in enumerate(coeffs):
        total = total + lift_at(m.operator(dk), LAM)(m.f) * _q((LAM - L0) ** k)
    return m.agrees(op, LAM, total)
