"""Exact rational functions in named formal parameters.

Scalars form the coefficient field of the whole engine: quotients of
multivariate polynomials with Fraction coefficients, kept gcd-reduced with a
monic denominator so that two equal scalars always have identical term maps
and ``==`` is structural.  Monomials are sorted tuples of (name, exponent)
pairs; polynomials are dicts from monomial to Fraction with no zero entries.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from operator import itemgetter
from typing import Dict, Mapping, Tuple, Union

from .errors import CoefficientTooLargeError, ZeroDenominatorError

Mono = Tuple[Tuple[str, int], ...]
Poly = Dict[Mono, Fraction]

_ONE_MONO: Mono = ()

# Factors in a monomial are distinct, so sorting on them alone gives the order
# of the pairs without first testing factors for equality (JetSymbol.__eq__).
_by_factor = itemgetter(0)


def collect(pairs, out=None):
    """Sum the values of equal keys over (key, value) pairs into ``out``, a new
    dict by default.  Zero sums stay: the owning constructor drops them."""
    if out is None:
        out = {}
    for key, value in pairs:
        prev = out.get(key)
        out[key] = value if prev is None else prev + value
    return out


def mono_mul(a, b):
    """Product of monomials stored as tuples of (factor, exponent) pairs
    sorted by factor: parameter names here, jet symbols in ``jets``."""
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for factor, exp in b:
        out[factor] = out.get(factor, 0) + exp
    return tuple(sorted(out.items(), key=_by_factor))


def _mono_div(a: Mono, b: Mono):
    """a / b as a monomial, or None when not divisible."""
    out = dict(a)
    for name, exp in b:
        left = out.get(name, 0) - exp
        if left < 0:
            return None
        if left == 0:
            out.pop(name, None)
        else:
            out[name] = left
    return tuple(sorted(out.items()))


def _mono_vars(p: Poly):
    vs = set()
    for m in p:
        for name, _ in m:
            vs.add(name)
    return sorted(vs)


def _expvec(m: Mono, varlist) -> Tuple[int, ...]:
    d = dict(m)
    return tuple(d.get(v, 0) for v in varlist)


def _padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _pneg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}

def _pscale(a: Poly, k: Fraction) -> Poly:
    if not k:
        return {}
    return {m: c * k for m, c in a.items()}


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            s = out.get(m)
            if s is None:
                out[m] = ca * cb
            else:
                s = s + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def _pconst(k) -> Poly:
    k = Fraction(k)
    return {_ONE_MONO: k} if k else {}


def _is_const(p: Poly) -> bool:
    return not p or (len(p) == 1 and _ONE_MONO in p)


def _lead(p: Poly, varlist) -> Mono:
    return max(p, key=lambda m: _expvec(m, varlist))


def _pdiv_exact(a: Poly, b: Poly):
    """Exact multivariate division a / b, or None when b does not divide a."""
    if not a:
        return {}
    if not b:
        return None
    varlist = sorted(set(_mono_vars(a)) | set(_mono_vars(b)))
    lead_b = _lead(b, varlist)
    cb = b[lead_b]
    quo: Poly = {}
    rem = dict(a)
    while rem:
        lead_r = _lead(rem, varlist)
        m = _mono_div(lead_r, lead_b)
        if m is None:
            return None
        k = rem[lead_r] / cb
        quo[m] = quo.get(m, Fraction(0)) + k
        rem = _padd(rem, _pneg(_pmul({m: k}, b)))
    return {m: c for m, c in quo.items() if c}


def _split_by_var(p: Poly, v: str):
    """View p as a univariate polynomial in v with Poly coefficients."""
    out: Dict[int, Poly] = {}
    for m, c in p.items():
        d = dict(m)
        e = d.pop(v, 0)
        rest = tuple(sorted(d.items()))
        out.setdefault(e, {})[rest] = c
    return out


def _join_by_var(coeffs: Dict[int, Poly], v: str) -> Poly:
    out = collect((mono_mul(m, ((v, e),)) if e else m, c)
                  for e, q in coeffs.items() for m, c in q.items())
    return {m: c for m, c in out.items() if c}


def _content(coeffs: Dict[int, Poly]) -> Poly:
    g: Poly = {}
    for q in coeffs.values():
        g = _pgcd(g, q)
    return g


def _pgcd(a: Poly, b: Poly) -> Poly:
    """Multivariate gcd over Q via primitive pseudo-remainder sequences.

    The result is only defined up to a nonzero rational factor; callers
    normalize.  Inputs here are small (parameter polynomials), so the naive
    PRS is plenty.
    """
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    if _is_const(a) or _is_const(b):
        return _pconst(1)
    vs = sorted(set(_mono_vars(a)) | set(_mono_vars(b)))
    v = vs[0]
    ua, ub = _split_by_var(a, v), _split_by_var(b, v)
    if 0 in ua and len(ua) == 1:
        # a does not involve v after all; gcd with content of b
        return _pgcd(ua[0], _content(ub))
    if 0 in ub and len(ub) == 1:
        return _pgcd(ub[0], _content(ua))
    ca, cb = _content(ua), _content(ub)
    cg = _pgcd(ca, cb)
    pa = {e: _pdiv_exact(q, ca) for e, q in ua.items()}
    pb = {e: _pdiv_exact(q, cb) for e, q in ub.items()}
    while True:
        da, db = max(pa), max(pb)
        if da < db:
            pa, pb = pb, pa
            da, db = db, da
        # pseudo-remainder of pa by pb in the variable v
        r = pa
        while r and max(r) >= db:
            dr = max(r)
            lc_r, lc_b = r[dr], pb[db]
            shift = dr - db
            new: Dict[int, Poly] = {}
            for e, q in r.items():
                new[e] = _pmul(q, lc_b)
            for e, q in pb.items():
                new[e + shift] = _padd(new.get(e + shift, {}), _pneg(_pmul(q, lc_r)))
            r = {e: q for e, q in new.items() if q}
        if not r:
            g = _join_by_var(pb, v)
            break
        cr = _content(r)
        r = {e: _pdiv_exact(q, cr) for e, q in r.items()}
        # fix the free rational factor as well, or coefficients grow exponentially
        scale = Fraction(1) / max(r[max(r)].items())[1]
        r = {e: _pscale(q, scale) for e, q in r.items()}
        pa, pb = pb, r
        if max(pb) == 0:
            g = _pconst(1)
            break
    return _pmul(cg, g)


def _simple(text: str) -> bool:
    """Whether rendered text is one optionally negated atom, needing no parentheses."""
    core = text[1:] if text.startswith("-") else text
    return not any(ch in core for ch in "+- ")


def render_sum(terms) -> str:
    """Render (coefficient, factor strings) pairs as a signed sum.

    Unit coefficients of nonempty products are dropped, a coefficient whose
    text is not a single atom is parenthesized, and a negative term joins the
    sum as `` - ``.
    """
    out = ""
    for coeff, factors in terms:
        product = "*".join(factors)
        if product and coeff == 1:
            body = product
        elif product and coeff == -1:
            body = "-" + product
        else:
            body = str(coeff)
            if not _simple(body):
                body = f"({body})"
            if product:
                body += "*" + product
        if not out:
            out = body
        elif body.startswith("-"):
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out or "0"


def _pstr(p: Poly) -> str:
    # str() of an int with more digits than the interpreter's int-string limit
    # raises ValueError.  Such an int is >= 10^limit > 2^(3 limit), so the
    # bit-length test keeps the exact comparison off ordinary coefficients.
    limit = sys.get_int_max_str_digits()
    for c in p.values():
        big = max(abs(c.numerator), c.denominator)
        if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
            raise CoefficientTooLargeError(f"a coefficient has more than {limit} digits")
    return render_sum(
        (p[m], [name if exp == 1 else f"{name}^{exp}" for name, exp in m])
        for m in sorted(p, key=lambda m: (sum(e for _, e in m), m)))


class Scalar:
    """Canonical quotient num/den of parameter polynomials.

    Invariants: den is nonzero and monic in the lexicographic order,
    gcd(num, den) is constant, and num is empty only for zero.  Under these,
    structural equality of the term maps decides mathematical equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        # raw constructor; use _make for normalization
        self.num = num
        self.den = den

    @staticmethod
    def _make(num: Poly, den: Poly) -> "Scalar":
        if not den:
            raise ZeroDenominatorError("division by the zero scalar")
        if not num:
            return Scalar({}, _pconst(1))
        if _is_const(den):
            c = den[_ONE_MONO]
            if c == 1:
                return Scalar(num, den)
            return Scalar(_pscale(num, Fraction(1) / c), _pconst(1))
        g = _pgcd(num, den)
        if not _is_const(g):
            num = _pdiv_exact(num, g)
            den = _pdiv_exact(den, g)
        lc = den[_lead(den, _mono_vars(den))]
        if lc != 1:
            inv = Fraction(1) / lc
            num = _pscale(num, inv)
            den = _pscale(den, inv)
        return Scalar(num, den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value: Union[int, Fraction, "Scalar"]) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(_pconst(value), _pconst(1))

    @staticmethod
    def param(name: str) -> "Scalar":
        return Scalar({((name, 1),): Fraction(1)}, _pconst(1))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == self.den

    def is_rational(self) -> bool:
        return _is_const(self.num) and _is_const(self.den)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not a plain rational")
        if not self.num:
            return Fraction(0)
        return self.num[_ONE_MONO] / self.den[_ONE_MONO]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Scalar":
        if not isinstance(other, (int, Fraction, Scalar)):
            return NotImplemented
        other = Scalar.of(other)
        if self.den == other.den:
            return Scalar._make(_padd(self.num, other.num), self.den)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return Scalar._make(num, _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(_pneg(self.num), self.den)

    def __sub__(self, other) -> "Scalar":
        if not isinstance(other, (int, Fraction, Scalar)):
            return NotImplemented
        return self + (-Scalar.of(other))

    def __rsub__(self, other) -> "Scalar":
        return Scalar.of(other) + (-self)

    def __mul__(self, other) -> "Scalar":
        if not isinstance(other, (int, Fraction, Scalar)):
            return NotImplemented
        other = Scalar.of(other)
        return Scalar._make(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        if not isinstance(other, (int, Fraction, Scalar)):
            return NotImplemented
        other = Scalar.of(other)
        if other.is_zero():
            raise ZeroDenominatorError("division by the zero scalar")
        return Scalar._make(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.of(other) / self

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return Scalar.of(1) / (self ** (-n))
        out = Scalar.of(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # equal to the hash of the int or Fraction a rational scalar equals
        if self.is_rational():
            return hash(self.num.get(_ONE_MONO, 0))
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, "Scalar"]) -> "Scalar":
        """Substitute parameters; raises ZeroDenominatorError when the
        denominator vanishes identically under the binding."""

        def eval_poly(p: Poly) -> "Scalar":
            total = Scalar.of(0)
            for m, c in p.items():
                term = Scalar.of(c)
                for name, exp in m:
                    base = bindings.get(name)
                    if base is None:
                        base = Scalar.param(name)
                    term = term * base ** exp
                total = total + term
            return total

        den = eval_poly(self.den)
        if den.is_zero():
            raise ZeroDenominatorError(
                f"substitution makes denominator {_pstr(self.den)} vanish")
        return eval_poly(self.num) / den

    def coefficients_in(self, name: str) -> Dict[int, "Scalar"]:
        """Coefficients of self as a polynomial in the parameter ``name``.

        Raises ValueError when ``name`` occurs in the denominator.
        """
        if any(var == name for m in self.den for var, _ in m):
            raise ValueError(f"{self} is not polynomial in {name}")
        return {e: Scalar._make(p, self.den) for e, p in _split_by_var(self.num, name).items()}

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        num = _pstr(self.num)
        if self.den == _pconst(1):
            return num
        den = _pstr(self.den)
        if len(self.num) > 1:
            num = f"({num})"
        if len(self.den) > 1 or "*" in den:   # k1*l0 as well as l0 + 1
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


ZERO = Scalar.of(0)
ONE = Scalar.of(1)
HALF = Scalar.of(Fraction(1, 2))
