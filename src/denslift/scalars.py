"""Exact rational functions in named formal parameters.

Scalars form the coefficient field of the whole engine.  A Scalar is a
rational content times a primitive integer numerator over a primitive integer
denominator: the two are coprime, both have a positive leading coefficient,
and they run over exactly the parameters the value involves.  So two equal
scalars have identical fields and ``==`` is structural.

Polynomials over the sorted parameter names are recursive dense tuples: a
polynomial in k variables is the tuple of its coefficients in the first one,
lowest degree first, each a polynomial in the other k - 1; with no variables
it is an int.  Zero is 0 at level 0 and () above it, and no tuple ends in a
zero.  Sums and products follow Henrici (Knuth, TAOCP vol. 2, 4.5.1), so gcds
are taken only between a numerator and the other operand's denominator, or
between the two denominators; the gcd itself is a pseudo-remainder sequence
over the coefficient ring (see _gcd).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import zip_longest
from math import gcd
from operator import itemgetter
from typing import Dict, Mapping, Union

from .errors import CoefficientTooLargeError, ZeroDenominatorError

# Factors in a monomial are distinct, so the (factor, exponent) pairs sort on the
# factor alone, one string compare each (a parameter name, or a jets.JetSymbol),
# where a tuple compare would first test the factors for equality.
_by_factor = itemgetter(0)

_FRACTION_ONE = Fraction(1)


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
    sorted by factor, like the jet monomials in ``jets`` and the keys of
    ``Scalar.num``."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:   # disjoint runs concatenate
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out = dict(a)
    for factor, exp in b:
        out[factor] = out.get(factor, 0) + exp
    return tuple(sorted(out.items(), key=_by_factor))


def collect_products(targets, left, right):
    """The one multiply-accumulate loop: for every (i, a1) in ``left[m1]`` and
    (m2, a2) in ``right``, add a1 * a2 at ``mono_mul(m1, m2)`` into ``targets[i]``;
    return ``targets``.  Zero sums stay.  A slot not all rational becomes an open
    sum (_Sum) at its second product, which ``jets.DiffPolynomial`` closes."""
    for m1, row in left.items():
        for m2, a2 in right:
            m = mono_mul(m1, m2)
            for i, a1 in row:
                t = targets[i]
                s = t.get(m)
                if s is None:
                    t[m] = _times(a1, a2)
                elif type(s) is _Sum:
                    s.add(a1, a2)
                elif s._vars or a1._vars or a2._vars:
                    t[m] = _Sum(s, a1, a2)
                else:   # all rational: one _plus costs less than opening a _Sum
                    t[m] = _plus(s, a2, a1._p * a2._p, a1._q * a2._q)
    return targets


# -- integer polynomials in k variables ------------------------------------------


def _one(k: int):
    p = 1
    for _ in range(k):
        p = (p,)
    return p


def _is_const(p, k: int) -> bool:
    for _ in range(k):
        if len(p) != 1:
            return False
        p = p[0]
    return True


def _lc(p, k: int) -> int:
    """Leading integer coefficient in the lexicographic order of the variables."""
    for _ in range(k):
        p = p[-1]
    return p


def _add(a, b, k: int):
    """a + b, in k >= 1 variables."""
    if len(a) < len(b):
        a, b = b, a
    if k == 1:
        out = [x + y for x, y in zip(a, b)]
    else:
        out = [_add(x, y, k - 1) for x, y in zip(a, b)]
    out.extend(a[len(b):])
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _scale(p, m: int, k: int):
    """p times the nonzero int m, in k >= 1 variables."""
    if m == 1:
        return p
    if k == 1:
        return tuple([x * m for x in p])
    return tuple([_scale(x, m, k - 1) for x in p])


def _iquo(p, m: int, k: int):
    """p over the int m, which divides every coefficient."""
    if m == 1:
        return p
    if not k:
        return p // m
    if k == 1:
        return tuple([x // m for x in p])
    return tuple([_iquo(x, m, k - 1) for x in p])


def _content(p, k: int) -> int:
    """The content of p with the sign of its leading coefficient."""
    c = _icont(p, k)
    return c if _lc(p, k) > 0 else -c


def _icont(p, k: int) -> int:
    """Nonnegative gcd of the integer coefficients."""
    if not k:
        return abs(p)
    if k == 1:
        return gcd(*p)
    g = 0
    for x in p:
        g = gcd(g, _icont(x, k - 1))
        if g == 1:
            break
    return g


def _mul(a, b, k: int):
    if not k:
        return a * b
    if not a or not b:
        return ()
    if len(a) < len(b):
        a, b = b, a
    zero = 0 if k == 1 else ()
    n = len(b)
    if b.count(zero) == n - 1:
        # b is c x^s: shift a in C, so high powers cost no Python loop over
        # their zero coefficients
        c = b[-1]
        if k == 1:
            a = _scale(a, c, 1)
        elif c != _one(k - 1):
            a = tuple([_mul(x, c, k - 1) if x else x for x in a])
        return (zero,) * (n - 1) + a
    if k == 1:
        out = [0] * (len(a) + n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        out[j] += x * y
        return tuple(out)
    out = [()] * (len(a) + n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = _add(out[i + j], _mul(x, y, k - 1), k - 1)
    return tuple(out)


def _submul(r, s: int, t, b, k: int) -> None:
    """r[s + j] -= t * b[j] for every j, in place, in k >= 1 variables."""
    if k == 1:
        r[s:s + len(b)] = [x - t * y for x, y in zip(r[s:s + len(b)], b)]
    else:
        minus_t = _scale(t, -1, k - 1)
        for j, y in enumerate(b, s):
            r[j] = _add(r[j], _mul(minus_t, y, k - 1), k - 1)


def _divexact(a, b, k: int):
    """a / b in k variables, where b divides a."""
    if not k:
        return a // b
    if not a:
        return ()
    n = len(b) - 1
    lb = b[-1]
    if not n:
        return tuple([_divexact(x, lb, k - 1) for x in a])
    r = list(a)
    q = [0 if k == 1 else ()] * (len(a) - n)
    for i in range(len(q) - 1, -1, -1):
        q[i] = t = _divexact(r[i + n], lb, k - 1)
        _submul(r, i, t, b, k)
    return tuple(q)


def _prem(a, b, k: int):
    """The pseudo-remainder lc(b)^(d+1) a mod b in the first variable, with
    d = len(a) - len(b) >= 0 and len(b) >= 2."""
    n = len(b) - 1
    lb, low = b[-1], b[:-1]
    r = list(a)
    for s in range(len(a) - 1 - n, -1, -1):
        t = r.pop()   # cancels against lb times the top of x^s b
        r = [v * lb for v in r] if k == 1 else [_mul(v, lb, k - 1) for v in r]
        if t:
            _submul(r, s, t, low, k)
    while r and not r[-1]:
        r.pop()
    return tuple(r)


def _coeff_gcd(p, k: int):
    """gcd of the coefficients of p in its first variable."""
    if k == 1:
        return gcd(*p)
    one = _one(k - 1)
    g = ()
    for x in p:
        if x:
            g = _gcd(g, x, k - 1)
            if g == one:
                break
    return g


def _gcd(a, b, k: int):
    """Greatest common divisor in Z[x1..xk], with a positive leading coefficient.

    The primitive parts run through the subresultant PRS (Brown & Traub
    1971; Knuth, TAOCP vol. 2, 4.6.1, Algorithm C): each remainder is divided
    exactly by g h^d, h is updated by repeated exact division (Lazard), and
    the content is taken once, at the end, so coefficients grow no further
    than the subresultants."""
    if not k:
        return gcd(a, b)
    if not a or not b:
        g = a or b
        return g if _lc(g, k) > 0 else _scale(g, -1, k)
    ca, cb = _coeff_gcd(a, k), _coeff_gcd(b, k)
    c = _gcd(ca, cb, k - 1)
    if len(a) == 1 or len(b) == 1:
        return (c,)
    one = _one(k - 1)
    a, b = (p if cp == one else _divexact(p, (cp,), k) for p, cp in ((a, ca), (b, cb)))
    if len(a) < len(b):
        a, b = b, a
    g = h = one
    while True:
        d = len(a) - len(b)
        r = _prem(a, b, k)
        if not r:
            break
        if len(r) == 1:
            b = _one(k)
            break
        m = g   # r is divisible by g h^d
        for _ in range(d):
            m = _mul(m, h, k - 1)
        a, b = b, _divexact(r, (m,), k)
        g = a[-1]
        if d:   # h = g^d / h^(d - 1), one exact division at a time
            m = g
            for _ in range(d - 1):
                m = _divexact(_mul(m, g, k - 1), h, k - 1)
            h = m
    cb = _coeff_gcd(b, k)
    b = b if cb == one else _divexact(b, (cb,), k)
    if _lc(b, k) < 0:
        b = _scale(b, -1, k)
    return b if c == one else tuple([_mul(c, x, k - 1) for x in b])


def _cancel(n, d, k: int):
    """n / gcd(n, d) and d / gcd(n, d)."""
    if _is_const(n, k) or _is_const(d, k):
        return n, d
    g = _gcd(n, d, k)
    if _is_const(g, k):
        return n, d
    return _divexact(n, g, k), _divexact(d, g, k)


def _levels(p, k: int, i: int, out: set) -> None:
    """Add to ``out`` the index of every variable that p involves."""
    if k:
        if len(p) > 1:
            out.add(i)
        for c in p:
            if c:
                _levels(c, k - 1, i + 1, out)


def _drop(p, keep):
    """p without the variables whose ``keep`` flag is false; it is constant in them."""
    if not keep:
        return p
    if keep[0]:
        return tuple([_drop(c, keep[1:]) for c in p])
    if p:
        return _drop(p[0], keep[1:])
    return () if any(keep) else 0


def _embed(p, src, dst):
    """p, over the sorted names ``src``, as a polynomial over their superset ``dst``."""
    if src == dst:
        return p
    if src and src[0] == dst[0]:
        return tuple([_embed(c, src[1:], dst[1:]) for c in p])
    return (_embed(p, src, dst[1:]),) if p else ()


def _terms(p, names, mono=()):
    """(monomial, int coefficient) pairs of the nonzero terms of p."""
    if not names:
        yield mono, p
        return
    name, rest = names[0], names[1:]
    for e, c in enumerate(p):
        if c:
            yield from _terms(c, rest, mono + ((name, e),) if e else mono)


# -- rendering --------------------------------------------------------------------


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


def _pstr(p: Dict) -> str:
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


# -- the field ----------------------------------------------------------------------


def _finish(names, p: int, q: int, n, d) -> "Scalar":
    """The Scalar (p/q) n/d, where q > 0 and n and d are primitive, coprime and
    have positive leading coefficients, over the variables among ``names`` they
    involve."""
    h = gcd(p, q)
    if h != 1:
        p, q = p // h, q // h
    k = len(names)
    if k < 2:
        if not k or len(n) == 1 == len(d):
            return Scalar((), p, q, 1, 1)
        return Scalar(names, p, q, n, d)
    used: set = set()
    _levels(n, k, 0, used)
    _levels(d, k, 0, used)
    if len(used) == k:
        return Scalar(names, p, q, n, d)
    keep = [i in used for i in range(k)]
    return Scalar(tuple(v for v, u in zip(names, keep) if u), p, q,
                  _drop(n, keep), _drop(d, keep))


def _common(a: "Scalar", b: "Scalar"):
    """The union of two Scalars' variables and their numerators and
    denominators over it."""
    va, vb = a._vars, b._vars
    if va == vb:
        return va, a._n, a._d, b._n, b._d
    names = tuple(sorted(set(va).union(vb)))
    return (names, _embed(a._n, va, names), _embed(a._d, va, names),
            _embed(b._n, vb, names), _embed(b._d, vb, names))


def _plus(a: "Scalar", b: "Scalar", p2: int, q2: int) -> "Scalar":
    """a plus b with its content replaced by p2/q2 (q2 > 0, not necessarily in
    lowest terms), so that a product by a rational is summed unbuilt."""
    p1, q1 = a._p, a._q
    if not p2:
        return a
    if not p1:
        h = gcd(p2, q2)
        return Scalar(b._vars, p2 // h, q2 // h, b._n, b._d)
    # a + b = (x1 n1/d1 + x2 n2/d2) / l over the contents' common denominator l
    g = gcd(q1, q2)
    x1, x2, l = p1 * (q2 // g), p2 * (q1 // g), q1 // g * q2
    if not a._vars and not b._vars:
        u = x1 + x2
        return _finish((), u, l, 1, 1) if u else ZERO
    if len(a._vars) == 1 and a._vars == b._vars and len(a._d) == 1 == len(b._d):
        # one parameter over constant denominators: one pass over the coefficients,
        # whose gcd is the content; _finish drops the parameter from a constant sum
        u = [x1 * s + x2 * t for s, t in zip_longest(a._n, b._n, fillvalue=0)]
        return _dense(a._vars, u, l)
    names, n1, d1, n2, d2 = _common(a, b)
    k = len(names)
    if d1 == d2:
        u = _add(_scale(n1, x1, k), _scale(n2, x2, k), k)
        if not u:
            return ZERO
        u, d = _cancel(u, d1, k)
    else:
        # The denominators' common factor g is taken out first (Henrici); the
        # sum of the cross terms, nonzero as d1 != d2, can then share a factor
        # with g only.
        g = None if _is_const(d1, k) or _is_const(d2, k) else _gcd(d1, d2, k)
        if g is not None and not _is_const(g, k):
            d1, d2 = _divexact(d1, g, k), _divexact(d2, g, k)
        else:
            g = None
        u = _add(_scale(_mul(n1, d2, k), x1, k), _scale(_mul(n2, d1, k), x2, k), k)
        d = _mul(d1, d2, k)
        if g is not None:
            u, g = _cancel(u, g, k)
            d = _mul(d, g, k)
    m = _content(u, k)
    return _finish(names, m, l, _iquo(u, m, k), d)


class _Sum:
    """A kernel slot's open sum: integers ``c`` in the parameter ``name`` (if any)
    over the integer ``den``, which rationals and polynomials in ``name`` over
    constants join with no gcd, and ``rest``, the Scalar sum of all others."""

    __slots__ = ("name", "c", "den", "rest")

    def __init__(self, s: "Scalar", a1: "Scalar", a2: "Scalar"):
        flat = not s._vars or s._d == (1,)   # (1,) is a constant in one parameter only
        self.name, self.den, self.rest = (s._vars, s._q, ZERO) if flat else ((), 1, s)
        self.c = ([s._p * x for x in s._n] if s._vars else [s._p]) if flat else []
        self.add(a1, a2)

    def add(self, a1: "Scalar", a2: "Scalar") -> None:
        if not a1._vars:   # a factor with parameters, if any, first
            a1, a2 = a2, a1
        v, w = a1._vars, a2._vars
        if w:
            n = _mul(a1._n, a2._n, 1) if v == w and a1._d == a2._d == (1,) else None
        else:
            n = (1,) if not v else a1._n if a1._d == (1,) else None
        if n is None or v and self.name and v != self.name:
            t = _times(a1, a2)
            self.rest = _plus(self.rest, t, t._p, t._q)
            return
        q, den, c = a1._q * a2._q, self.den, self.c
        if den % q:   # the common denominator grows to lcm(den, q)
            g = q // gcd(den, q)
            c = [y * g for y in c]
            self.den = den = den * g
        f = a1._p * a2._p * (den // q)
        self.name = v or self.name
        d = [y + f * z for y, z in zip(c, n)]
        self.c = d if len(c) == len(n) else d + (c[len(n):] or [f * z for z in n[len(c):]])

    def close(self) -> "Scalar":
        out, rest = _dense(self.name, self.c, self.den), self.rest
        return _plus(rest, out, out._p, out._q) if rest._p else out


def _dense(names, u: list, q: int) -> "Scalar":
    """The Scalar u / q, u the integer coefficients of a polynomial in the one
    parameter ``names`` (or a constant when names is empty), q > 0."""
    while u and not u[-1]:
        u.pop()
    if not u:
        return ZERO
    m = gcd(*u) if u[-1] > 0 else -gcd(*u)
    return _finish(names, m, q, tuple([c // m for c in u]), (1,))


def _times(a: "Scalar", b: "Scalar") -> "Scalar":
    p = a._p * b._p
    if not p:
        return ZERO
    q = a._q * b._q
    if not a._vars or not b._vars:
        h = gcd(p, q)
        s = b if not a._vars else a
        return Scalar(s._vars, p // h, q // h, s._n, s._d)
    if len(a._vars) == 1 and a._vars == b._vars and len(a._d) == 1 == len(b._d):
        # one parameter over constant denominators: the numerators' product is
        # primitive with a positive leading coefficient (Gauss's lemma), no gcd
        return _finish(a._vars, p, q, _mul(a._n, b._n, 1), a._d)
    names, n1, d1, n2, d2 = _common(a, b)
    k = len(names)
    n1, d2 = _cancel(n1, d2, k)
    n2, d1 = _cancel(n2, d1, k)
    return _finish(names, p, q, _mul(n1, n2, k), _mul(d1, d2, k))


def _operand(x):
    """An int or Fraction as a Scalar; None for any other type, for which the
    calling dunder returns NotImplemented."""
    return Scalar.of(x) if isinstance(x, (int, Fraction)) else None


def _inverse(s: "Scalar") -> "Scalar":
    p, q = s._q, s._p
    if not q:
        raise ZeroDenominatorError("division by the zero scalar")
    if q < 0:
        p, q = -p, -q
    return Scalar(s._vars, p, q, s._d, s._n)


class Scalar:
    """Canonical quotient of parameter polynomials.

    The fields are the sorted names of the parameters the value involves, the
    content p/q in lowest terms with q > 0, and the recursive dense integer
    polynomials n and d over those names; the value is (p/q) n/d.  n and d
    are primitive, coprime and have positive leading coefficients, and zero
    is (0/1) 1/1 with no names.  Under these, structural equality of the
    fields decides mathematical equality.
    """

    __slots__ = ("_vars", "_p", "_q", "_n", "_d")

    def __init__(self, names, p: int, q: int, n, d):
        # raw constructor: the fields must already be canonical
        self._vars = names
        self._p = p
        self._q = q
        self._n = n
        self._d = d

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value: Union[int, Fraction, "Scalar"]) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, int):
            return Scalar((), int(value), 1, 1, 1)
        value = Fraction(value)
        return Scalar((), value.numerator, value.denominator, 1, 1)

    @staticmethod
    def param(name: str) -> "Scalar":
        return Scalar((name,), 1, 1, (0, 1), (1,))

    # -- views -------------------------------------------------------------

    @property
    def num(self) -> Dict:
        """The numerator as a dict from monomial, a sorted tuple of (name,
        exponent) pairs, to nonzero Fraction, over the monic ``den``; {} for 0."""
        if not self._p:
            return {}
        p, q = self._p, self._q * _lc(self._d, len(self._vars))
        return {m: Fraction(p * a, q) for m, a in _terms(self._n, self._vars)}

    @property
    def den(self) -> Dict:
        """The denominator as a dict like ``num``, monic in the lexicographic
        order of its sorted names; {(): 1} for a polynomial."""
        k = len(self._vars)
        if _is_const(self._d, k):
            return {(): _FRACTION_ONE}
        lc = _lc(self._d, k)
        return {m: Fraction(a, lc) for m, a in _terms(self._d, self._vars)}

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._p

    def as_fraction(self) -> Fraction:
        if self._vars:
            raise ValueError(f"scalar {self} is not a plain rational")
        return Fraction(self._p, self._q)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Scalar":
        o = other if type(other) is Scalar else _operand(other)
        return NotImplemented if o is None else _plus(self, o, o._p, o._q)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(self._vars, -self._p, self._q, self._n, self._d)

    def __sub__(self, other) -> "Scalar":
        o = other if type(other) is Scalar else _operand(other)
        return NotImplemented if o is None else _plus(self, o, -o._p, o._q)

    def __rsub__(self, other) -> "Scalar":
        o = other if type(other) is Scalar else _operand(other)
        return NotImplemented if o is None else _plus(o, self, -self._p, self._q)

    def __mul__(self, other) -> "Scalar":
        o = other if type(other) is Scalar else _operand(other)
        return NotImplemented if o is None else _times(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        o = other if type(other) is Scalar else _operand(other)
        return NotImplemented if o is None else _times(self, _inverse(o))

    def __rtruediv__(self, other) -> "Scalar":
        o = other if type(other) is Scalar else _operand(other)
        return NotImplemented if o is None else _times(o, _inverse(self))

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return Scalar.of(1) / (self ** (-n))
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:   # no square past the top bit
                base = base * base
        return Scalar.of(1) if out is None else out

    def __eq__(self, other) -> bool:
        o = other if type(other) is Scalar else _operand(other)
        if o is None:
            return NotImplemented
        return (self._p == o._p and self._q == o._q and self._n == o._n
                and self._d == o._d and self._vars == o._vars)

    def __hash__(self):
        # equal to the hash of the int or Fraction a rational scalar equals
        if not self._vars:
            return hash(self._p) if self._q == 1 else hash(Fraction(self._p, self._q))
        return hash((self._vars, self._p, self._q, self._n, self._d))

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, "Scalar"]) -> "Scalar":
        """Substitute parameters; raises ZeroDenominatorError when the
        denominator vanishes identically under the binding.  A name bound to
        None, or not at all, stays a parameter."""
        names = self._vars
        values = [bindings.get(v) for v in names]
        values = [Scalar.param(v) if x is None else x for v, x in zip(names, values)]

        def horner(p, i: int) -> "Scalar":
            if i == len(names):
                return Scalar.of(p)
            out = ZERO
            for c in reversed(p):
                out = out * values[i] + horner(c, i + 1)
            return out

        den = horner(self._d, 0)
        if den.is_zero():
            raise ZeroDenominatorError(
                f"substitution makes denominator {_pstr(self.den)} vanish")
        return horner(self._n, 0) * Fraction(self._p, self._q) / den

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        num = self.num
        text = _pstr(num)
        if _is_const(self._d, len(self._vars)):
            return text
        den = self.den
        den_text = _pstr(den)
        if len(num) > 1:
            text = f"({text})"
        if len(den) > 1 or "*" in den_text:   # k1*l0 as well as l0 + 1
            den_text = f"({den_text})"
        return f"{text}/{den_text}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


ZERO = Scalar((), 0, 1, 1, 1)
ONE = Scalar.of(1)
HALF = Scalar.of(Fraction(1, 2))
