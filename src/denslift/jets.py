"""Differential polynomials in formal jet symbols.

A jet symbol is a coefficient function known only through its derivatives:
``S`` with upper indices for tensor components, plus a symmetric derivative
multi-index recording how many times each axis has hit it.  DiffPolynomial is
the free commutative ring they generate over the Scalar field, together with
the total derivative that prolongs multi-indices via the Leibniz rule.

Symbols may carry a registered derivative rule (``w`` with dw = -w^2*y_xx
encodes 1/y_x); such symbols never acquire raw multi-indices, every derivative
goes through the rule.  Registered inverse pairs (w with y_x) let callers
cancel ``w*y_x -> 1`` monomial-by-monomial where the theory works modulo that
relation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from .errors import DuplicateSymbolError
from .scalars import Scalar, render_sum


@dataclass(frozen=True, order=True)
class JetSymbol:
    """One jet coordinate: base name, sorted upper indices, sorted multi-index."""

    base: str
    upper: Tuple[int, ...] = ()
    lower: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(sorted(self.upper)))
        object.__setattr__(self, "lower", tuple(sorted(self.lower)))
        object.__setattr__(self, "_hash", hash((self.base, self.upper, self.lower)))

    def __hash__(self):
        return self._hash

    def with_derivative(self, axis: int) -> "JetSymbol":
        return JetSymbol(self.base, self.upper, self.lower + (axis,))

    def __str__(self) -> str:
        s = self.base
        if self.upper:
            s += "[" + ",".join(str(i) for i in self.upper) + "]"
        for i in self.lower:
            s += f"_,{i}"
        return s


# A monomial is a sorted tuple of (symbol, exponent) pairs.
JetMono = Tuple[Tuple[JetSymbol, int], ...]

RuleFn = Callable[[JetSymbol, int], "DiffPolynomial"]


class SymbolRules:
    """Append-only registry of derivative rules and inverse pairs.

    Writes happen during setup; reads are lock-free afterwards (dict reads are
    atomic under CPython).
    """

    def __init__(self):
        self._rules: Dict[str, Optional[RuleFn]] = {}
        self._pairs: Dict[JetSymbol, JetSymbol] = {}
        self._lock = threading.Lock()

    def register(self, base: str, rule=None, inverse_of: Optional[JetSymbol] = None):
        if not self._add(base, rule, inverse_of):
            raise DuplicateSymbolError(f"symbol {base!r} already registered")

    def ensure(self, base: str, rule=None, inverse_of: Optional[JetSymbol] = None):
        """Idempotent registration used by modules that set up stock symbols."""
        self._add(base, rule, inverse_of)

    def _add(self, base: str, rule, inverse_of: Optional[JetSymbol]) -> bool:
        """Register unless base is taken; returns whether it registered."""
        with self._lock:
            if base in self._rules:
                return False
            self._rules[base] = _normalize_rule(rule)
            if inverse_of is not None:
                self._pairs[JetSymbol(base)] = inverse_of
            return True

    def rule_for(self, base: str) -> Optional[RuleFn]:
        return self._rules.get(base)

    def inverse_pairs(self):
        return tuple(self._pairs.items())


def _normalize_rule(rule) -> Optional[RuleFn]:
    if rule is None or callable(rule):
        return rule
    table = dict(rule)

    def from_table(symbol: JetSymbol, axis: int):
        return table.get(axis, DiffPolynomial.zero())

    return from_table


REGISTRY = SymbolRules()


def register_symbol(base: str, rule=None, inverse_of: Optional[JetSymbol] = None):
    REGISTRY.register(base, rule, inverse_of)


def _coordinate_rule(symbol: JetSymbol, axis: int) -> "DiffPolynomial":
    if symbol.upper and symbol.upper[0] == axis:
        return DiffPolynomial.const(1)
    return DiffPolynomial.zero()


# Coordinate functions x[i] with derive(x[i], j) = delta_ij.
REGISTRY.ensure("x", _coordinate_rule)


def _mono_mul(a: JetMono, b: JetMono) -> JetMono:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for s, e in b:
        out[s] = out.get(s, 0) + e
    return tuple(sorted(out.items(), key=lambda kv: kv[0]))


class DiffPolynomial:
    """Finite Scalar-linear combination of jet monomials; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[JetMono, Scalar]] = None):
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "DiffPolynomial":
        return DiffPolynomial()

    @staticmethod
    def const(value) -> "DiffPolynomial":
        s = Scalar.of(value) if not isinstance(value, Scalar) else value
        if s.is_zero():
            return DiffPolynomial()
        return DiffPolynomial({(): s})

    @staticmethod
    def jet(base: str, upper: Iterable[int] = (), lower: Iterable[int] = ()) -> "DiffPolynomial":
        sym = JetSymbol(base, tuple(upper), tuple(lower))
        return DiffPolynomial({((sym, 1),): Scalar.of(1)})

    @staticmethod
    def of_symbol(sym: JetSymbol) -> "DiffPolynomial":
        return DiffPolynomial({((sym, 1),): Scalar.of(1)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self) -> Scalar:
        if not self.terms:
            return Scalar.of(0)
        return self.terms[()]

    def symbols(self):
        out = set()
        for m in self.terms:
            for s, _ in m:
                out.add(s)
        return out

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "DiffPolynomial":
        other = _coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                out[m] = s
        return DiffPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "DiffPolynomial":
        return DiffPolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "DiffPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "DiffPolynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "DiffPolynomial":
        if isinstance(other, (int, Fraction, Scalar)):
            s = Scalar.of(other)
            if s.is_zero():
                return DiffPolynomial()
            return DiffPolynomial({m: c * s for m, c in self.terms.items()})
        other = _coerce(other)
        out: Dict[JetMono, Scalar] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                s = out.get(m)
                out[m] = ca * cb if s is None else s + ca * cb
        return DiffPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DiffPolynomial":
        if n < 0:
            raise ValueError("negative powers of jet polynomials are not defined")
        out = DiffPolynomial.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Scalar)):
            other = DiffPolynomial.const(other)
        if not isinstance(other, DiffPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant hashes as the Scalar (and so the int or Fraction) it equals
        if self.is_const():
            return hash(self.const_value())
        return hash(frozenset(self.terms.items()))

    # -- calculus ----------------------------------------------------------

    def derive(self, axis: int) -> "DiffPolynomial":
        """Total derivative along an axis (Leibniz over monomial factors)."""
        out: Dict[JetMono, Scalar] = {}
        for m, c in self.terms.items():
            for k, (sym, exp) in enumerate(m):
                dsym = _derive_symbol(sym, axis)
                if dsym.is_zero():
                    continue
                rest = list(m)
                if exp == 1:
                    del rest[k]
                else:
                    rest[k] = (sym, exp - 1)
                rest_mono = tuple(rest)
                scale = c * exp
                for dm, dc in dsym.terms.items():
                    mono = _mono_mul(rest_mono, dm)
                    add = scale * dc
                    prev = out.get(mono)
                    out[mono] = add if prev is None else prev + add
        return DiffPolynomial(out)

    def substitute_params(self, bindings: Mapping[str, Scalar]) -> "DiffPolynomial":
        out: Dict[JetMono, Scalar] = {}
        for m, c in self.terms.items():
            s = c.substitute(bindings)
            prev = out.get(m)
            out[m] = s if prev is None else prev + s
        return DiffPolynomial(out)

    def substitute_jets(self, rewrite: Callable[[JetSymbol], Optional["DiffPolynomial"]]
                        ) -> "DiffPolynomial":
        """Rewrite symbols until no rule applies; rewrite returns None to keep."""
        current = self
        while True:
            hit = False
            out = DiffPolynomial.zero()
            for m, c in current.terms.items():
                factor = DiffPolynomial({(): c})
                for sym, exp in m:
                    image = rewrite(sym)
                    if image is None:
                        factor = factor * DiffPolynomial({((sym, exp),): Scalar.of(1)})
                    else:
                        hit = True
                        factor = factor * image ** exp
                out = out + factor
            current = out
            if not hit:
                return current

    def cancel_pairs(self, pairs=None) -> "DiffPolynomial":
        """Reduce monomials by registered inverse pairs (a*b -> 1)."""
        pairs = REGISTRY.inverse_pairs() if pairs is None else tuple(pairs)
        if not pairs:
            return self
        out: Dict[JetMono, Scalar] = {}
        for m, c in self.terms.items():
            d = dict(m)
            for a, bsym in pairs:
                k = min(d.get(a, 0), d.get(bsym, 0))
                if k:
                    for s in (a, bsym):
                        if d[s] == k:
                            del d[s]
                        else:
                            d[s] -= k
            mm = tuple(sorted(d.items(), key=lambda kv: kv[0]))
            prev = out.get(mm)
            out[mm] = c if prev is None else prev + c
        return DiffPolynomial(out)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        return render_sum(
            (self.terms[m], [str(sym) if exp == 1 else f"{sym}^{exp}" for sym, exp in m])
            for m in sorted(self.terms, key=_mono_sort_key))

    def __repr__(self) -> str:
        return f"DiffPolynomial({self})"


def _mono_sort_key(m: JetMono):
    return (-sum(e for _, e in m), tuple((s.base, s.upper, s.lower, e) for s, e in m))


def _derive_symbol(sym: JetSymbol, axis: int) -> DiffPolynomial:
    rule = REGISTRY.rule_for(sym.base)
    if rule is not None:
        return rule(sym, axis)
    return DiffPolynomial.of_symbol(sym.with_derivative(axis))


def _coerce(value) -> DiffPolynomial:
    if isinstance(value, DiffPolynomial):
        return value
    if isinstance(value, (int, Fraction, Scalar)):
        return DiffPolynomial.const(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to DiffPolynomial")
