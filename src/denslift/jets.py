"""Differential polynomials in formal jet symbols.

A jet symbol is a coefficient function known only through its derivatives:
``S`` with upper indices for tensor components, plus a symmetric derivative
multi-index recording how many times each axis has hit it.  DiffPolynomial is
the free commutative ring they generate over the Scalar field, together with
the total derivative that prolongs multi-indices via the Leibniz rule.

A monomial is a tuple of (symbol, exponent) pairs sorted by symbol, and each
symbol is a JetSymbol: a str that encodes (base, upper, lower) so that string
order is their tuple order.  So monomial hashes, dict lookups and factor
compares run on cached C strings, monomials sort and render the same in every
process, and pickles carry the three fields.

Symbols may carry a registered derivative rule (``w`` with dw = -w^2*y_xx
encodes 1/y_x); such symbols never acquire raw multi-indices, every derivative
goes through the rule.  Callers that work modulo an inverse relation such as
``w*y_x = 1`` cancel the pair monomial-by-monomial with ``cancel_pairs``.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from .errors import DuplicateSymbolError
from .scalars import Scalar, _by_factor, collect, collect_products, mono_mul, render_sum


# Index i is stored as the character chr(i + 1), which bounds it.
MAX_INDEX = 0x10FFFE


def _char(i: int) -> str:
    if not 0 <= i <= MAX_INDEX:
        raise ValueError(f"jet index {i} outside 0..{MAX_INDEX}")
    return chr(i + 1)


class JetSymbol(str):
    """One jet coordinate: a base name, sorted upper indices and a sorted
    multi-index, stored as the string base + NUL + upper + NUL + lower with
    index i written as chr(i + 1).  NUL sorts below every index character and
    no base contains it, so string order is (base, upper, lower) tuple order,
    and hashing (cached), equality and ordering run in C."""

    __slots__ = ()

    def __new__(cls, base: str, upper: Iterable[int] = (), lower: Iterable[int] = ()):
        if "\0" in base:
            raise ValueError(f"jet symbol base {base!r} contains NUL")
        upper, lower = ("".join([_char(i) for i in sorted(ix)]) for ix in (upper, lower))
        return str.__new__(cls, base + "\0" + upper + "\0" + lower)

    def __reduce__(self):
        return JetSymbol, (self.base, self.upper, self.lower)

    base = property(lambda self: self.partition("\0")[0])
    upper = property(lambda self: tuple([ord(c) - 1 for c in self.split("\0")[1]]))
    lower = property(lambda self: tuple([ord(c) - 1 for c in self.rpartition("\0")[2]]))

    def with_derivative(self, axis: int) -> "JetSymbol":
        c = _char(axis)
        head, _, lower = self.rpartition("\0")
        k = bisect_right(lower, c)
        return str.__new__(JetSymbol, head + "\0" + lower[:k] + c + lower[k:])

    def __str__(self) -> str:
        base, upper, lower = self.split("\0")
        if upper:
            base += "[" + ",".join([str(ord(c) - 1) for c in upper]) + "]"
        return base + "".join([f"_,{ord(c) - 1}" for c in lower])

    def __repr__(self) -> str:
        return f"JetSymbol(base={self.base!r}, upper={self.upper!r}, lower={self.lower!r})"


# A monomial is a sorted tuple of (symbol, exponent) pairs.
JetMono = Tuple[Tuple[JetSymbol, int], ...]

RuleFn = Callable[[JetSymbol, int], "DiffPolynomial"]

# substitute_jets passes over a polynomial at most this often: an elimination
# rule needs one pass per eliminated index pair, a cyclic rule set never stops.
MAX_REWRITE_ROUNDS = 64


class SymbolRules:
    """Append-only registry of derivative rules.

    Writes happen during setup; reads are lock-free afterwards (dict reads are
    atomic under CPython).
    """

    def __init__(self):
        self._rules: Dict[str, Optional[RuleFn]] = {}
        self._lock = threading.Lock()

    def register(self, base: str, rule=None):
        if not self._add(base, rule):
            raise DuplicateSymbolError(f"symbol {base!r} already registered")

    def ensure(self, base: str, rule=None):
        """Idempotent registration used by modules that set up stock symbols."""
        self._add(base, rule)

    def _add(self, base: str, rule) -> bool:
        """Register unless base is taken; returns whether it registered."""
        with self._lock:
            if base in self._rules:
                return False
            self._rules[base] = _normalize_rule(rule)
            return True

    def rule_for(self, base: str) -> Optional[RuleFn]:
        return self._rules.get(base)


def _normalize_rule(rule) -> Optional[RuleFn]:
    if rule is None or callable(rule):
        return rule
    table = dict(rule)

    def from_table(symbol: JetSymbol, axis: int):
        return table.get(axis, DiffPolynomial.zero())

    return from_table


REGISTRY = SymbolRules()


def register_symbol(base: str, rule=None):
    REGISTRY.register(base, rule)


def _coordinate_rule(symbol: JetSymbol, axis: int) -> "DiffPolynomial":
    if symbol.upper and symbol.upper[0] == axis:
        return DiffPolynomial.const(1)
    return DiffPolynomial.zero()


# Coordinate functions x[i] with derive(x[i], j) = delta_ij.
REGISTRY.ensure("x", _coordinate_rule)


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
        return DiffPolynomial({(): Scalar.of(value)})

    @staticmethod
    def jet(base: str, upper: Iterable[int] = (), lower: Iterable[int] = ()) -> "DiffPolynomial":
        return DiffPolynomial.of_symbol(JetSymbol(base, upper, lower))

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

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "DiffPolynomial":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return DiffPolynomial(collect(o.terms.items(), dict(self.terms)))

    __radd__ = __add__

    def __neg__(self) -> "DiffPolynomial":
        return DiffPolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "DiffPolynomial":
        o = _coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other) -> "DiffPolynomial":
        o = _coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other) -> "DiffPolynomial":
        if isinstance(other, (int, Fraction, Scalar)):   # no sum: scale each coefficient
            s = Scalar.of(other)
            return DiffPolynomial({} if s.is_zero() else {m: c * s for m, c in self.terms.items()})
        o = _coerce(other)
        if o is None:
            return NotImplemented
        left = {m: [(0, c)] for m, c in self.terms.items()}
        return DiffPolynomial(collect_products([{}], left, o.terms.items())[0])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DiffPolynomial":
        if n < 0:
            raise ValueError("negative powers of jet polynomials are not defined")
        out = self if n else DiffPolynomial.const(1)
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        o = _coerce(other)
        return NotImplemented if o is None else self.terms == o.terms

    def __hash__(self):
        # a constant hashes as the Scalar (and so the int or Fraction) it equals
        if self.is_const():
            return hash(self.const_value())
        return hash(frozenset(self.terms.items()))

    # -- calculus ----------------------------------------------------------

    def derive(self, axis: int) -> "DiffPolynomial":
        """Total derivative along an axis, the sum over symbols s of (dP/ds) D(s).
        A symbol with no rule derives to s_,axis, so each occurrence adds c * exp
        at one monomial with no product; a rule's D(s) is formed once per call."""
        out, dsyms, partials = {}, {}, {}   # s -> D(s) terms or ((s_,axis, 1),); s -> dP/ds
        for m, c in self.terms.items():
            for k, (sym, exp) in enumerate(m):
                ds = dsyms.get(sym)
                if ds is None:
                    rule = REGISTRY.rule_for(sym.base)
                    ds = dsyms[sym] = (rule(sym, axis).terms.items() if rule
                                       else ((sym.with_derivative(axis), 1),))
                rest = m[:k] + (((sym, exp - 1),) if exp > 1 else ()) + m[k + 1:]
                a = c * exp if exp > 1 else c
                if type(ds) is tuple:
                    key = mono_mul(rest, ds)
                    out[key] = out[key] + a if key in out else a
                elif ds:
                    partials.setdefault(sym, {})[rest] = [(0, a)]
        for sym, left in partials.items():
            collect_products([out], left, dsyms[sym])
        return DiffPolynomial(out)

    def substitute_params(self, bindings: Mapping[str, Scalar]) -> "DiffPolynomial":
        return DiffPolynomial({m: c.substitute(bindings) for m, c in self.terms.items()})

    def substitute_jets(self, rewrite: Callable[[JetSymbol], Optional["DiffPolynomial"]]
                        ) -> "DiffPolynomial":
        """Rewrite symbols until no rule applies; rewrite returns None to keep.
        A rule set still rewriting after MAX_REWRITE_ROUNDS passes is taken to
        cycle and raises ValueError."""
        current = self
        for _ in range(MAX_REWRITE_ROUNDS):
            hit = None
            pieces = []
            for m, c in current.terms.items():
                kept, factor = [], DiffPolynomial({(): c})
                for sym, exp in m:
                    image = rewrite(sym)
                    if image is None:
                        kept.append((sym, exp))
                    else:
                        hit = sym
                        factor = factor * image ** exp
                kept = tuple(kept)   # a sub-tuple of a sorted monomial stays sorted
                pieces += [(mono_mul(kept, fm), fc) for fm, fc in factor.terms.items()]
            current = DiffPolynomial(collect(pieces))
            if hit is None:
                return current
        raise ValueError(f"rewriting {hit} still applies after {MAX_REWRITE_ROUNDS} rounds")

    def cancel_pairs(self, pairs) -> "DiffPolynomial":
        """Reduce monomials by the given inverse pairs (a*b -> 1)."""
        pairs = tuple(pairs)
        if not pairs:
            return self

        def reduce(m: JetMono) -> JetMono:
            d = dict(m)
            for a, bsym in pairs:
                k = min(d.get(a, 0), d.get(bsym, 0))
                if k:
                    for s in (a, bsym):
                        if d[s] == k:
                            del d[s]
                        else:
                            d[s] -= k
            return tuple(sorted(d.items(), key=_by_factor))

        return DiffPolynomial(collect((reduce(m), c) for m, c in self.terms.items()))

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        return render_sum(
            (self.terms[m], [str(sym) if exp == 1 else f"{sym}^{exp}" for sym, exp in m])
            for m in sorted(self.terms, key=_mono_sort_key))

    def __repr__(self) -> str:
        return f"DiffPolynomial({self})"


def _mono_sort_key(m: JetMono):
    return (-sum(e for _, e in m), m)


def _coerce(value) -> Optional[DiffPolynomial]:
    """A DiffPolynomial, or an int, Fraction or Scalar as a constant one; None
    for any other type, for which the calling dunder returns NotImplemented."""
    if isinstance(value, DiffPolynomial):
        return value
    return DiffPolynomial.const(value) if isinstance(value, (int, Fraction, Scalar)) else None
