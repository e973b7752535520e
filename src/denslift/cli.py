"""Command-line front end: expression grammar, commands, text/JSON output.

Operators are written as sums of juxtaposed atoms, where juxtaposition (and
'*') is noncommutative composition: ``D1 f`` is the operator d/dx composed
with multiplication by f.  Atoms are rational literals, declared parameters,
jet symbols like ``S[1,2]`` with repeatable derivative suffixes ``_,i``, the
coordinates ``x[i]``, the generators ``D1..Dd``, the weight generator ``L``,
and parenthesized subexpressions.  The other names with a derivative rule
(``u``, ``q``, ``w``, and ``x`` without exactly one index) are reserved.
Symbol expressions use ``xi`` / ``xi1..xid`` in place of ``D1..Dd`` and
``L``; each grammar rejects the other's generators.

Exit codes: 0 on success, 1 on domain errors, 2 on syntax or flag errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .errors import DensliftError, FlagError, IndexRangeError, ParseError, SchemaError
from .jets import REGISTRY, DiffPolynomial
from .lifting import (
    VolLiftParams,
    VolumeForm,
    canonical_lift,
    distinguished_lift,
    first_order_lift,
    is_regular_pair,
    is_strict_pair,
    second_order_canonical_lift,
    selfadjoint_family,
    taylor_assemble,
    taylor_expand,
    vol_lift,
)
from .operators import DensityOperator, generic_second_order
from .projective import (
    DiffeoJet1D,
    SymbolPoly,
    full_symbol,
    proj_lift,
    quantize,
    schwarzian_cocycle_check,
    schwarzian_data,
)
from .scalars import Scalar, collect

# single letters like b, c, d stay jet symbols unless declared via --params
DEFAULT_PARAMS = ("l0", "lam", "mu", "k1", "k2", "k3", "kappa", "eps")


class SessionConfig(NamedTuple):
    """The flags of one CLI call; a NamedTuple that iterates as, and equals,
    the plain tuple (dim, lambda0, volume, json_output, params)."""

    dim: int = 1
    lambda0: Scalar = Scalar.param("l0")
    volume: VolumeForm = VolumeForm.coordinate()
    json_output: bool = False
    params: Mapping[str, Scalar] = MappingProxyType({})

    def param_names(self):
        return set(DEFAULT_PARAMS) | set(self.params)


_NAME = r"[A-Za-z][A-Za-z0-9]*"
_NAME_RE = re.compile(_NAME)
_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>" + _NAME + r")"
                       r"|(?P<op>[-+*/^()\[\],_]))")


def _tokenize(src: str) -> List[Tuple[str, str, int]]:
    long_run = _LONG_DIGITS_RE.search(src)
    if long_run:
        raise ParseError(f"digit run longer than {MAX_DIGITS}", long_run.start())
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group("num"):
            out.append(("num", m.group("num"), m.start("num")))
        elif m.group("name"):
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(("end", "", len(src)))
    return out


_DGEN_RE = re.compile(r"^D(\d+)$")
_XI_RE = re.compile(r"^xi(\d*)$")
# Deeper nesting is rejected before it can exhaust the interpreter's stack.
MAX_NESTING = 100
# Longer digit runs (numerals, exponents, axes, indices) are rejected before
# int() meets the interpreter's limit on integer string length.
MAX_DIGITS = 100
_LONG_DIGITS_RE = re.compile(r"\d{%d}" % (MAX_DIGITS + 1))
# Larger '^' exponents, or products of nested ones as in (A^3)^5, are
# rejected: a power composes one factor per unit.
MAX_EXPONENT = 12
# A JSON term with a larger lpow + len(dmulti) is rejected: the adjoint expands
# (1 - L)^lpow and pushes each derivative through the coefficient.
MAX_TERM_ORDER = 2 * MAX_EXPONENT
# Larger --dim values are rejected: work grows with the number of axes.
MAX_DIM = 8


def _coefficient_function(value) -> Optional[DiffPolynomial]:
    """The function a multiplication atom stands for, or None when the
    operator or symbol has any other term."""
    key = () if isinstance(value, SymbolPoly) else (0, ())
    if any(k != key for k in value.terms):
        return None
    return value.terms.get(key, DiffPolynomial.zero())


class _Parser:
    """Recursive-descent evaluator for operator and symbol expressions."""

    def __init__(self, src: str, cfg: SessionConfig, symbol_mode: bool = False):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0
        # largest product of nested '^' exponents in the factors parsed so far
        self.power = 1
        self.cfg = cfg
        self.symbol_mode = symbol_mode

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, off = self.next()
        if kind != "op" or val != value:
            raise ParseError(f"expected {value!r}", off)

    def parse(self):
        value = self.expr()
        kind, _, off = self.peek()
        if kind != "end":
            raise ParseError("trailing input", off)
        return value

    def expr(self):
        summands, sign = [], "+"
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                sign = val
            elif summands:   # a sign may lead the first summand and must join the others
                return summands[0] if len(summands) == 1 else _sum(summands)
            value = self.term()
            summands.append(-value if sign == "-" else value)

    def term(self):
        product = self.factor()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val == "*":
                self.next()
                product = self._combine(product, self.factor())
            elif kind == "op" and val == "/":
                self.next()
                product = self._divide(product, self.factor(), off)
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                product = self._combine(product, self.factor())
            else:
                return product

    def _divide(self, left, right, offset: int):
        # division is only defined by scalar-valued expressions
        scalar = self._as_scalar(right)
        if scalar is None or scalar.is_zero():
            raise ParseError("divisor must be a nonzero scalar expression", offset)
        return left * (Scalar.of(1) / scalar)

    def _as_scalar(self, value) -> Optional[Scalar]:
        coeff = _coefficient_function(value)
        if coeff is None or not coeff.is_const():
            return None
        return coeff.const_value()

    def _combine(self, left, right):
        if self.symbol_mode:
            return left * right
        return left @ right

    def factor(self):
        outer, self.power = self.power, 1
        value = self.primary()
        power = self.power
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val == "_":
                self.next()
                self.expect(",")
                axis, _ = self._integer("derivative suffix needs an axis number")
                self._check_axis(axis)
                value = self._derive_atom(value, axis, off)
            elif kind == "op" and val == "^":
                self.next()
                n, noff = self._integer("power needs a plain integer")
                if n > MAX_EXPONENT:
                    raise ParseError(f"exponent above {MAX_EXPONENT}", noff)
                power *= n
                if power > MAX_EXPONENT:
                    raise ParseError(f"nested exponents multiply to above {MAX_EXPONENT}", off)
                value = self._power(value, n)
            else:
                self.power = max(outer, power)
                return value

    def _power(self, value, n: int):
        out = value if n else self._const(Scalar.of(1))
        for _ in range(n - 1):
            out = self._combine(out, value)
        return out

    def _derive_atom(self, value, axis: int, offset: int):
        # only multiplication atoms (functions) can carry derivative suffixes
        coeff = _coefficient_function(value)
        if coeff is None:
            raise ParseError("derivative suffix on a fiber variable" if self.symbol_mode
                             else "derivative suffix only applies to coefficient atoms", offset)
        return self._const(coeff.derive(axis))

    def _integer(self, message: str) -> Tuple[int, int]:
        """The next token as a plain integer, with its offset."""
        kind, val, off = self.next()
        if kind != "num" or "/" in val:
            raise ParseError(message, off)
        return int(val), off

    def _check_axis(self, axis: int):
        if not 1 <= axis <= self.cfg.dim:
            raise IndexRangeError(f"index {axis} outside 1..{self.cfg.dim}")

    def primary(self):
        kind, val, off = self.next()
        if kind == "num":
            try:
                scalar = Scalar.of(Fraction(val))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {val}", off) from None
            return self._const(scalar)
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", off)
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if kind != "name":
            raise ParseError("expected an atom", off)
        d_gen, xi = _DGEN_RE.match(val), _XI_RE.match(val)
        # each grammar rejects the other's generators rather than read them as jets
        if self.symbol_mode and (val == "L" or d_gen):
            raise ParseError(f"operator generator {val} in a symbol", off)
        if not self.symbol_mode and xi:
            raise ParseError(f"symbol variable {val} in an operator", off)
        if val == "L":
            return DensityOperator.weight(self.cfg.dim)
        if d_gen:
            axis = int(d_gen.group(1))
            self._check_axis(axis)
            return DensityOperator.partial(self.cfg.dim, axis)
        if xi:
            axis = int(xi.group(1)) if xi.group(1) else 1
            self._check_axis(axis)
            return SymbolPoly(self.cfg.dim, {(axis,): DiffPolynomial.const(1)})
        if val in self.cfg.param_names():
            # l0 is the base weight: --lambda0 sets it, --params cannot bind it
            bound = self.cfg.lambda0 if val == "l0" else self.cfg.params.get(val)
            scalar = bound if bound is not None else Scalar.param(val)
            return self._const(scalar)
        upper = self._indices_if_any()
        if REGISTRY.rule_for(val) and not (val == "x" and len(upper) == 1):
            raise ParseError(f"reserved jet name {val}: of the ruled jets only a coordinate "
                             "x[i] can be written", off)
        return self._const(DiffPolynomial.jet(val, upper))

    def _indices_if_any(self):
        kind, val, _ = self.peek()
        if kind != "op" or val != "[":
            return ()
        self.next()
        idx = []
        while True:
            i, _ = self._integer("tensor index must be an integer")
            self._check_axis(i)
            idx.append(i)
            nkind, nval, noff = self.next()
            if nkind == "op" and nval == "]":
                return tuple(idx)
            if not (nkind == "op" and nval == ","):
                raise ParseError("expected ',' or ']' in index list", noff)

    def _const(self, value):
        if isinstance(value, Scalar):
            value = DiffPolynomial.const(value)
        if self.symbol_mode:
            return SymbolPoly(self.cfg.dim, {(): value})
        return DensityOperator.function(self.cfg.dim, value)


def parse_operator(src: str, cfg: SessionConfig) -> DensityOperator:
    return _Parser(src, cfg).parse()


def parse_symbol(src: str, cfg: SessionConfig) -> SymbolPoly:
    return _Parser(src, cfg, symbol_mode=True).parse()


def operator_from_json(text: str, cfg: SessionConfig) -> DensityOperator:
    try:
        terms = [(t["lpow"], t["dmulti"], t["coeff"]) for t in json.loads(text)["terms"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"not a denslift/1 operator: {exc!r}") from None
    pieces = [DensityOperator.zero(cfg.dim)]
    for r, alpha, coeff in terms:
        if (type(r) is not int or not isinstance(alpha, list) or not isinstance(coeff, str)
                or any(type(a) is not int for a in alpha)):
            raise SchemaError(f"mistyped term: lpow {r!r}, dmulti {alpha!r}, coeff {coeff!r}")
        if r + len(alpha) > MAX_TERM_ORDER:
            raise SchemaError(f"term of order {r + len(alpha)} above {MAX_TERM_ORDER}")
        f = _coefficient_function(parse_operator(coeff, cfg))
        if f is None:
            raise SchemaError(f"coeff {coeff!r} is not a coefficient function")
        try:
            pieces.append(DensityOperator(cfg.dim, {(r, tuple(alpha)): f}))
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    return _sum(pieces)


def _sum(pieces):
    """Sum of operators, or of symbols, in one pass by term key and jet monomial;
    adding them one at a time copies the running sum once per piece."""
    out: Dict = {}
    for piece in pieces:
        for key, c in piece.terms.items():
            collect(c.terms.items(), out.setdefault(key, {}))
    return type(piece)(piece.dim, {key: DiffPolynomial(t) for key, t in out.items()})


# -- output, input and flags ------------------------------------------------------


def _emit(cfg: SessionConfig, obj) -> str:
    if cfg.json_output and isinstance(obj, DensityOperator):
        return obj.to_json()
    if cfg.json_output and isinstance(obj, SymbolPoly):
        return json.dumps({
            "schema": "denslift/1",
            "symbol": [{"xi": list(beta), "coeff": str(c)}
                       for beta, c in sorted(obj.terms.items(),
                                             key=lambda kv: (-len(kv[0]), kv[0]))],
            "degree": obj.degree(),
        })
    if isinstance(obj, list):   # Taylor coefficients [D0..Dn]
        if cfg.json_output:
            return json.dumps({"schema": "denslift/1",
                               "coefficients": [json.loads(c.to_json()) for c in obj]})
        return "\n".join(f"[{k}] {c}" for k, c in enumerate(obj))
    # Schwarzian data and check verdicts print as text under --json too
    return str(obj)


def _read(arg: str) -> str:
    return sys.stdin.read() if arg == "-" else arg


def _read_operator(arg: str, cfg: SessionConfig) -> DensityOperator:
    return parse_operator(_read(arg), cfg)


def _scalar_flag(flag: str, name: str, value: str) -> Scalar:
    """'sym' or 'symbolic' as the parameter ``name``, else an exact rational."""
    if value in ("sym", "symbolic"):
        return Scalar.param(name)
    try:
        return Scalar.of(Fraction(value))
    except (ValueError, ZeroDivisionError):
        raise FlagError(f"{flag} expects an exact rational or 'symbolic', got {value!r}") from None


def _param_name(name: str) -> str:
    """A --params name, which the parser must read back as a parameter."""
    if not _NAME_RE.fullmatch(name):
        raise FlagError(f"--params expects names like k1, got {name!r}")
    if name == "L" or _DGEN_RE.match(name) or _XI_RE.match(name):
        raise FlagError(f"--params cannot bind the generator {name}")
    if name == "l0":
        raise FlagError("--params cannot bind the base weight l0: use --lambda0")
    return name


def _parse_params(spec: Optional[str]) -> Dict[str, Scalar]:
    out: Dict[str, Scalar] = {}
    if not spec:
        return out
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, value = (chunk if "=" in chunk else chunk + "=sym").partition("=")
        name = _param_name(name.strip())
        out[name] = _scalar_flag(f"--params {name}", name, value.strip())
    return out


def _vol_params(cfg: SessionConfig, delta: DensityOperator) -> VolLiftParams:
    n = delta.total_order()
    for name in cfg.params:
        m = re.match(r"^[cd](\d+)$", name)
        if m:
            # the value is read back under c<int(k)>, so k is written canonically
            if m.group(1).startswith("0"):
                raise FlagError("--params c<k> and d<k> take k from 1, with no leading zero")
            # c<k> and d<k> raise the family's degree in L to k: bound k before int()
            if len(m.group(1)) > MAX_DIGITS or int(m.group(1)) > MAX_TERM_ORDER:
                raise FlagError(f"--params c<k> and d<k> take k up to {MAX_TERM_ORDER}")
            n = max(n, int(m.group(1)))
    b = cfg.params.get("b", Scalar.of(0))
    c = [cfg.params.get(f"c{k}", Scalar.of(0)) for k in range(1, n + 1)]
    d = [cfg.params.get(f"d{k}", Scalar.of(0)) for k in range(1, n + 1)]
    return VolLiftParams(b, tuple(c), tuple(d))


# Rows name engine functions inside lambdas, so each call looks them up in this
# module at call time and a tracer that swaps a module attribute sees it.
_LIFTS = {
    "canonical": lambda d, cfg: canonical_lift(d, cfg.lambda0, cfg.volume),
    "vol": lambda d, cfg: vol_lift(d, cfg.lambda0, cfg.volume,
                                   _vol_params(cfg, d)),
    "distinguished": lambda d, cfg: distinguished_lift(d, cfg.lambda0, cfg.volume),
    "first": lambda d, cfg: first_order_lift(d, cfg.lambda0,
                                             cfg.params.get("c", Scalar.of(0))),
    "second": lambda d, cfg: second_order_canonical_lift(d, cfg.lambda0),
    "proj": lambda d, cfg: proj_lift(d, cfg.lambda0),
}


# -- check suites ----------------------------------------------------------------


def _check_adjoint_involution(cfg) -> Tuple[bool, str]:
    rng = random.Random(2024)
    dim = min(cfg.dim, 3)
    lam = DensityOperator.weight(dim)
    if lam.adjoint() != DensityOperator.identity(dim) - lam:
        return False, "weight generator adjoint"
    for trial in range(60):
        A = _random_operator(rng, dim, 4)
        B = _random_operator(rng, dim, 3)
        if A.adjoint().adjoint() != A:
            return False, f"involution failed: {A.render()}"
        if (A @ B).adjoint() != B.adjoint() @ A.adjoint():
            return False, f"anti-homomorphism failed: {A.render()}"
    return True, "involution and anti-homomorphism on 60 random pairs"


def _check_equivariance(cfg) -> Tuple[bool, str]:
    from .equivariance import LiftingHandle, ad_on_lifting

    dim = min(cfg.dim, 2)
    delta = generic_second_order(dim)
    X = [DiffPolynomial.jet("X", (i,)) for i in range(1, dim + 1)]
    handle = LiftingHandle.second_order_canonical(Scalar.param("l0"))
    defect = ad_on_lifting(handle, delta, X)
    if defect.is_zero():
        return True, "second-order canonical lift has zero defect"
    first = DensityOperator(dim, dict(defect.sorted_terms()[:1]))
    return False, f"nonzero defect term: {first.render()}"


def _check_variation(cfg) -> Tuple[bool, str]:
    from .equivariance import check_adX_variation_identity

    rng = random.Random(11)
    dim = min(cfg.dim, 2)
    rho = VolumeForm.generic()
    for _ in range(4):
        delta = DensityOperator.zero(dim)
        while delta.is_zero():   # four nonzero operators
            delta = _random_operator(rng, dim, 2).restrict(0)
        X = [_random_poly(rng, dim) for _ in range(dim)]
        if not check_adX_variation_identity(delta, Scalar.param("l0"), rho, X):
            return False, f"identity failed at {delta.render()}"
    return True, "ad/variation identity on random inputs"


def _check_sdiff_classify(cfg) -> Tuple[bool, str]:
    from .equivariance import classify_sdiff_map

    if not classify_sdiff_map(1, 0, 0, 1, 0, 1, 3).is_zero():
        return False, "identity map not equivariant"
    if not classify_sdiff_map(1, 2, 1, -1, -1, 1, 3).is_zero():
        return False, "adjoint map not equivariant"
    bad = classify_sdiff_map(1, 0, 0, 0, 0, 0, 3)
    if bad.is_zero():
        return False, "constraint violation not detected"
    return True, "kernel constraints b1=a1-a2, b2=-a3 verified"


def _check_regular(cfg) -> Tuple[bool, str]:
    dim = min(cfg.dim, 2)
    delta = generic_second_order(dim)
    lifted = canonical_lift(delta, Scalar.param("l0"), VolumeForm.generic())
    if not is_strict_pair(delta, lifted):
        return False, "canonical lift is not strictly regular"
    T = DiffPolynomial.jet("T", (1,))
    first = DensityOperator(dim, {(0, (1,)): T})
    raised = vol_lift(first, Scalar.param("l0"), VolumeForm.coordinate(),
                      VolLiftParams.of(Scalar.param("b"), [0, 0], [0, 0]))
    if is_strict_pair(first, raised):
        return False, "vol family with b unexpectedly strict"
    if not is_regular_pair(raised, 2):
        return False, "vol family not regular at order 2"
    return True, "regular and strictly regular flags behave"


def _check_selfadjoint(cfg) -> Tuple[bool, str]:
    rho = VolumeForm.generic()
    l0 = Scalar.param("l0")
    delta = generic_second_order(1)
    fam = selfadjoint_family(delta, l0, rho,
                             [DensityOperator.function(1, DiffPolynomial.jet("F"))])
    if fam.adjoint() != fam:
        return False, "second-order family not self-adjoint"
    if fam.restrict(l0) != delta:
        return False, "family does not restrict to the input"
    return True, "self-adjoint family passes through the operator"


def _check_cocycle(cfg) -> Tuple[bool, str]:
    delta = generic_second_order(1)
    l0 = Scalar.param("l0")
    for phi, label in ((DiffeoJet1D.identity(), "identity"),
                       (DiffeoJet1D.generic(), "generic"),
                       (DiffeoJet1D.mobius(), "mobius")):
        if not schwarzian_cocycle_check(delta, l0, phi):
            return False, f"cocycle law failed for {label} jets"
    return True, "Schwarzian cocycle law on identity, generic, and Moebius jets"


_CHECKS = {
    "adjoint-involution": _check_adjoint_involution,
    "equivariance": _check_equivariance,
    "variation": _check_variation,
    "sdiff-classify": _check_sdiff_classify,
    "regular": _check_regular,
    "selfadjoint": _check_selfadjoint,
    "cocycle": _check_cocycle,
}


def _random_poly(rng, dim):
    out = DiffPolynomial.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    for _ in range(rng.randint(0, 2)):
        lower = tuple(rng.randint(1, dim) for _ in range(rng.randint(0, 1)))
        out = out * DiffPolynomial.jet(rng.choice("afg"), (), lower)
    return out


def _random_operator(rng, dim, max_total):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        total = rng.randint(0, max_total)
        r = rng.randint(0, total)
        alpha = tuple(sorted(rng.randint(1, dim) for _ in range(total - r)))
        terms[(r, alpha)] = _random_poly(rng, dim)
    op = DensityOperator(dim, terms)
    return op if not op.is_zero() else DensityOperator.identity(dim)


class _Verdict(NamedTuple):
    """A check suite's outcome; a NamedTuple that iterates as, and equals, the
    plain tuple (name, ok, message)."""

    name: str
    ok: bool
    message: str

    def __str__(self):
        return ("PASS" if self.ok else "FAIL") + f" {self.name}: {self.message}"


# -- command table -------------------------------------------------------------

# name: (help, positional arguments with their add_argument keywords, run);
# run(args, cfg) returns what _emit prints.
_COMMANDS = {
    "adjoint": ("formal adjoint of an operator", {"operator": {}},
                lambda a, cfg: _read_operator(a.operator, cfg).adjoint()),
    "compose": ("composition of two operators", {"left": {}, "right": {}},
                lambda a, cfg: _read_operator(a.left, cfg) @ _read_operator(a.right, cfg)),
    "lift": ("pencil liftings", {"kind": {"choices": _LIFTS}, "operator": {}},
             lambda a, cfg: _LIFTS[a.kind](_read_operator(a.operator, cfg), cfg)),
    "taylor": ("Taylor coefficients around the base weight", {"operator": {}},
               lambda a, cfg: taylor_expand(_read_operator(a.operator, cfg),
                                            cfg.lambda0, cfg.volume)),
    "assemble": ("rebuild an operator from Taylor coefficients", {"operators": {"nargs": "+"}},
                 lambda a, cfg: taylor_assemble([_read_operator(s, cfg) for s in a.operators],
                                                cfg.lambda0, cfg.volume)),
    "symbol": ("projectively equivariant full symbol", {"operator": {}},
               lambda a, cfg: full_symbol(_read_operator(a.operator, cfg), cfg.lambda0)),
    "quantize": ("inverse of the full symbol map", {"symbol": {}},
                 lambda a, cfg: quantize(parse_symbol(_read(a.symbol), cfg), cfg.lambda0)),
    "schwarzian": ("Schwarzian invariant of a second-order operator", {"operator": {}},
                   lambda a, cfg: schwarzian_data(_read_operator(a.operator, cfg), cfg.lambda0)),
    "check": ("built-in verification suites", {"name": {"choices": sorted(_CHECKS)}},
              lambda a, cfg: _Verdict(a.name, *_CHECKS[a.name](cfg))),
}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with one-line errors: an argument it echoes prints with its
    control characters and line breaks escaped."""

    def error(self, message):
        super().error(re.sub("[\x00-\x1f\x7f-\x9f\u2028\u2029]",
                             lambda m: repr(m[0])[1:-1], message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps subparser defaults from clobbering values already parsed
    # before the subcommand; real defaults are applied in main()
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--dim", type=int, help="coordinate dimension (default 1)")
    common.add_argument("--lambda0",
                        help="base weight: a rational like 1/3, or 'symbolic' (default)")
    common.add_argument("--volume", choices=("coordinate", "generic"),
                        help="volume form model (default coordinate)")
    common.add_argument("--params",
                        help="comma-separated name=value bindings (value 'sym' keeps it formal)")
    common.add_argument("--json", action="store_true", help="emit JSON")

    parser = _ArgumentParser(
        prog="denslift", parents=[common],
        description="Exact operator calculus on the algebra of densities.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, positionals, _) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for dest, keywords in positionals.items():
            p.add_argument(dest, **keywords)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse: 2 on a usage error, 0 after --help
        return exc.code
    try:
        dim = getattr(args, "dim", 1)
        if not 1 <= dim <= MAX_DIM:
            raise FlagError(f"--dim expects an integer in 1..{MAX_DIM}, got {dim}")
        inputs = [getattr(args, dest) for dest in _COMMANDS[args.command][1]]
        if sum(v.count("-") if isinstance(v, list) else v == "-" for v in inputs) > 1:
            raise FlagError("stdin can be read once: give '-' for one argument at most")
        cfg = SessionConfig(
            dim=dim,
            lambda0=_scalar_flag("--lambda0", "l0", getattr(args, "lambda0", "symbolic")),
            volume=(VolumeForm.generic() if getattr(args, "volume", "coordinate") == "generic"
                    else VolumeForm.coordinate()),
            json_output=getattr(args, "json", False),
            params=_parse_params(getattr(args, "params", "")),
        )
        result = _COMMANDS[args.command][2](args, cfg)
        print(_emit(cfg, result))
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except FlagError as exc:
        print(f"flag error: {exc}", file=sys.stderr)
        return 2
    except DensliftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if isinstance(result, _Verdict) and not result.ok else 0


if __name__ == "__main__":
    sys.exit(main())
