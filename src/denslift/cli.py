"""Command-line front end: expression grammar, commands, text/JSON output.

Operators are written as sums of juxtaposed atoms, where juxtaposition (and
'*') is noncommutative composition: ``D1 f`` is the operator d/dx composed
with multiplication by f.  Atoms are rational literals, declared parameters,
jet symbols like ``S[1,2]`` with repeatable derivative suffixes ``_,i``, the
generators ``D1..Dd``, the weight generator ``L``, and parenthesized
subexpressions.  Symbol expressions additionally use ``xi`` / ``xi1..xid``.

Exit codes: 0 on success, 1 on domain errors, 2 on syntax or flag errors.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import DensliftError, FlagError, IndexRangeError, ParseError, SchemaError
from .jets import DiffPolynomial
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
from .scalars import Scalar

# single letters like b, c, d stay jet symbols unless declared via --params
DEFAULT_PARAMS = ("l0", "lam", "mu", "k1", "k2", "k3", "kappa", "eps")


@dataclass
class SessionConfig:
    dim: int = 1
    lambda0: Scalar = field(default_factory=lambda: Scalar.param("l0"))
    volume: VolumeForm = field(default_factory=VolumeForm.coordinate)
    json_output: bool = False
    params: Dict[str, Scalar] = field(default_factory=dict)

    def param_names(self):
        return set(DEFAULT_PARAMS) | set(self.params)


_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9]*)"
                       r"|(?P<op>[-+*/^()\[\],_]))")


def _tokenize(src: str) -> List[Tuple[str, str, int]]:
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


class _Parser:
    """Recursive-descent evaluator for operator and symbol expressions."""

    def __init__(self, src: str, cfg: SessionConfig, symbol_mode: bool = False):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0
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
        negate = False
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        total = self.term()
        if negate:
            total = -total
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                nxt = self.term()
                total = total - nxt if val == "-" else total + nxt
            else:
                return total

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
        if self.symbol_mode:
            if any(beta for beta in value.terms):
                return None
            coeff = value.coefficient(())
        else:
            if not value.is_vertical() or value.has_weight_factor():
                return None
            coeff = value.coefficient(0, ())
        if not coeff.is_const():
            return None
        return coeff.const_value()

    def _combine(self, left, right):
        if self.symbol_mode:
            return left * right
        return left @ right

    def factor(self):
        value = self.primary()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val == "_":
                self.next()
                self.expect(",")
                nkind, nval, noff = self.next()
                if nkind != "num" or "/" in nval:
                    raise ParseError("derivative suffix needs an axis number", noff)
                axis = int(nval)
                self._check_axis(axis, noff)
                value = self._derive_atom(value, axis, off)
            elif kind == "op" and val == "^":
                self.next()
                nkind, nval, noff = self.next()
                if nkind != "num" or "/" in nval:
                    raise ParseError("power needs a plain integer", noff)
                value = self._power(value, int(nval))
            else:
                return value

    def _power(self, value, n: int):
        out = self._one()
        for _ in range(n):
            out = self._combine(out, value)
        return out

    def _one(self):
        if self.symbol_mode:
            return SymbolPoly(self.cfg.dim, {(): DiffPolynomial.const(1)})
        return DensityOperator.identity(self.cfg.dim)

    def _derive_atom(self, value, axis: int, offset: int):
        # only multiplication atoms (functions) can carry derivative suffixes
        if self.symbol_mode:
            if any(beta for beta in value.terms):
                raise ParseError("derivative suffix on a fiber variable", offset)
            coeff = value.coefficient(())
            return SymbolPoly(self.cfg.dim, {(): coeff.derive(axis)})
        if not value.is_vertical() or value.has_weight_factor():
            raise ParseError("derivative suffix only applies to coefficient atoms", offset)
        coeff = value.coefficient(0, ())
        return DensityOperator.function(self.cfg.dim, coeff.derive(axis))

    def _check_axis(self, axis: int, offset: int):
        if not 1 <= axis <= self.cfg.dim:
            raise IndexRangeError(f"index {axis} outside 1..{self.cfg.dim}")

    def primary(self):
        kind, val, off = self.next()
        if kind == "num":
            scalar = Scalar.of(Fraction(val))
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
        if not self.symbol_mode and val == "L":
            return DensityOperator.weight(self.cfg.dim)
        m = _DGEN_RE.match(val)
        if m and not self.symbol_mode:
            axis = int(m.group(1))
            self._check_axis(axis, off)
            return DensityOperator.partial(self.cfg.dim, axis)
        if self.symbol_mode:
            m = _XI_RE.match(val)
            if m:
                axis = int(m.group(1)) if m.group(1) else 1
                self._check_axis(axis, off)
                return SymbolPoly(self.cfg.dim, {(axis,): DiffPolynomial.const(1)})
        if val in self.cfg.param_names():
            bound = self.cfg.params.get(val)
            scalar = bound if bound is not None else Scalar.param(val)
            return self._const(scalar)
        upper = self._indices_if_any()
        poly = DiffPolynomial.jet(val, upper)
        return self._const(poly)

    def _indices_if_any(self):
        kind, val, _ = self.peek()
        if kind != "op" or val != "[":
            return ()
        self.next()
        idx = []
        while True:
            nkind, nval, noff = self.next()
            if nkind != "num" or "/" in nval:
                raise ParseError("tensor index must be an integer", noff)
            i = int(nval)
            self._check_axis(i, noff)
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
    out = DensityOperator.zero(cfg.dim)
    for r, alpha, coeff in terms:
        if (type(r) is not int or not isinstance(alpha, list) or not isinstance(coeff, str)
                or any(type(a) is not int for a in alpha)):
            raise SchemaError(f"mistyped term: lpow {r!r}, dmulti {alpha!r}, coeff {coeff!r}")
        f = parse_operator(coeff, cfg).coefficient(0, ())
        try:
            out = out + DensityOperator(cfg.dim, {(r, tuple(alpha)): f})
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    return out


# -- command implementations ---------------------------------------------------


def _emit(cfg: SessionConfig, obj) -> str:
    if isinstance(obj, DensityOperator):
        return obj.to_json() if cfg.json_output else obj.render()
    if isinstance(obj, SymbolPoly):
        if cfg.json_output:
            data = {
                "schema": "denslift/1",
                "symbol": [{"xi": list(beta), "coeff": str(c)}
                           for beta, c in sorted(obj.terms.items(),
                                                 key=lambda kv: (-len(kv[0]), kv[0]))],
                "degree": obj.degree(),
            }
            return json.dumps(data)
        return obj.render()
    return str(obj)


def _read_operator(arg: str, cfg: SessionConfig) -> DensityOperator:
    src = sys.stdin.read() if arg == "-" else arg
    return parse_operator(src, cfg)


def _rational_flag(flag: str, value: str) -> Scalar:
    try:
        return Scalar.of(Fraction(value))
    except (ValueError, ZeroDivisionError):
        raise FlagError(f"{flag} expects an exact rational or 'symbolic', got {value!r}") from None


def _lambda0(spec: str) -> Scalar:
    if spec in ("symbolic", "sym"):
        return Scalar.param("l0")
    return _rational_flag("--lambda0", spec)


def _parse_params(spec: Optional[str]) -> Dict[str, Scalar]:
    out: Dict[str, Scalar] = {}
    if not spec:
        return out
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            out[chunk] = Scalar.param(chunk)
            continue
        name, value = chunk.split("=", 1)
        name = name.strip()
        value = value.strip()
        if value in ("sym", "symbolic"):
            out[name] = Scalar.param(name)
        else:
            out[name] = _rational_flag(f"--params {name}", value)
    return out


def _vol_params(cfg: SessionConfig, order: int) -> VolLiftParams:
    n = order
    for name in cfg.params:
        m = re.match(r"^[cd](\d+)$", name)
        if m:
            n = max(n, int(m.group(1)))
    b = cfg.params.get("b", Scalar.of(0))
    c = [cfg.params.get(f"c{k}", Scalar.of(0)) for k in range(1, n + 1)]
    d = [cfg.params.get(f"d{k}", Scalar.of(0)) for k in range(1, n + 1)]
    return VolLiftParams(b, tuple(c), tuple(d))


def cmd_adjoint(args, cfg) -> int:
    print(_emit(cfg, _read_operator(args.operator, cfg).adjoint()))
    return 0


def cmd_compose(args, cfg) -> int:
    left = _read_operator(args.left, cfg)
    right = _read_operator(args.right, cfg)
    print(_emit(cfg, left @ right))
    return 0


def cmd_lift(args, cfg) -> int:
    delta = _read_operator(args.operator, cfg)
    kind = args.kind
    if kind == "canonical":
        out = canonical_lift(delta, cfg.lambda0, cfg.volume)
    elif kind == "vol":
        out = vol_lift(delta, cfg.lambda0, cfg.volume,
                       _vol_params(cfg, delta.total_order()))
    elif kind == "distinguished":
        out = distinguished_lift(delta, cfg.lambda0, cfg.volume)
    elif kind == "first":
        out = first_order_lift(delta, cfg.lambda0, cfg.params.get("c", Scalar.of(0)))
    elif kind == "second":
        out = second_order_canonical_lift(delta, cfg.lambda0)
    else:
        out = proj_lift(delta, cfg.lambda0)
    print(_emit(cfg, out))
    return 0


def cmd_taylor(args, cfg) -> int:
    op = _read_operator(args.operator, cfg)
    coeffs = taylor_expand(op, cfg.lambda0, cfg.volume)
    if cfg.json_output:
        print(json.dumps({"schema": "denslift/1",
                          "coefficients": [json.loads(c.to_json()) for c in coeffs]}))
    else:
        for k, c in enumerate(coeffs):
            print(f"[{k}] {c.render()}")
    return 0


def cmd_assemble(args, cfg) -> int:
    coeffs = [_read_operator(arg, cfg) for arg in args.operators]
    print(_emit(cfg, taylor_assemble(coeffs, cfg.lambda0, cfg.volume)))
    return 0


def cmd_symbol(args, cfg) -> int:
    delta = _read_operator(args.operator, cfg)
    print(_emit(cfg, full_symbol(delta, cfg.lambda0)))
    return 0


def cmd_quantize(args, cfg) -> int:
    src = sys.stdin.read() if args.symbol == "-" else args.symbol
    sym = parse_symbol(src, cfg)
    print(_emit(cfg, quantize(sym, cfg.lambda0)))
    return 0


def cmd_schwarzian(args, cfg) -> int:
    delta = _read_operator(args.operator, cfg)
    print(str(schwarzian_data(delta, cfg.lambda0)))
    return 0


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
    return False, f"nonzero defect term: {_first_term(defect)}"


def _check_variation(cfg) -> Tuple[bool, str]:
    from .equivariance import check_adX_variation_identity

    rng = random.Random(11)
    dim = min(cfg.dim, 2)
    rho = VolumeForm.generic()
    for trial in range(4):
        delta = _random_operator(rng, dim, 2).restrict(0)
        if delta.is_zero():
            continue
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


def cmd_check(args, cfg) -> int:
    ok, message = _CHECKS[args.name](cfg)
    print(("PASS" if ok else "FAIL") + f" {args.name}: {message}")
    return 0 if ok else 1


def _first_term(op: DensityOperator) -> str:
    (r, alpha), c = op.sorted_terms()[0]
    gens = "*".join(["L"] * r + [f"D{a}" for a in alpha])
    return f"({c}){'*' + gens if gens else ''}"


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

    parser = argparse.ArgumentParser(
        prog="denslift", parents=[common],
        description="Exact operator calculus on the algebra of densities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("adjoint", parents=[common], help="formal adjoint of an operator")
    p.add_argument("operator")
    p.set_defaults(fn=cmd_adjoint)

    p = sub.add_parser("compose", parents=[common], help="composition of two operators")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("lift", parents=[common], help="pencil liftings")
    p.add_argument("kind", choices=("canonical", "vol", "distinguished",
                                    "first", "second", "proj"))
    p.add_argument("operator")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("taylor", parents=[common],
                       help="Taylor coefficients around the base weight")
    p.add_argument("operator")
    p.set_defaults(fn=cmd_taylor)

    p = sub.add_parser("assemble", parents=[common],
                       help="rebuild an operator from Taylor coefficients")
    p.add_argument("operators", nargs="+")
    p.set_defaults(fn=cmd_assemble)

    p = sub.add_parser("symbol", parents=[common],
                       help="projectively equivariant full symbol")
    p.add_argument("operator")
    p.set_defaults(fn=cmd_symbol)

    p = sub.add_parser("quantize", parents=[common], help="inverse of the full symbol map")
    p.add_argument("symbol")
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("schwarzian", parents=[common],
                       help="Schwarzian invariant of a second-order operator")
    p.add_argument("operator")
    p.set_defaults(fn=cmd_schwarzian)

    p = sub.add_parser("check", parents=[common], help="built-in verification suites")
    p.add_argument("name", choices=sorted(_CHECKS))
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = SessionConfig(
            dim=getattr(args, "dim", 1),
            lambda0=_lambda0(getattr(args, "lambda0", "symbolic")),
            volume=(VolumeForm.generic() if getattr(args, "volume", "coordinate") == "generic"
                    else VolumeForm.coordinate()),
            json_output=getattr(args, "json", False),
            params=_parse_params(getattr(args, "params", "")),
        )
        if cfg.dim < 1:
            raise DensliftError("dimension must be at least 1")
        return args.fn(args, cfg)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except FlagError as exc:
        print(f"flag error: {exc}", file=sys.stderr)
        return 2
    except DensliftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
