"""The benchmark's three workloads: seeded job pools, the timed calls into the
engine, and the known-answer checks on their outputs.

Each workload is a list of job kinds.  A kind has a pool of input variants,
generated from a fixed string seed per (kind, variant), so that every variant
has one expected output stored in ``expected.json``.  A batch takes a fixed
number of variants of every kind, so every batch does the same kind of work;
the workload seed decides which variants and in which order.

Jobs call the engine through module attributes (``lifting.canonical_lift``,
not a name bound at import) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from denslift import cli, equivariance, lifting, linalg, projective
from denslift.jets import DiffPolynomial
from denslift.operators import DensityOperator
from denslift.scalars import Scalar

L0 = Scalar.param("l0")
GEN = lifting.VolumeForm.generic()

@dataclass
class Job:
    """One timed call into the engine plus the checks on its output."""

    key: str
    run: Callable[[], object]
    canon: Callable[[object], str]
    check: Callable[[object], List[str]]
    # the inputs, for the slower cross-checks made when expected.json is built
    inputs: Dict[str, object] = field(default_factory=dict)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 5)))


def _ops_json(ops: Sequence[DensityOperator]) -> str:
    return "[" + ",".join(op.to_json() for op in ops) + "]"


# -- compose-swell ----------------------------------------------------------------


def weight_free_operator(rng: random.Random, order: int) -> DensityOperator:
    """Random dim-2 operator with one term of every length 0..order.

    The shape is fixed per order (mixed-axis multi-indices, one differentiated
    jet per coefficient), so variants of one order swell to almost the same
    size and cost; only axes, jet names and rational factors vary.
    """
    terms = {}
    for length in range(order, -1, -1):
        if length >= 2:
            k = rng.randint(1, length - 1)
            alpha = (1,) * k + (2,) * (length - k)
        else:
            alpha = tuple(rng.randint(1, 2) for _ in range(length))
        jet = DiffPolynomial.jet(rng.choice("abcfg"), (), (rng.randint(1, 2),))
        terms[(0, alpha)] = jet * _rational(rng)
    return DensityOperator(2, terms)


def _swell_job(kind: str, variant: int) -> Job:
    order = int(kind[-1])
    op = weight_free_operator(random.Random(f"compose-swell/{kind}/{variant}"), order)

    def run():
        lifted = lifting.canonical_lift(op, L0, GEN)
        return lifted, lifted.adjoint() @ lifted, lifted @ lifted

    def check(out):
        lifted, sym, _ = out
        failed = []
        if lifted.restrict(L0) != op:
            failed.append("restriction returns the input")
        if lifted.adjoint().adjoint() != lifted:
            failed.append("adjoint involution")
        # A* A is self-adjoint; the order-6 case costs as much as the job and
        # is checked when expected.json is built
        if order <= 2 and sym.adjoint() != sym:
            failed.append("A* A self-adjoint")
        return failed

    return Job(f"{kind}/{variant}", run, _ops_json, check, {"op": op})


# -- lift-symbolic ----------------------------------------------------------------


def generic_second_order(dim: int, rng: random.Random) -> DensityOperator:
    """S^{ij} D_i D_j + T^i D_i + R with generic jets and rational factors."""
    terms = {}
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            factor = 1 if i == j else 2
            terms[(0, (i, j))] = DiffPolynomial.jet("S", (i, j)) * (factor * _rational(rng))
        terms[(0, (i,))] = DiffPolynomial.jet("T", (i,)) * _rational(rng)
    terms[(0, ())] = DiffPolynomial.jet("R") * _rational(rng)
    return DensityOperator(dim, terms)


def generic_third_order(dim: int, rng: random.Random) -> DensityOperator:
    """S^{ijk} D^3 + G^{ij} D^2 + A^i D + R, symmetric generic jets."""
    terms: Dict[Tuple[int, Tuple[int, ...]], DiffPolynomial] = {}
    for rank, base in ((3, "S"), (2, "G"), (1, "A"), (0, "R")):
        for idx in _index_tuples(dim, rank):
            key = (0, idx)
            add = DiffPolynomial.jet(base, idx)
            terms[key] = add if key not in terms else terms[key] + add
    return DensityOperator(dim, {k: c * _rational(rng) for k, c in terms.items()})


def sparse_third_order(rng: random.Random) -> DensityOperator:
    """S^{111} D1 D1 D1 + G^{12} D1 D2 + A^2 D2 + R in dim 2, rational factors.

    The distinguished handle on the ten-term generic_third_order(2) takes
    2-3 s a call; eleven of them (the job tail's sample) do not fit a run.
    This four-term operator keeps the same gcd path at under a second, and
    its fixed shape gives every variant almost the same cost.
    """
    return DensityOperator(2, {
        (0, idx): DiffPolynomial.jet(base, idx) * _rational(rng)
        for base, idx in (("S", (1, 1, 1)), ("G", (1, 2)), ("A", (2,)), ("R", ()))})


def _index_tuples(dim: int, rank: int):
    if rank == 0:
        return [()]
    return [tuple(sorted(rest + (i,))) for rest in _index_tuples(dim, rank - 1)
            for i in range(1, dim + 1)]


def generic_field(dim: int) -> List[DiffPolynomial]:
    return [DiffPolynomial.jet("X", (i,)) for i in range(1, dim + 1)]


def projective_field(dim: int, rng: random.Random) -> List[DiffPolynomial]:
    """A rational combination of all projective generators, none with weight 0."""
    out = [DiffPolynomial.zero() for _ in range(dim)]
    for gen in projective.proj_generators(dim):
        k = _rational(rng)
        out = [acc + comp * k for acc, comp in zip(out, gen)]
    return out


def _on_plane(rng):
    a1, a2, a3, c = (_rational(rng) for _ in range(4))
    return a1, a2, a3, a1 - a2, -a3, c


def _off_plane(rng):
    a1, a2, a3, b1, b2, c = _on_plane(rng)
    return a1, a2, a3, b1 + _rational(rng), b2, c


def _defect_check(order: int, relation: str):
    def check(out):
        defect = out[0]
        if relation == "zero":
            return [] if defect.is_zero() else ["zero defect"]
        if defect.is_zero():
            return ["nonzero defect"]
        x_order = defect.x_order()
        if relation == "head" and x_order != order - 1:
            return [f"defect has x-order {x_order}, expected {order - 1}"]
        if relation == "killed" and x_order > order - 2:
            return [f"defect has x-order {x_order}, expected <= {order - 2}"]
        return []
    return check


def _lift_job(kind: str, variant: int) -> Job:
    rng = random.Random(f"lift-symbolic/{kind}/{variant}")
    key = f"{kind}/{variant}"
    X = generic_field(2)

    if kind in ("dist2", "dist3", "canon2", "canon3", "so2", "vol2"):
        order = int(kind[-1])
        delta = (generic_second_order(2, rng) if order == 2
                 else sparse_third_order(rng))
        if kind.startswith("dist"):
            handle, relation = equivariance.LiftingHandle.distinguished(L0, GEN), "killed"
        elif kind.startswith("canon"):
            handle, relation = equivariance.LiftingHandle.canonical(L0, GEN), "head"
        elif kind == "vol2":
            params = lifting.VolLiftParams.of(_rational(rng),
                                              [_rational(rng) for _ in range(2)],
                                              [_rational(rng) for _ in range(2)])
            handle, relation = equivariance.LiftingHandle.vol(L0, GEN, params), "head"
        else:
            handle, relation = equivariance.LiftingHandle.second_order_canonical(L0), "zero"
        return Job(key, lambda: (equivariance.ad_on_lifting(handle, delta, X),),
                   _ops_json, _defect_check(order, relation),
                   {"delta": delta, "handle": handle, "field": X})

    if kind in ("proj2", "proj3"):
        order = int(kind[-1])
        delta = (generic_second_order(2, rng) if order == 2
                 else sparse_third_order(rng))
        proj_field = projective_field(2, rng)
        handle = equivariance.LiftingHandle.proj(L0)
        return Job(key, lambda: (equivariance.ad_on_lifting(handle, delta, proj_field),),
                   _ops_json, _defect_check(order, "zero"),
                   {"delta": delta, "handle": handle, "field": proj_field})

    if kind == "taylor":
        delta = generic_third_order(2, rng)
        params = lifting.VolLiftParams.of(
            _rational(rng), [_rational(rng) for _ in range(3)],
            [_rational(rng) for _ in range(3)])

        def run():
            op = lifting.vol_lift(delta, L0, GEN, params)
            return tuple(lifting.taylor_expand(op, L0, GEN))

        def check(out):
            return [] if out[0] == delta else ["Taylor coefficient 0 restricts to the input"]

        return Job(key, run, _ops_json, check, {"delta": delta, "params": params})

    if kind == "projlift":
        delta = generic_third_order(3, rng)

        def check(out):
            failed = []
            if out[0].restrict(L0) != delta:
                failed.append("restriction returns the input")
            if projective.quantize(projective.full_symbol(delta, L0), L0) != delta:
                failed.append("quantize o full_symbol = id")
            return failed

        return Job(key, lambda: (projective.proj_lift(delta, L0),), _ops_json, check,
                   {"delta": delta})

    if kind in ("classify_on", "classify_off"):
        coeffs = _on_plane(rng) if kind == "classify_on" else _off_plane(rng)
        want_zero = kind == "classify_on"

        def check(out):
            return [] if out[0].is_zero() == want_zero else ["classification verdict"]

        return Job(key, lambda: (equivariance.classify_sdiff_map(*coeffs, dim=3),),
                   _ops_json, check)

    if kind == "classify_basis":
        points = [[_rational(rng) for _ in range(6)] for _ in range(6)]

        def run():
            maps = [equivariance.classify_sdiff_map(*p, dim=3) for p in points]
            matrix = linalg.operator_coordinates(maps)
            return linalg.rank(matrix), linalg.nullspace(matrix)

        def canon(out):
            rk, kernel = out
            return json.dumps([rk, [[str(x) for x in vec] for vec in kernel]])

        def check(out):
            rk, kernel = out
            failed = [] if rk == 2 and len(kernel) == 4 else ["rank 2, kernel 4"]
            for vec in kernel:
                w = [sum((v * p[j] for v, p in zip(vec, points)), Scalar.of(0))
                     for j in range(6)]
                a1, a2, a3, b1, b2, _ = w
                if b1 != a1 - a2 or b2 != -a3:
                    failed.append("kernel lies on b1 = a1 - a2, b2 = -a3")
                    break
            return failed

        return Job(key, run, canon, check)

    if kind in ("safam2", "safam3"):
        order = int(kind[-1])
        if order == 2:
            delta = generic_second_order(2, rng)
            evens = [DensityOperator.function(2, DiffPolynomial.jet("F") * _rational(rng))]
        else:
            delta = generic_third_order(2, rng)
            evens = [DensityOperator(2, {
                (0, (1,)): DiffPolynomial.jet("A", (1,)) * _rational(rng),
                (0, (2,)): DiffPolynomial.jet("A", (2,)) * _rational(rng),
                (0, ()): DiffPolynomial.jet("B") * _rational(rng)})]
        sign = Fraction((-1) ** order)

        def check(out):
            fam = out[0]
            failed = []
            if fam.adjoint() != sign * fam:
                failed.append("(anti-)self-adjoint")
            if fam.restrict(L0) != delta:
                failed.append("restriction returns the input")
            return failed

        return Job(key, lambda: (lifting.selfadjoint_family(delta, L0, GEN, evens),),
                   _ops_json, check, {"delta": delta, "sign": sign})

    raise KeyError(kind)


# -- cli-session ------------------------------------------------------------------

# The README's commands, with the output lines the README prints for them.
README = [
    (["--dim", "1", "adjoint", "L"], "-L + 1"),
    (["--dim", "1", "--lambda0", "1/3", "lift", "second", "a D1 D1 + b D1 + c"], None),
    (["--dim", "1", "--lambda0", "symbolic", "symbol", "a D1 D1 + b D1 + c"],
     "a*xi^2 + ((-1/2 - l0)*a_,1 + b)*xi + ((1/3*l0 + 2/3*l0^2)*a_,1_,1 - l0*b_,1 + c)"),
    (["--dim", "1", "--lambda0", "1/4", "quantize", "a xi^2 + b xi + c"], None),
    (["--dim", "2", "--volume", "generic", "lift", "canonical", "S[1,2] D1 D2"], None),
    (["--params", "b=1/2,c1=1,d1=0", "lift", "vol", "A D1 + B"], None),
    (["check", "cocycle"],
     "PASS cocycle: Schwarzian cocycle law on identity, generic, and Moebius jets"),
]

CHECKS = ["adjoint-involution", "equivariance", "variation", "sdiff-classify",
          "regular", "selfadjoint"]
# adjoint-involution, by far the costliest suite, runs twice per batch (see
# the job-tail comment at WORKLOADS).
CHECK_JOBS = CHECKS + ["adjoint-involution"]

# Inputs whose correct answer is an error exit: 2 for syntax, 1 for domain.
ERRORS = [
    (["--dim", "1", "adjoint", "D1 +"], 2),
    (["--dim", "2", "compose", "a D1", "b $ D2"], 2),
    (["--dim", "1", "symbol", "(a D1 D1"], 2),
    (["--dim", "1", "quantize", "a xi^b"], 2),
    (["--dim", "1", "--lambda0", "1/2", "lift", "second", "a D1 D1"], 1),
    (["--dim", "2", "--lambda0", "1/2", "lift", "distinguished", "a D1 D2"], 1),
    (["--dim", "2", "schwarzian", "a D1 D1"], 1),
    (["--dim", "1", "adjoint", "a D3"], 1),
]


def cli_call(argv: List[str], stdin: Optional[str] = None) -> Tuple[int, str, str]:
    """denslift.cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:     # argparse usage errors exit 2
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _cli_canon(out) -> str:
    return json.dumps(out)


def random_expression(rng: random.Random, dim: int, max_order: int) -> str:
    """A small operator in the CLI grammar: jets, rationals, D generators."""
    terms = []
    for length in range(max_order, -1, -1):
        if length < max_order and rng.random() < 0.3:
            continue
        atoms = [str(_rational(rng)).lstrip("-")] if rng.random() < 0.5 else []
        jet = rng.choice("abcfg")
        if rng.random() < 0.4:
            jet += f"_,{rng.randint(1, dim)}"
        atoms.append(jet)
        atoms += [f"D{rng.randint(1, dim)}" for _ in range(length)]
        terms.append(" ".join(atoms))
    return " + ".join(terms)


def _l0_flag(rng: random.Random) -> List[str]:
    if rng.random() < 0.5:
        return ["--lambda0=symbolic"]
    return ["--lambda0=" + rng.choice(["1/3", "2/5", "-1/4", "3", "5/7"])]


def _expr_argv(kind: str, rng: random.Random) -> List[str]:
    dim = rng.randint(1, 2)
    flags = ["--dim", str(dim)] + _l0_flag(rng)
    if rng.random() < 0.5:
        flags.append("--json")
    if kind == "adjoint":
        return flags + ["adjoint", random_expression(rng, dim, 3)]
    if kind == "compose":
        return flags + ["compose", random_expression(rng, dim, 2),
                        random_expression(rng, dim, 2)]
    if kind == "lift":
        how = rng.choice(["canonical", "distinguished", "second", "proj", "vol"])
        if how in ("canonical", "distinguished"):
            flags += ["--volume", "generic"]
        if how == "vol":
            flags += ["--params", f"b={_rational(rng)},c1={_rational(rng)},d1=0"]
        return flags + ["lift", how, random_expression(rng, dim, 2)]
    if kind == "taylor":
        op = random_expression(rng, dim, 2) + " + L " + random_expression(rng, dim, 1)
        return flags + ["--volume", "generic", "taylor", op]
    if kind == "schwarzian":
        flags[1] = "1"
        return [f for f in flags if f != "--json"] + [
            "schwarzian", f"a D1 D1 + {random_expression(rng, 1, 1)}"]
    raise KeyError(kind)


def _cli_job(kind: str, variant: int) -> Job:
    rng = random.Random(f"cli-session/{kind}/{variant}")
    key = f"{kind}/{variant}"

    if kind == "readme":
        argv, shown = README[variant % len(README)]

        def check(out):
            code, text, _ = out
            if code != 0:
                return [f"exit code {code}"]
            if shown is not None and text.strip() != shown:
                return ["README output"]
            return []

        return Job(key, lambda: cli_call(argv), _cli_canon, check)

    if kind == "check":
        name = CHECK_JOBS[variant]

        def check(out):
            code, text, _ = out
            ok = code == 0 and text.startswith(f"PASS {name}:")
            return [] if ok else [f"check {name}"]

        return Job(key, lambda: cli_call(["check", name]), _cli_canon, check)

    if kind == "error":
        argv, want = ERRORS[variant % len(ERRORS)]

        def check(out):
            code, text, err = out
            ok = code == want and not text and err.strip()
            return [] if ok else [f"exit code {code}, expected {want}"]

        return Job(key, lambda: cli_call(argv), _cli_canon, check)

    if kind == "symbol":
        # symbol then quantize at the same weight must give the operator back
        dim = rng.randint(1, 2)
        flags = ["--dim", str(dim)] + _l0_flag(rng)
        expr = random_expression(rng, dim, 3)

        def run():
            first = cli_call(flags + ["symbol", expr])
            return first, cli_call(flags + ["quantize", first[1].strip()])

        def check(out):
            first, back = out
            if first[0] != 0 or back[0] != 0:
                return ["exit code"]
            cfg = cli.SessionConfig(dim=dim)
            ok = cli.parse_operator(back[1], cfg) == cli.parse_operator(expr, cfg)
            return [] if ok else ["quantize o full_symbol = id"]

        return Job(key, run, _cli_canon, check)

    if kind == "reingest":
        # --json out, operator_from_json back in, then the text through stdin
        dim = rng.randint(1, 2)
        expr = random_expression(rng, dim, 3)
        flags = ["--dim", str(dim)]

        def run():
            first = cli_call(flags + ["--json", "adjoint", expr])
            cfg = cli.SessionConfig(dim=dim)
            adj = cli.operator_from_json(first[1], cfg)
            return first, cli_call(flags + ["adjoint", "-"], stdin=adj.render())

        def check(out):
            first, back = out
            if first[0] != 0 or back[0] != 0:
                return ["exit code"]
            cfg = cli.SessionConfig(dim=dim)
            ok = cli.parse_operator(back[1], cfg) == cli.parse_operator(expr, cfg)
            return [] if ok else ["adjoint involution through JSON and stdin"]

        return Job(key, run, _cli_canon, check)

    argv = _expr_argv(kind, rng)

    def check(out):
        code, text, _ = out
        if code != 0 or not text.strip():
            return [f"exit code {code}"]
        if "--json" in argv and json.loads(text).get("schema") != "denslift/1":
            return ["JSON schema"]
        return []

    return Job(key, lambda: cli_call(argv), _cli_canon, check)


# -- registry -----------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    kinds: Sequence[Tuple[str, int]]       # (kind, jobs of that kind per batch)
    make: Callable[[str, int], Job]
    variants: Dict[str, int]

    def plan(self, seed: int):
        """Endless sequence of batches, each a list of (kind, variant)."""
        rng = random.Random(seed)
        orders = {}
        for kind, _ in self.kinds:
            order = list(range(self.variants[kind]))
            rng.shuffle(order)
            orders[kind] = order
        cursor = {kind: 0 for kind, _ in self.kinds}
        while True:
            batch = []
            for kind, count in self.kinds:
                order = orders[kind]
                for _ in range(count):
                    batch.append((kind, order[cursor[kind] % len(order)]))
                    cursor[kind] += 1
            rng.shuffle(batch)
            yield batch

    def pool(self):
        for kind, _ in self.kinds:
            for variant in range(self.variants[kind]):
                yield kind, variant


# Pools hold more variants than a 35-second run takes at this commit, so
# within a run no input repeats and a process-wide memo cannot turn a repeated
# job into free work.  The fixed README, check and error inputs repeat by
# design.
LIFT_KINDS = ("dist2", "dist3", "canon2", "canon3", "so2", "vol2", "proj2", "proj3",
              "taylor", "projlift", "classify_on", "classify_off", "classify_basis",
              "safam2", "safam3")

WORKLOADS = {
    # The job tail is the 11th-longest job of a run.  If the costliest kind
    # ran once per batch, the tail would fall on a cheaper kind in runs of
    # 10 batches or fewer and jump whenever the engine's speed moved the
    # batch count across 11.  So compose-swell runs order3 three times per
    # batch, lift-symbolic runs dist3 three times next to dist2 and
    # classify_basis, which cost about as much, and cli-session runs the
    # adjoint-involution check twice: the tail stays on that tier in runs of
    # 4, 3 and 6 batches or more.
    "compose-swell": Workload(
        "compose-swell", [("order1", 3), ("order2", 3), ("order3", 3)], _swell_job,
        {"order1": 160, "order2": 160, "order3": 96}),
    "lift-symbolic": Workload(
        "lift-symbolic",
        [(kind, 3 if kind == "dist3" else 1) for kind in LIFT_KINDS], _lift_job,
        {kind: 32 if kind == "dist3" else 16 for kind in LIFT_KINDS}),
    "cli-session": Workload(
        "cli-session",
        [("readme", len(README)), ("check", len(CHECK_JOBS)), ("adjoint", 3),
         ("compose", 3), ("lift", 5), ("taylor", 2), ("schwarzian", 2),
         ("symbol", 3), ("reingest", 3), ("error", 3)],
        _cli_job, {"readme": len(README), "check": len(CHECK_JOBS), "error": len(ERRORS),
                   "adjoint": 256, "compose": 256, "lift": 400, "taylor": 160,
                   "schwarzian": 160, "symbol": 256, "reingest": 256}),
}
