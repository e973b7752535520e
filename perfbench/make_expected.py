"""Build perfbench/expected.json: the canonical output digest of every job in
every workload's pool.

    python3 perfbench/make_expected.py            # write expected.json
    python3 perfbench/make_expected.py --verify   # compare with the stored file

Before a digest is stored, the output must pass the job's own known-answer
checks, the slower identities that a timed run skips, and the sympy oracle
in oracle.py, which shares no code with the engine.  Run it only when the
pools change; a change to the engine must not change a stored digest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402  (needs sympy; the timed runs never import it)
import workloads  # noqa: E402
from denslift import equivariance, lifting  # noqa: E402


def slow_checks(workload: str, kind: str, job, out) -> list:
    """Identities too slow for every timed run, plus the sympy oracle."""
    failed = []
    inp = job.inputs
    if workload == "compose-swell":
        lifted, sym, square = out
        if sym.adjoint() != sym:
            failed.append("A* A self-adjoint")
        if square.adjoint() != lifted.adjoint() @ lifted.adjoint():
            failed.append("adjoint anti-homomorphism")
        if not oracle.check_compose_swell(inp["op"], out):
            failed.append("sympy: conjugation by rho^(L - l0)")
    elif workload == "lift-symbolic":
        handle = inp.get("handle")
        if handle is not None and handle.kind in ("canonical", "distinguished", "vol"):
            delta, comps = inp["delta"], inp["field"]
            variation = equivariance.volume_variation(
                handle.kind, delta, workloads.L0, workloads.GEN,
                equivariance.divergence(comps, workloads.GEN), handle.params)
            if out[0] != variation:
                failed.append("ad_X of the lifting equals its volume variation")
            if not oracle.check_defect(delta, handle, comps, out[0]):
                failed.append("sympy: ad_X(h(D)) - h(ad_X D)")
        if kind == "taylor":
            op = lifting.vol_lift(inp["delta"], workloads.L0, workloads.GEN, inp["params"])
            if lifting.taylor_assemble(list(out), workloads.L0, workloads.GEN) != op:
                failed.append("taylor_assemble o taylor_expand = id")
            if not oracle.check_taylor(op, out):
                failed.append("sympy: Taylor expansion")
        if kind == "projlift" and not oracle.check_restricts(out[0], inp["delta"]):
            failed.append("sympy: restriction returns the input")
        if kind in ("safam2", "safam3"):
            if not oracle.check_self_adjoint(out[0], inp["sign"]):
                failed.append("sympy: (anti-)self-adjoint")
            if not oracle.check_restricts(out[0], inp["delta"]):
                failed.append("sympy: restriction returns the input")
    return failed


def build(only=None):
    table, problems = {}, 0
    for name, wl in workloads.WORKLOADS.items():
        if only and name != only:
            continue
        digests = {}
        start = time.perf_counter()
        for kind, variant in wl.pool():
            job = wl.make(kind, variant)
            out = job.run()
            failed = job.check(out) + slow_checks(name, kind, job, out)
            if failed:
                problems += 1
                print(f"{name} {job.key}: {'; '.join(failed)}", file=sys.stderr)
            digests[job.key] = workloads.digest(job.canon(out))
        table[name] = digests
        print(f"{name}: {len(digests)} jobs in {time.perf_counter() - start:.1f}s",
              file=sys.stderr)
    return table, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--verify", action="store_true",
                   help="compare with the stored file instead of writing it")
    p.add_argument("--workload", help="only this workload")
    args = p.parse_args(argv)
    table, problems = build(args.workload)
    path = HERE / "expected.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    if args.verify:
        diff = [(w, k) for w, d in table.items() for k, v in d.items()
                if stored.get(w, {}).get(k) != v]
        for w, k in diff:
            print(f"differs: {w} {k}", file=sys.stderr)
        return 1 if diff or problems else 0
    if problems:
        print(f"{problems} jobs failed their checks; expected.json not written",
              file=sys.stderr)
        return 1
    stored.update(table)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
