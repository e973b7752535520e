"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Failure accounting: a corrupted output, an output that differs only from
   the stored digest, and a raising job are each counted as failed, so
   failed_ratio cannot silently read 0.
2. Tracing: a traced run returns outputs identical to the untraced run, and
   its exact counts repeat on two runs (two processes) of the same seed;
   scalars.ratfunc_share is 0 on compose-swell and nonzero on lift-symbolic.
3. A directory holding only BENCHMARK.json and perfbench/ makes run.py exit
   nonzero without printing a result.

Exits 0 when every test passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402

EXACT = ("scalars.calls", "scalars.ratfunc_share", "jets.mul_calls",
         "jets.derive_calls", "operators.compose_calls", "operators.term_pairs",
         "operators.result_monomials", "projective.quantize_calls",
         "lifting.calls", "equivariance.calls", "linalg.calls")


def test_failure_accounting():
    wl = workloads.WORKLOADS["cli-session"]
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)["cli-session"]
    good = wl.make("readme", 0)
    corrupted = wl.make("readme", 0)
    corrupted.run = lambda: (0, "-L + 2\n", "")
    # a correct-looking answer to another question: passes the job's own
    # checks, so only the stored digest catches it
    other = wl.make("adjoint", 0)
    swapped = wl.make("adjoint", 1)
    swapped.key = other.key

    def boom():
        raise ZeroDivisionError("injected")

    raising = wl.make("readme", 1)
    raising.run = boom
    jobs = [good, corrupted, swapped, raising]
    logged = []
    runner = bench.Runner(expected, logged.append, bench.HostSpeed())
    _, _, outputs, errors = runner.run_batch(jobs)
    runner.judge(jobs, outputs, errors)
    assert runner.attempted == 4, runner.attempted
    assert runner.failed == 3, (runner.failed, logged)
    assert [line.split(":")[0] for line in logged] == [
        "FAILED readme/0", "FAILED adjoint/0", "FAILED readme/1"], logged
    assert "output differs from expected.json" in logged[1], logged


def _traced(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_traced_counts_repeat():
    shares = {}
    for workload in workloads.WORKLOADS:
        first, second = _traced(workload, 7), _traced(workload, 7)
        for name in EXACT:
            assert first[name] == second[name], (workload, name, first[name], second[name])
        shares[workload] = first["scalars.ratfunc_share"]
    assert shares["compose-swell"] == 0, shares
    assert shares["lift-symbolic"] > 0, shares


def test_bare_directory_fails():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "compose-swell",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failed = 0
    for test in (test_failure_accounting, test_traced_counts_repeat,
                 test_bare_directory_fails):
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
