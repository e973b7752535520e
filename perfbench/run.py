"""denslift benchmark: seeded closed-loop workloads with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compose-swell --seed 1 --seconds 20 --trace 0

One client in one process, no threads: each job starts when the previous one
has returned.  The run repeats batches of jobs until ``--seconds`` have
passed, checks every output against its known-answer identities and against
``perfbench/expected.json``, and prints one JSON object as its last line.
With ``--trace 0`` that object carries the end-to-end metrics; with
``--trace 1`` every batch runs twice on the same inputs, once plain and once
under the tracer, and the object carries the per-layer metrics.

Exit status is 0 when every output was correct, 1 when one was not, and 2
when the checkout holds no engine to measure.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

PROBES = 21
IMPORT_PROCESSES = 5
TAIL_BEYOND = 10
# A reference sample is taken after the first job that ends this long after
# the previous sample, and at the end of every batch.
SEGMENT_S = 0.5
# Reference time on the host the bounds were tuned on (see HostSpeed).
REF_NOMINAL_S = 0.05


def _reference_polys():
    rng = random.Random("perfbench/reference")

    def poly():
        return {tuple(rng.randint(0, 3) for _ in range(4)):
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(60)}

    return poly(), poly()


_REF_P, _REF_Q = _reference_polys()


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e)
            out[e] = ca * cb if c is None else c + ca * cb
    return {e: c for e, c in out.items() if c}


def _reference():
    """Fixed pure-Python work shaped like the engine's: sparse polynomial
    products over dicts of exponent tuples with Fraction coefficients."""
    x = _REF_P
    for _ in range(3):
        x = _poly_mul(x, _REF_Q) if len(x) < 400 else _poly_mul(_REF_P, _REF_Q)
    return x


class HostSpeed:
    """Corrects measured times for the host's speed at the time.

    On a shared host the CPU runs up to 45% slower for stretches of seconds
    to hours, and that moves every timing.  The reference above shares no
    code with the engine, so an engine change cannot move it; timed next to
    the engine, it slows with it (correlation 0.8-0.9, log-log slope about 1
    in interleaved samples).  A time measured between two reference samples
    is scaled by REF_NOMINAL_S over their mean: it reads as seconds on a host
    where the reference takes REF_NOMINAL_S.
    """

    def __init__(self):
        self.samples = []

    def sample(self) -> float:
        # Without this, a collection started by the reference's allocations
        # walks the engine's live objects and charges them to the reference.
        gc.disable()
        try:
            start = time.perf_counter()
            _reference()
            took = time.perf_counter() - start
        finally:
            gc.enable()
        self.samples.append(took)
        return took

    @staticmethod
    def scale(before: float, after: float) -> float:
        return REF_NOMINAL_S / ((before + after) / 2)


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up in this fresh process and exit (used internally)")
    return p.parse_args(argv)


def _load_engine():
    if not (SRC / "denslift" / "__init__.py").is_file():
        print(f"perfbench: no engine sources under {SRC.relative_to(ROOT)}/denslift",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _setup(workload_name: str, seed: int):
    """Import the engine, load the expected outputs, build the first batch."""
    import workloads

    wl = workloads.WORKLOADS[workload_name]
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)[workload_name]
    plan = wl.plan(seed)
    first = [wl.make(kind, variant) for kind, variant in next(plan)]
    return wl, expected, plan, first


def _engine_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


class Probes:
    """Fresh-process measurements, spread evenly over the measuring loop.

    Each probe times one set-up in a fresh interpreter (``--setup-only``)
    and one fresh CLI process running a README command.  Spreading them over
    the run makes their medians sample the same machine conditions as the
    batches, instead of one burst.
    """

    def __init__(self, workload: str, seed: int, readme, speed: HostSpeed):
        self.workload, self.seed, self.readme = workload, seed, readme
        self.speed = speed
        self.env = _engine_env()
        self.setup_s, self.cold_s = [], []
        self.failed = 0

    def run_one(self):
        before = self.speed.sample()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", self.workload,
             "--seed", str(self.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        setup = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        argv, shown = self.readme[len(self.cold_s) % len(self.readme)]
        code = f"import sys\nfrom denslift.cli import main\nsys.exit(main({argv!r}))"
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)
        cold = time.perf_counter() - start
        scale = HostSpeed.scale(before, self.speed.sample())
        self.setup_s.append(setup * scale)
        self.cold_s.append(cold * scale)
        if proc.returncode != 0 or (shown is not None and proc.stdout.strip() != shown):
            self.failed += 1

    def catch_up(self, fraction: float):
        """Run the probes due once this fraction of the run has passed."""
        due = min(PROBES, 1 + int(PROBES * fraction))
        while len(self.cold_s) < due:
            self.run_one()


def _import_ms():
    env = _engine_env()
    code = ("import time\nt = time.perf_counter()\nimport denslift.cli\n"
            "print(time.perf_counter() - t)")
    values = []
    for _ in range(IMPORT_PROCESSES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        values.append(float(proc.stdout.strip()) * 1000)
    return statistics.median(values)


def _tail(times):
    """Highest percentile with at least TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    idx = max(n - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "denslift").glob("*.py")))


class Runner:
    """Runs batches, times jobs, checks outputs, counts failures."""

    def __init__(self, expected, log, speed: HostSpeed):
        from workloads import digest

        self.expected = expected
        self.digest = digest
        self.log = log
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.job_times = []

    def run_batch(self, jobs, tracer=None):
        """Time every job; returns (batch seconds, raw seconds, outputs, errors).

        Batch seconds are the sum of the jobs' times, each corrected by the
        reference samples taken before and after its segment (HostSpeed);
        raw seconds are the batch's wall time as measured.
        """
        outputs, errors, pending, corrected = [], [], [], []
        gc.collect()
        before = self.speed.sample()
        segment = time.perf_counter()
        raw = 0.0
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = job.key
            t0 = time.perf_counter()
            try:
                out, err = job.run(), None
            except Exception as exc:  # a raising job is a failed job
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            pending.append(t1 - t0)
            outputs.append(out)
            errors.append(err)
            if t1 - segment >= SEGMENT_S or i == len(jobs) - 1:
                raw += t1 - segment
                after = self.speed.sample()
                scale = HostSpeed.scale(before, after)
                corrected += [t * scale for t in pending]
                pending.clear()
                before = after
                segment = time.perf_counter()
        if tracer is None:
            self.job_times += corrected
        return sum(corrected), raw, outputs, errors

    def judge(self, jobs, outputs, errors):
        """Count failures; returns the canonical digests of the outputs."""
        digests = []
        for job, out, err in zip(jobs, outputs, errors):
            self.attempted += 1
            problems = [err] if err else []
            dig = None
            if not problems:
                try:
                    dig = self.digest(job.canon(out))
                    problems += job.check(out)
                except Exception as exc:
                    problems.append(f"check raised {type(exc).__name__}: {exc}")
            want = self.expected.get(job.key)
            if not problems and dig != want:
                problems.append("output differs from expected.json"
                                if want else "no expected output stored")
            if problems:
                self.failed += 1
                self.log(f"FAILED {job.key}: {'; '.join(problems)}")
            digests.append(dig)
        return digests


def run(args) -> int:
    _load_engine()
    if args.setup_only:
        _setup(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    def log(msg):
        print(msg, file=sys.stderr)

    wl, expected, plan, jobs = _setup(args.workload, args.seed)
    speed = HostSpeed()
    probes = (None if args.trace
              else Probes(args.workload, args.seed, workloads.README, speed))
    runner = Runner(expected, log, speed)
    gc_clock = tracing.GcClock()
    walls, raw_walls, traced_walls, gc_counts, gc_seconds = [], [], [], [], []
    layer_times, counts, spans = [], None, []
    outputs_agree = True

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    loop_start = time.perf_counter()
    with gc_clock:
        while True:
            if len(cpus) > 1:
                # One CPU per batch, taking the CPUs in turn (see README).
                os.sched_setaffinity(0, {cpus[len(walls) % len(cpus)]})
            before = gc_clock.reading()
            wall, raw, outputs, errors = runner.run_batch(jobs)
            after = gc_clock.reading()
            walls.append(wall)
            raw_walls.append(raw)
            gc_counts.append(after[0] - before[0])
            gc_seconds.append(after[1] - before[1])
            digests = runner.judge(jobs, outputs, errors)
            del outputs
            if args.trace:
                tracer = tracing.Tracer()
                with tracer:
                    t_wall, _, t_outputs, t_errors = runner.run_batch(jobs, tracer)
                traced_walls.append(t_wall)
                t_digests = [runner.digest(job.canon(out)) if err is None else None
                             for job, out, err in zip(jobs, t_outputs, t_errors)]
                del t_outputs
                if t_digests != digests:
                    outputs_agree = False
                    log("FAILED traced outputs differ from untraced outputs")
                layer_times.append(tracer.times())
                if counts is None:
                    counts = tracer.counts()
                spans.extend(tracer.spans)
            fraction = (time.perf_counter() - loop_start) / max(args.seconds, 1e-9)
            if probes:
                probes.catch_up(fraction)
            if fraction >= 1:
                break
            jobs = [wl.make(kind, variant) for kind, variant in next(plan)]
    if probes:
        probes.catch_up(1.0)
        runner.attempted += len(probes.cold_s)
        runner.failed += probes.failed

    info = {
        "workload": args.workload, "seed": args.seed, "batches": len(walls),
        "batch_walls_s": [round(w, 4) for w in walls],
        "raw_batch_walls_s": [round(w, 4) for w in raw_walls],
        "reference_s": {"median": statistics.median(speed.samples),
                        "min": min(speed.samples), "max": max(speed.samples),
                        "n": len(speed.samples)},
        "jobs_per_batch": len(jobs), "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_ratio": runner.failed / runner.attempted,
        "src_lines": _src_lines(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "cpus_in_turn": cpus, "processes": 1, "threads": 1,
                    "gc_enabled": gc.isenabled()},
    }
    metrics = {}
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(span_file, "w") as fh:
            for name, start, end, parent, job in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
        info["spans"] = {"file": str(span_file.relative_to(ROOT)), "count": len(spans)}
        units = {name: "count" for name in counts}
        units["scalars.ratfunc_share"] = "ratio"
        values = dict(counts)
        for name in layer_times[0]:
            values[name] = statistics.median(t[name] for t in layer_times)
            units[name] = "s"
        values["cli.import_ms"] = _import_ms()
        units["cli.import_ms"] = "ms"
        values["runtime.gc_collections"] = statistics.median(gc_counts)
        units["runtime.gc_collections"] = "count"
        values["runtime.gc_s"] = statistics.median(gc_seconds)
        units["runtime.gc_s"] = "s"
        values["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                          / statistics.median(walls))
        units["trace.overhead_ratio"] = "ratio"
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in sorted(values)}
    else:
        tail, pct, n = _tail(runner.job_times)
        info["job_tail"] = {"percentile": round(pct, 2), "n": n}
        info["cold_ms"] = [round(t * 1000, 1) for t in probes.cold_s]
        info["setup_ms"] = [round(t * 1000, 1) for t in probes.setup_s]
        metrics = {
            "setup_s": {"value": statistics.median(probes.setup_s), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "job_p50_ms": {"value": statistics.median(runner.job_times) * 1000,
                           "unit": "ms"},
            "job_tail_ms": {"value": tail * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
            "cli_cold_ms": {"value": statistics.median(probes.cold_s) * 1000,
                            "unit": "ms"},
        }
    correct = runner.failed == 0 and outputs_agree
    print("info " + json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(run(_parse_args()))
