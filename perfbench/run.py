"""Closed-loop benchmark of the hochgysin pipelines (one client, one process).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
`src/` directory, never from an installed copy.  One client sends the
next job only after the previous one has returned.

--trace 0 runs jobs until their summed time reaches --seconds (at least
one job) and reports the end-to-end metrics:

    job_s.p50     median wall time of one job (output checks excluded)
    jobs_per_s    jobs that passed their checks / summed job time
    setup_s       median over fresh processes of import + fixture build
    peak_rss_mb   ru_maxrss of this process

--trace 1 runs the workload's fixed job list twice, untraced and then
with every layer wrapped (see tracer.py), and reports the per-layer
metrics and the tracing overhead.  Deterministic counts are compared
with those of earlier traced runs of the same seed, kept in
perfbench/out/, and a mismatch is flagged as unsteady.

Every job's outputs are checked; failed/attempted is the failed ratio.
The last stdout line is the result object; the line before it is a
stamp with the machine, versions, job counts and wall times.  Exit code
0 when every check passed, 1 when one failed, 2 when the benchmark
could not run.  --expect-wrong swaps in one false expected value per
workload, so a correct program must fail (the negative self-test).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 9
MAX_LOOP_S = 150.0       # stop starting jobs after this much wall time
P90_MIN_JOBS = 100       # p90 needs ten jobs beyond it
REFERENCE_LOOP = 150_000  # iterations of the reference loop (about 10 ms)
REFERENCE_SAMPLES = 10    # reference loops timed before and after the jobs

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, expectations  # noqa: E402
import tracer as tracing  # noqa: E402

COUNT_SUFFIXES = (".calls", ".cells", ".nnz", ".bytes", ".max_bits",
                  ".max_cells", ".max_transform_cells")


class BenchError(Exception):
    """The benchmark cannot run here (no package, failed set-up child)."""


def import_package():
    """Import hochgysin from this checkout's src/ and nowhere else."""
    if not (SRC / "hochgysin" / "__init__.py").is_file():
        raise BenchError(f"no hochgysin package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hochgysin
    if Path(hochgysin.__file__).resolve().parent != (SRC / "hochgysin").resolve():
        raise BenchError(f"hochgysin imported from {hochgysin.__file__}, not {SRC}")
    return hochgysin


def setup_child(workload) -> float:
    """Time from before `import hochgysin` until the fixtures are built."""
    start = time.perf_counter()
    import_package()
    workload.setup()
    return time.perf_counter() - start


def measure_setup(name: str) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def reference_s() -> float:
    """Time of a fixed pure-Python integer loop.  The stamp reports its
    median around the jobs, so that a run made while the shared host was
    slow can be told apart from a slower program."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i
    return time.perf_counter() - start


def run_jobs(workload, ctx, specs, expected, tr, stop):
    """Closed loop: run, time and check jobs until stop(count, timed_s)."""
    times, failures, ok = [], [], 0
    while not stop(len(times), sum(times)):
        spec = next(specs)
        tr.active = True
        start = time.perf_counter()
        try:
            out = workload.run(ctx, spec, tr)
        except Exception as exc:  # a job that raises is a failed job
            times.append(time.perf_counter() - start)
            tr.active = False
            failures.append(f"{spec!r}: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - start)
        tr.active = False
        try:
            problems = workload.check(ctx, spec, out, expected)
        except Exception as exc:  # a check that raises is a failed check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"{spec!r}: " + "; ".join(problems))
        else:
            ok += 1
        del out
    return times, failures, ok


def timed_loop(seconds):
    start = time.perf_counter()

    def stop(count, timed_s):
        if count == 0:
            return False
        return timed_s >= seconds or time.perf_counter() - start >= MAX_LOOP_S
    return stop


def fixed_count(k):
    return lambda count, timed_s: count >= k


def machine_stamp() -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def end_to_end(args, workload, expected, stamp):
    setup_samples = measure_setup(workload.name)
    t0 = time.perf_counter()
    import_package()
    ctx = workload.setup()
    stamp["setup_main_s"] = time.perf_counter() - t0
    stamp["setup_samples_s"] = setup_samples
    gc.collect()
    probes = [reference_s() for _ in range(REFERENCE_SAMPLES)]
    times, failures, ok = run_jobs(workload, ctx, workload.jobs(args.seed), expected,
                                   tracing.NullTracer(), timed_loop(args.seconds))
    probes += [reference_s() for _ in range(REFERENCE_SAMPLES)]
    stamp["reference_s"] = statistics.median(probes)
    stamp["jobs"] = len(times)
    stamp["timed_s"] = sum(times)
    if len(times) >= P90_MIN_JOBS:
        stamp["job_s.p90"] = statistics.quantiles(times, n=10)[-1]
    metrics = {
        "job_s.p50": (statistics.median(times), "s"),
        "jobs_per_s": (ok / sum(times), "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return len(times), failures, metrics


def check_repeat(workload, seed, counts) -> str:
    """Compare deterministic counts with an earlier traced run of this seed."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"counts-{workload}-{seed}.json"
    if not path.exists():
        path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
        return "first"
    before = json.loads(path.read_text(encoding="utf-8"))
    if before == counts:
        return "repeat"
    diff = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
    sys.stderr.write(f"perfbench: UNSTEADY counts differ from an earlier run: {diff}\n")
    return "unsteady"


def traced(args, workload, expected, stamp):
    import_package()
    k = workload.trace_jobs
    t0 = time.perf_counter()
    ctx = workload.setup()
    setup_plain = time.perf_counter() - t0
    gc.collect()
    null = tracing.NullTracer()
    times_plain, fail_plain, _ = run_jobs(workload, ctx, workload.jobs(args.seed),
                                          expected, null, fixed_count(k))
    del ctx
    gc.collect()

    tr = tracing.Tracer()
    stamp["rebound_names"] = tracing.install(tr)
    tr.active = True
    t0 = time.perf_counter()
    ctx = workload.setup()
    setup_traced = time.perf_counter() - t0
    tr.active = False
    gc.collect()
    times_traced, fail_traced, _ = run_jobs(workload, ctx, workload.jobs(args.seed),
                                            expected, tr, fixed_count(k))
    wall_plain = setup_plain + sum(times_plain)
    wall_traced = setup_traced + sum(times_traced)
    stamp["jobs"] = k
    stamp["untraced_wall_s"] = wall_plain
    stamp["traced_wall_s"] = wall_traced

    layer = tr.metrics()
    counts = {n: v for n, v in layer.items() if n.endswith(COUNT_SUFFIXES)}
    stamp["counts_repeat"] = check_repeat(workload.name, args.seed, counts)
    metrics = {name: (layer[name], unit) for name, unit in tracing.layer_metrics()}
    metrics.update({
        "trace.wall_s": (wall_traced, "s"),
        "trace.untraced_wall_s": (wall_plain, "s"),
        "trace.overhead_s": (wall_traced - wall_plain, "s"),
        "trace.bookkeeping_s": (tr.bookkeeping_s, "s"),
        "trace.remainder_s": (wall_traced - tr.covered_s, "s"),
    })
    return 2 * k, fail_plain + fail_traced, metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--expect-wrong", action="store_true", dest="expect_wrong",
                   help="use one false expected value (negative self-test)")
    p.add_argument("--setup-only", action="store_true", dest="setup_only",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_only:
            print(repr(setup_child(workload)))
            return 0
        expected = expectations(workload.name, wrong=args.expect_wrong)
        stamp = {"workload": workload.name, "seed": args.seed,
                 "seed_used": workload.uses_seed, "seconds": args.seconds,
                 "trace": args.trace, "expect_wrong": args.expect_wrong}
        run = traced if args.trace else end_to_end
        attempted, failures, metrics = run(args, workload, expected, stamp)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    stamp.update(machine_stamp())
    stamp["failed_ratio"] = len(failures) / attempted
    stamp["failures"] = failures[:10]
    for line in failures[:10]:
        sys.stderr.write(f"perfbench: FAILED {line}\n")
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
