#!/usr/bin/env python3
"""Benchmark of portraitdyn: four seeded workloads, end-to-end or traced.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 15 --trace 0

Workloads: enumerate, search, invariants, cli_cold (see perfbench/README.md).
With --trace 0 it prints the end-to-end metrics (setup_s, run_s,
item_p50_ms, item_tail_ms, peak_rss_mb) and failed_frac; with --trace 1
it wraps the package's public functions and prints the per-layer
metrics instead.  Every output is checked against an independent
reference.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The package is imported
from src/ of the checkout that holds this file; nothing is installed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3          # fresh processes timed for setup_s; the median is reported
IMPORT_PROBES = 3         # fresh processes timed for the cli.* import metrics
PERCENTILES = (99.9, 99, 95, 90, 75, 50)
PROBE_TIMEOUT_S = 120
HASH_SEED = "0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("enumerate", "search", "invariants", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="sizes the timed job; it takes about this long on the "
                             "reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up and warm up, then exit (times setup_s)")
    return parser.parse_args(argv)


def tail(latencies: list) -> tuple:
    """(percentile, value): the highest listed percentile with at least
    ten items beyond it, by the nearest-rank method."""
    n = len(latencies)
    ordered = sorted(latencies)
    for q in PERCENTILES:
        if n * (100 - q) / 100 >= 10 or q == PERCENTILES[-1]:
            return q, ordered[max(0, math.ceil(q / 100 * n) - 1)]


def probe_setup(args) -> float:
    """Set-up time of a fresh process: its wall time minus the reference
    samples it took, times the speed factor those samples give."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-2000:]}")
    probe = json.loads(proc.stdout.decode().splitlines()[-1])
    return (elapsed - probe["spent"]) * probe["factor"]


def import_profile(env) -> dict:
    """Bare interpreter start, and `import portraitdyn.cli` with its sympy
    share from -X importtime; medians over fresh processes."""
    bare, total, sympy_s = [], [], []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=PROBE_TIMEOUT_S)
        bare.append(time.perf_counter() - start)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import portraitdyn.cli"], env=env, check=True,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                name = fields[2].strip()
                cumulative[name] = max(cumulative.get(name, 0), int(fields[1]))
        total.append(cumulative.get("portraitdyn.cli", 0) / 1e6)
        sympy_s.append(cumulative.get("sympy", 0) / 1e6)
    return {"cli.interpreter_s": statistics.median(bare),
            "cli.import_s": statistics.median(total),
            "cli.import.sympy_s": statistics.median(sympy_s)}


def report_failures(failures):
    for _, message in failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    if len(failures) > 10:
        print(f"... and {len(failures) - 10} more failures", file=sys.stderr)


def count_failed(failures) -> int:
    return len({i for i, _ in failures if i is not None}) + sum(
        1 for i, _ in failures if i is None)


def timed_run(wl, args) -> int:
    import speed

    probe_setup(args)       # fills the page cache; not counted
    setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
    wl.setup()
    wl.warmup()
    probe = speed.SpeedProbe()
    if wl.in_process:
        wl.clock = probe.clock
        with probe.sampling():
            job = wl.run_job(wl.inputs)
    else:
        job = wl.run_job(wl.inputs)
    rss = wl.peak_rss_mb(job)
    failures = wl.check(wl.inputs, job)
    report_failures(failures)
    # Each item is scaled by the machine speed sampled around it, the time
    # between items by the speed over the whole job.  Cold commands run in
    # child processes that the reference chunk cannot interleave with, and
    # samples taken between them added more noise than they removed, so
    # their times stay raw (no samples: factor 1).
    job_factor = speed.factor(probe.samples)
    scaled = [it.seconds * probe.local_factor(it.at, it.at + it.seconds)
              if probe.samples else it.seconds for it in job.items]
    between = job.run_s - sum(it.seconds for it in job.items)
    run_s = sum(scaled) + between * job_factor
    latencies = [s for s, it in zip(scaled, job.items) if it.latency]
    raw_latencies = [it.seconds for it in job.items if it.latency]
    q, tail_s = tail(latencies)
    attempted, failed = len(job.items), count_failed(failures)
    n = len(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    "median of %d fresh processes: %s" % (
                        len(setup), ", ".join(f"{s:.3f}" for s in setup))),
        "run_s": (run_s, "s", f"raw {job.run_s:.3f} s, {attempted} items"),
        "item_p50_ms": (statistics.median(latencies) * 1e3, "ms",
                        f"raw {statistics.median(raw_latencies) * 1e3:.3f} ms, n={n}"),
        "item_tail_ms": (tail_s * 1e3, "ms",
                         f"raw {tail(raw_latencies)[1] * 1e3:.3f} ms, p{q:g}, n={n}, "
                         f"{n - math.ceil(q / 100 * n)} beyond"),
        "peak_rss_mb": (rss, "MB", ""),
    }
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace 0  "
          f"speed {job_factor:.4f}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:14s} {value:12.4f} {unit:3s}  {note}")
    print(f"  {'failed_frac':14s} {failed / attempted:12.4f}      {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0


def traced_run(wl, args) -> int:
    import tracer as tracing
    from workloads import child_env

    profile = import_profile(child_env(ROOT))
    wl.setup()
    if wl.pd is None:
        wl.import_package()
    wl.warmup()
    untraced = wl.comparison_job()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        problems = tracer.verify()
        job = wl.traced_job(tracer.item)
    finally:
        tracer.uninstall()
    failures = wl.check(wl.inputs, job)
    problems += wl.coverage(tracer, wl.inputs, job)
    summary = tracer.summary()
    ctx = dict(profile, **wl.layer_context(wl.inputs, job))
    ctx.update({"trace.untraced_run_s": untraced.run_s, "trace.traced_run_s": job.run_s,
                "trace.spans": len(tracer.span_name)})
    metrics = tracing.per_layer_metrics(summary, ctx)

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace 1")
    print(f"  {'span':52s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s}")
    for name, calls, total, self_s in summary.rows()[:25]:
        print(f"  {name:52s} {calls:9d} {total:9.3f} {self_s:9.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    for warning in tracer.warnings:
        print(f"WARNING {warning}", file=sys.stderr)
    for problem in problems:
        print(f"TRACE COVERAGE FAILURE {problem}", file=sys.stderr)
    report_failures(failures)
    attempted, failed = len(job.items), count_failed(failures)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "portraitdyn" / "__init__.py").is_file():
        print(f"error: no portraitdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set and dict iteration orders steer how much work the package
        # does (the d=3 enumeration took 9.4-11.8 s across hash seeds), so
        # every process of a run uses one fixed hash seed.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *sys.argv[1:]], env)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](ROOT, args.seed, args.seconds)
    try:
        if args.setup_probe:
            import speed

            probe = speed.SpeedProbe()
            with probe.sampling() if wl.in_process else contextlib.nullcontext():
                wl.setup()
                wl.warmup()
            print(json.dumps({"spent": probe.spent, "factor": speed.factor(probe.samples)}))
            return 0
        return traced_run(wl, args) if args.trace else timed_run(wl, args)
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
