#!/usr/bin/env python3
"""puxp benchmark: two train workloads, evaluate, and a 16k-point upsample.

Run from the root of a checkout; the package is imported from its `src/`:

    python3 bench/run.py --workload train-expand --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 0

`--trace 0` measures the end-to-end metrics with the program unmodified.
`--trace 1` spends half the run untraced and half with the outside-in tracer
installed, and reports per-layer metrics plus the tracing overhead. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Result files and traces go to .bench_build/puxp-bench/.
See bench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("train-expand", "train-feature-knn", "evaluate", "upsample-16k")
# After each operation, set up again until set-up time reaches this share of
# the operation's time (at least once), so set-ups sample the whole run.
SETUP_SHARE = 0.15
BLAS_THREADS = 1
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_build" / "puxp-bench"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1, help="draws every input of the workload")
    parser.add_argument("--seconds", type=float, default=12.0, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args):
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return status


def limit_threads():
    """One BLAS/OpenMP thread: on a shared machine a second pool thread that
    waits for a busy core slows every matmul, and on 2 cores it bought no
    speed (a train step took ~285 ms either way)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_program():
    """Import puxp from this checkout's src/, or return None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import puxp
    except ImportError as exc:
        print(f"error: cannot import puxp from {src}: {exc}", file=sys.stderr)
        return None
    if not Path(puxp.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: puxp was imported from {puxp.__file__}, not from {src}", file=sys.stderr)
        return None
    return puxp


def machine_info(threads):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
    }


def timed_setups(workload, seed, seconds, times):
    """Set up at least once and until `seconds` of set-up time have passed."""
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
        if spent >= seconds:
            return


def warm_up(workload, state, run_op):
    """One untimed operation, so first-call costs stay out of the timings."""
    workload.begin_round(state)
    run_op(state)


def measure(workload, state, seconds, run_op, after_op=None):
    """Whole rounds of operations until `seconds` have passed.

    Returns the wall time of every operation that succeeded, the number that
    failed and the first errors. A failure ends its round; the round's
    remaining operations count as failed too. `after_op`, if given, is called
    untimed after each operation with that operation's time.
    """
    times, failed, errors = [], 0, []
    deadline = time.perf_counter() + seconds
    while True:
        workload.begin_round(state)
        for i in range(workload.round_ops):
            t0 = time.perf_counter()
            try:
                run_op(state)
            except Exception as exc:  # counted and reported, the run goes on
                failed += workload.round_ops - i
                if len(errors) < 3:
                    errors.append(f"{type(exc).__name__}: {exc}")
                break
            times.append(time.perf_counter() - t0)
            if after_op is not None:
                after_op(times[-1])
        if time.perf_counter() >= deadline:
            return times, failed, errors


def timing_summary(times):
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(times)
    text = f"n={n} median={statistics.median(times) * 1e3:.2f} ms"
    if n >= 40:
        pct = int(100 * (n - 10) / n)
        value = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
        text += f" p{pct}={value * 1e3:.2f} ms"
    return text


def run_untraced(workload, args):
    workload.prepare(args.seed)
    state = workload.setup(args.seed)  # untimed, like the warm-up operation
    warm_up(workload, state, workload.op)

    # The machine this was tuned on alternates between a fast and a 1.3-1.7x
    # slower mode for seconds to minutes, so set-ups are interleaved with the
    # operations rather than made in one burst.
    setup_times = []

    def set_up_again(op_seconds):
        timed_setups(workload, args.seed, SETUP_SHARE * op_seconds, setup_times)

    times, failed, errors = measure(workload, state, args.seconds, workload.op, set_up_again)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = workload.check(state) if times else ["no operation succeeded"]
    metrics = {}
    if times:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (1.0 / statistics.median(times), "1/s"),
            "chamfer_final": (workload.chamfer_final(state), "dist2"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(f"operations: {timing_summary(times) if times else 'none succeeded'}")
    if setup_times:
        print(f"set-ups: n={len(setup_times)} median={statistics.median(setup_times):.4f} s")
    if getattr(state, "losses", None):
        drop = 1.0 - state.losses[-1] / state.losses[0]
        print(f"loss: first step {state.losses[0]:.6g}, last step {state.losses[-1]:.6g}, drop {drop:.3f}")
    return metrics, times, setup_times, failed, errors, problems, None


def run_traced(workload, args, puxp):
    import tracer

    workload.prepare(args.seed)
    state = workload.setup(args.seed)
    warm_up(workload, state, workload.op)
    base_times, base_failed, errors = measure(workload, state, args.seconds / 2.0, workload.op)
    del state

    tr = tracer.Tracer()
    tr.install(puxp)
    try:
        traced_state = workload.setup(args.seed)
        tr.phase = "warm-up"
        warm_up(workload, traced_state, workload.op)
        tr.phase = "op"

        def traced_op(st):
            tr.op += 1
            with tr.span(tracer.OP_SPAN):
                workload.op(st)

        times, failed, more_errors = measure(workload, traced_state, args.seconds / 2.0, traced_op)
    finally:
        tr.uninstall()
    problems = workload.check(traced_state) if times else ["no operation succeeded"]
    metrics = {}
    if times and base_times:
        metrics = tracer.layer_metrics(tr, n_setups=1, n_ops=len(times))
        overhead = 100.0 * (statistics.median(times) / statistics.median(base_times) - 1.0)
        metrics["trace.overhead_pct"] = (overhead, "%")
    print(f"untraced operations: {timing_summary(base_times) if base_times else 'none succeeded'}")
    print(f"traced operations: {timing_summary(times) if times else 'none succeeded'}")
    all_times = base_times + times
    return metrics, all_times, [], base_failed + failed, errors + more_errors, problems, tr


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    threads = limit_threads()
    puxp = import_program()
    if puxp is None:
        return 2
    import workloads

    machine = machine_info(threads)
    print("machine: " + json.dumps(machine))
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, str(workdir))
        if args.trace:
            outcome = run_traced(workload, args, puxp)
        else:
            outcome = run_untraced(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, times, setup_times, failed, errors, problems, tr = outcome

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for error in errors:
        print(f"OPERATION FAILED: {error}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    if "ops_per_s" in metrics:
        label, per_op = workload.throughput
        print(f"  ({label} = {per_op * metrics['ops_per_s'][0]:.6g})")

    result = {
        "correct": not problems,
        "attempted": len(times) + failed,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / "results" / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump({"args": vars(args), "machine": machine, "op_seconds": times, "setup_seconds": setup_times,
                   "problems": problems, "errors": errors, "result": result}, f, indent=1)
    if tr is not None:
        (OUT_DIR / "traces").mkdir(parents=True, exist_ok=True)
        tr.write_jsonl(OUT_DIR / "traces" / f"{stem}.jsonl")
    if not metrics:
        print("error: no metrics were measured", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
