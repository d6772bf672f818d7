#!/usr/bin/env python3
"""Benchmark of fsel-ids: one workload per call, in a fresh process.

    python3 perfbench/run.py --workload wrapper-tree --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The inputs for (seed, scale) are
generated once into ``.bench_data/`` before anything is timed. The
workload then runs in a child process with BLAS and OpenMP pinned to one
thread. Rounds of the experiment run until ``--seconds`` would be
exceeded (at least one), and ``run_s`` is the median round. Set-up is
timed before, between and after the rounds, and ``setup_s`` is the
median set-up. Both are scaled by the host speed that the probe of
``hostspeed.py`` measured while they ran, except the rounds of
filter-grid: its two worker threads would slow the probe themselves, so
no probe runs in them and its ``run_s`` is wall time. With ``--trace 1``
the child installs the span recorder, runs no probe, sets up once, runs
one round and reports per-layer metrics instead. Outputs are checked
after the timed part. The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SCALES = {"wrapper-tree": "wrapper", "filter-grid": "grid", "unsw-full": "full"}
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=list(SCALES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", help=argparse.SUPPRESS)  # result file; set by the parent
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def child_main(args) -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import checks
    import hostspeed
    import tracing

    recorder = tracing.Recorder()
    if args.trace:
        tracing.install(recorder)  # before the imports below bind the wrapped names
    from workloads import WORKLOADS

    from fsel_ids.pipeline import load_splits

    data = ROOT / ".bench_data" / f"{SCALES[args.workload]}-{args.seed}"
    scratch = Path(args.child).parent
    workload = WORKLOADS[args.workload](args.seed, data / "train.csv", data / "test.csv", scratch)

    setup, probe = [], hostspeed.Probe()

    def set_up(reps):
        """Time ``reps`` calls of load_splits; return the last one's splits."""
        splits = None
        for _ in range(reps):
            splits = None  # free the previous pair before loading the next
            started = time.perf_counter()
            splits = load_splits(workload.base)
            setup.append((started, time.perf_counter()))
        return splits

    train, test, _ = set_up(1)
    recorder.active = False
    workload.prepare(train, test)
    del train, test
    recorder.active = True
    if not args.trace:
        probe.start()
        set_up(workload.setup_reps[0] - 1)

    rounds, attempted, failed = [], 0, 0
    started = time.perf_counter()
    while True:
        if not workload.probe_rounds:
            probe.stop()
        t0 = time.perf_counter()
        a, f = workload.round()
        rounds.append((t0, time.perf_counter()))
        if not args.trace:
            probe.start()
        attempted, failed = attempted + a, failed + f
        elapsed = time.perf_counter() - started
        if args.trace or elapsed + statistics.median(b - a for a, b in rounds) > args.seconds:
            break
        set_up(workload.setup_reps[1])
    rss = peak_rss_mb()
    recorder.active = False
    # The last set-up comes after the peak RSS is read; its splits feed the checks.
    train, test, _ = set_up(1 if args.trace else workload.setup_reps[2])
    probe.stop()

    wall = {"setup": [b - a for a, b in setup], "rounds": [b - a for a, b in rounds]}
    if args.trace:
        metrics = tracing.layer_metrics(recorder, wall["rounds"][0])
        scaled = wall
    else:
        scaled = {"setup": [probe.scaled(a, b) for a, b in setup[1:]],
                  "rounds": [probe.scaled(a, b) if workload.probe_rounds else b - a
                             for a, b in rounds]}
        metrics = {"setup_s": (statistics.median(scaled["setup"]), "s"),
                   "run_s": (statistics.median(scaled["rounds"]), "s"),
                   "peak_rss_mb": (rss, "MB")}
    correct = True
    try:
        workload.check(train, test)
    except checks.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": {"wall": wall, "scaled": scaled,
                    "probe_us": [c * 1e6 for c in probe.cpu]},
    }
    Path(args.child).write_text(json.dumps(result), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "fsel_ids" / "pipeline.py").is_file():
        print(f"error: no fsel_ids sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import gen

    scale = SCALES[args.workload]
    data = ROOT / ".bench_data" / f"{scale}-{args.seed}"
    gen.generate(data, args.seed, scale)

    scratch = ROOT / ".bench_data" / "runs" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    result_path = scratch / "result.json"
    env = dict(os.environ, PYTHONHASHSEED="0", **{k: BLAS_THREADS for k in THREAD_ENV})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--child", str(result_path)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not result_path.is_file():
            print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    samples = result.pop("samples")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas_threads {BLAS_THREADS}  setup samples {len(samples['wall']['setup'])}  "
          f"rounds {len(samples['wall']['rounds'])}")
    for kind in ("wall", "scaled"):
        for phase in ("setup", "rounds"):
            print(f"  {phase} {kind} s: " + " ".join(f"{t:.4f}" for t in samples[kind][phase]))
    if samples["probe_us"]:
        q = statistics.quantiles(samples["probe_us"], n=10)
        print(f"  probes {len(samples['probe_us'])}  cpu us deciles 1/5/9: "
              f"{q[0]:.1f} {q[4]:.1f} {q[8]:.1f}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6f} {m['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
