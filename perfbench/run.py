#!/usr/bin/env python3
"""Benchmark of the string-sausage CLI on four named workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.

--trace 0 runs the workload's CLI call as a closed loop of one caller, one
fresh process per call, for about S seconds, checks each result and
reports the end-to-end metrics, with each call's times scaled to one
reference machine speed by samplers on the call's CPUs (speed.py).  --trace 1 runs one operation untraced at
one and at two workers, then once more in this process through
`cli.main` with spans around each layer, checks that all three give the
same output byte for byte and reports the per-layer metrics.

The last stdout line is the JSON result; the line before it is the run
record (machine, versions, commit) and per-operation detail.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS threads are pinned so that `--threads` alone sets the parallelism.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import speed  # noqa: E402  (after the pinning above)
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
CALL_TIMEOUT_S = 150


class Child:
    """Runs CLI calls in fresh processes and keeps their timings."""

    def __init__(self, cpus=None):
        self.cpus = cpus  # CPUs the calls are pinned to; None leaves them free
        self.env = {k: v for k, v in os.environ.items() if k != "STRING_SAUSAGE_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.setups: list = []  # (spawn-to-ready seconds, spawn time, ready time)
        self.cpu: list = []
        # (wall_s, peak rss in kB of the process and its workers, start time)
        self.calls: list = []

    def __call__(self, argv, probe=False):
        spec = json.dumps({"argv": [str(a) for a in argv], "src": str(SRC), "probe": probe,
                           "cpus": self.cpus})
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), spec], cwd=ROOT,
                                env=self.env, stdout=subprocess.PIPE, text=True,
                                process_group=0)
        try:
            out, _ = proc.communicate(timeout=CALL_TIMEOUT_S)
        except BaseException as exc:  # the timeout, or SIGTERM on this process
            os.killpg(proc.pid, signal.SIGKILL)  # the call and its pool workers
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                return -1, ""
            raise
        if proc.returncode != 0:
            return proc.returncode, out
        rec = json.loads(out.strip().splitlines()[-1])
        self.setups.append((rec["t_ready"] - t0, t0, rec["t_ready"]))
        if probe:
            return 0, ""
        workers = int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 0
        self.calls.append((rec["wall_s"],
                           rec["rss_self_kb"] + (workers if workers > 1 else 0) * rec["rss_worker_kb"],
                           rec["t_start"]))
        self.cpu.append((rec["cpu_s"], rec["steal_s"]))
        return rec["exit"], rec["stdout"]

    def wall_since(self, first: int) -> float:
        return sum(call[0] for call in self.calls[first:])


def run_record() -> dict:
    commit = "none: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "pinned_env": PINNED,
    }


def measure(wl, seed, seconds, tiny, workdir):
    """Closed loop of untraced operations; end-to-end metrics.

    Calls are pinned to as many CPUs as the workload has workers, the last
    ones this process may use, and their times are divided by the speed
    factor that the samplers on those CPUs give for the call's window
    (speed.py).
    """
    cpus = sorted(os.sched_getaffinity(0))[-wl.threads:]
    child = Child(cpus)
    sampler = speed.Sampler(cpus, workdir)
    try:
        write = []
        for _ in range(SETUP_PROBES):
            t0 = time.monotonic()
            argv = wl.write_inputs(seed, 0, workdir, tiny, wl.threads)
            write.append((time.monotonic() - t0, t0, time.monotonic()))
            child(argv, probe=True)
        outcomes, first_calls = [], []
        start = time.monotonic()
        while True:
            first_calls.append(len(child.calls))
            outcomes.append(wl.op(child, seed, len(outcomes), workdir, tiny, wl.threads, "m"))
            elapsed = time.monotonic() - start
            if elapsed * (len(outcomes) + 1) / len(outcomes) > seconds:
                break
    finally:
        sampler.stop()
    first_calls.append(len(child.calls))

    def scaled(samples):
        return [s / sampler.factor(t0, t1) for s, t0, t1 in samples]

    call_walls = scaled([(w, t, t + w) for w, _, t in child.calls])
    walls, raw_walls, rss = [], [], []
    for a, b in zip(first_calls, first_calls[1:]):
        walls.append(sum(call_walls[a:b]))
        raw_walls.append(sum(call[0] for call in child.calls[a:b]))
        rss.append(max((call[1] for call in child.calls[a:b]), default=0))
    good = [i for i, o in enumerate(outcomes) if not o.errors]
    detail = {"ops": [{"estimate": o.estimate, "wall_s": w, "scaled_wall_s": s, "errors": o.errors}
                      for o, w, s in zip(outcomes, raw_walls, walls)]}
    if not good:
        return outcomes, None, detail
    # median over operations, so that one call slowed by a noisy neighbour
    # does not set the run's figure
    cost = statistics.median(walls[i] / outcomes[i].replicas for i in good)
    metrics = {
        "replicas_per_s": (1.0 / cost, "1/s"),
        "time_to_1pct_s": (cost * wl.relvar([outcomes[i] for i in good]) / 1e-4, "s"),
        "setup_s": (statistics.median(scaled(child.setups)) + statistics.median(scaled(write)),
                    "s"),
        "peak_rss_mb": (statistics.median(rss[i] for i in good) / 1024.0, "MB"),
    }
    raw_cost = statistics.median(raw_walls[i] / outcomes[i].replicas for i in good)
    detail["unscaled"] = {"replicas_per_s": 1.0 / raw_cost,
                          "setup_s": statistics.median(s for s, _, _ in child.setups)}
    detail["cpus"] = cpus
    detail["speed_chunks"] = [len(rows) for rows in sampler.chunks]
    detail["cpu_steal_s"] = child.cpu
    return outcomes, metrics, detail


def traced(wl, seed, tiny, workdir):
    """One operation at one and two workers untraced, then traced in-process."""
    from tracing import Tracer

    child = Child()
    one = wl.op(child, seed, 0, workdir, tiny, 1, "w1")
    wall_1 = child.wall_since(0)
    n_calls = len(child.calls)
    two = wl.op(child, seed, 0, workdir, tiny, 2, "w2")
    wall_2 = child.wall_since(n_calls)

    sys.path.insert(0, str(SRC))
    from string_sausage import cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"string_sausage imported from {cli.__file__}, not {SRC}")
    tracer = Tracer()
    tracer.install("string_sausage")
    main = tracer.wrap("cli.main", cli.main)

    def call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([str(a) for a in argv])
        return code, out.getvalue()

    try:
        this = wl.op(call, seed, 0, workdir, tiny, 1, "traced")
    finally:
        tracer.uninstall()
    if two.signature != one.signature:
        two.errors.append("output at two workers differs from one worker")
    if this.signature != one.signature:
        this.errors.append("traced output differs from untraced")
    outcomes = [one, two, this]
    wall_ns = tracer.wall_ns()
    metrics = tracer.layer_metrics(wall_ns)
    metrics["survival.pool.efficiency"] = (wall_1 / (2.0 * wall_2), "frac")
    metrics["survival.pool.overhead_s"] = (wall_2 - wall_1 / 2.0, "s")
    metrics["trace.overhead_frac"] = (wall_ns / 1e9 / wall_1 - 1.0, "frac")
    spans_path = OUT / f"spans-{wl.name}-{seed}.json"
    spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    detail = {
        "ops": [{"estimate": o.estimate, "errors": o.errors} for o in outcomes],
        "wall_s": {"workers_1": wall_1, "workers_2": wall_2, "traced": wall_ns / 1e9},
        "estimator_quality": tracer.estimator_quality(),
        "absent": tracer.absent,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return outcomes, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="100 replicas per call and a short sweep (smoke check only)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "string_sausage" / "__init__.py").is_file():
        print(f"no string_sausage package under {SRC}: run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("--seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = OUT / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            outcomes, metrics, detail = traced(wl, args.seed, args.tiny, workdir)
        else:
            outcomes, metrics, detail = measure(wl, args.seed, args.seconds, args.tiny, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"record": run_record(), "workload": wl.name, "seed": args.seed,
                      "detail": detail}))
    if metrics is None:
        print("every operation failed", file=sys.stderr)
        return 1
    failed = sum(1 for o in outcomes if o.errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
