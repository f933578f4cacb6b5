#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that
  * every workload, traced and untraced, prints exactly the metrics that
    BENCHMARK.json names, each with its unit, and passes its checks;
  * one workload seed writes byte-identical inputs (CLI arguments, sweep
    config, env JSON) and another seed writes different ones;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits nonzero without printing a result.
Exits 0 when all hold.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out" / "smoke"


def inputs(wl, seed, workdir):
    """Bytes of every input of operation 0, with the workdir path removed."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    argv = wl.write_inputs(seed, 0, workdir, False, wl.threads)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return [a.replace(str(workdir), "<dir>") for a in argv], files


def result(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name, wl in WORKLOADS.items():
        first = inputs(wl, 11, SCRATCH / "a")
        again = inputs(wl, 11, SCRATCH / "b")
        other = inputs(wl, 12, SCRATCH / "c")
        if first != again:
            problems.append(f"{name}: seed 11 wrote different inputs twice")
        if first == other:
            problems.append(f"{name}: seeds 11 and 12 wrote the same inputs")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res, err = result(ROOT, name, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {} if res is None else {k: v["unit"] for k, v in res["metrics"].items()}
            if code != 0 or res is None or not res["correct"]:
                problems.append(f"{name} --trace {trace}: exit {code}, result {res}, stderr {err[-500:]}")
            elif got != want:
                problems.append(f"{name} --trace {trace}: metrics {sorted(got.items())} "
                                f"!= BENCHMARK.json {sorted(want.items())}")
            else:
                print(f"ok {name} --trace {trace}: " + ", ".join(
                    f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()))
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, res, _ = result(bare, "annealed_direct", 0)
    if code == 0 or res is not None:
        problems.append(f"without the program: exit {code}, result {res}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
