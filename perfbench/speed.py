"""Speed sampler: says how fast the CPUs that run the CLI calls are running.

On a shared machine the same CLI call can take from 1x to 2x its fastest
time, in spells of a fraction of a second to minutes, with CPU time rising
with wall time: the core is slower, not descheduled.  Each CPU slows down
apart from the others.  A probe timed between calls, on any CPU, missed
much of it.

So while a benchmark run lasts, one sampler process per CPU that the calls
are pinned to runs a fixed interpreter loop on that CPU at the lowest
priority (nice 19).  It takes about 1.5% of the CPU while a call runs
there, and so samples the CPU's speed at the same moments the call does.
It times each chunk of the loop in its own CPU time and writes one line
per chunk: `<CLOCK_MONOTONIC at the chunk's end> <CPU seconds>`.  A call's
speed factor is the chunk time over the call's window, weighted by wall
time and averaged over the CPUs, over `NOMINAL_CHUNK_S`.  The benchmark divides the call's times by
it, so that its figures read at one reference speed.

The loop is plain interpreter work.  Of the kernels tried (this loop, small
numpy arrays with Philox generators and FFTs, a kd-tree build and query, a
large sort), it followed the CLI's own slowdowns most closely: over
10-second blocks on one pinned CPU its time correlated 0.83-0.87 with that
of survival calls of every workload, with slopes of 0.92-1.11.  It is the
benchmark's own and does not change when the program does.

    python3 perfbench/speed.py CPU OUT   # one sampler; runs until killed
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

CHUNK = 30_000
# About the median chunk time on the machine the benchmark was defined on
# (2 vCPU Xeon VM, Python 3.11.7), taken as the reference speed.
NOMINAL_CHUNK_S = 0.002


def sample(cpu: int, out: str) -> None:
    """Loop on `cpu` until killed, or until the process that started it ends."""
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    acc = 0.0
    with open(out, "w", encoding="ascii") as fh:
        while os.getppid() == parent:
            c0 = time.process_time()
            for i in range(CHUNK):
                acc += i * 1e-9
            c1 = time.process_time()
            fh.write(f"{time.monotonic():.6f} {c1 - c0:.9f}\n")
            fh.flush()


class Sampler:
    """One sampler process per CPU, from start to `stop()`."""

    def __init__(self, cpus, workdir: Path):
        self.paths = [workdir / f"speed-cpu{cpu}.txt" for cpu in cpus]
        self.procs = []
        self.chunks: list = []
        try:
            for cpu, path in zip(cpus, self.paths):
                self.procs.append(subprocess.Popen(
                    [sys.executable, __file__, str(cpu), str(path)],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL))
            self._wait_for_chunks(2)
        except BaseException:
            self.stop()
            raise

    def _wait_for_chunks(self, n: int, timeout_s: float = 30.0) -> None:
        """Return once every sampler has written n chunks, so that they cover what follows."""
        deadline = time.monotonic() + timeout_s
        for proc, path in zip(self.procs, self.paths):
            while not (path.exists() and path.read_bytes().count(b"\n") >= n):
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"speed sampler writing {path} did not start")
                time.sleep(0.01)

    def stop(self) -> None:
        """End the samplers, wait for them, and read what they wrote."""
        if self.procs and all(proc.poll() is None for proc in self.procs):
            # once the calls are done a chunk takes milliseconds: let the one
            # under way end, so that the last call's window is covered
            time.sleep(0.05)
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
        for proc in self.procs:
            proc.wait()
        self.chunks = []
        for path in self.paths:
            rows = []
            if path.exists():
                # the last piece is empty, or a line cut short by the kill
                for line in path.read_text(encoding="ascii").split("\n")[:-1]:
                    parts = line.split()
                    if len(parts) == 2:
                        rows.append((float(parts[0]), float(parts[1])))
            self.chunks.append(rows)

    def factor(self, t0: float, t1: float) -> float:
        """Chunk time over [t0, t1], weighted by wall time, over the nominal one.

        A chunk stands for the stretch of wall time since the chunk before
        it.  Weighting by that stretch counts every moment of the window
        once: while a call keeps the CPU busy a chunk spreads over a long
        stretch, while the CPU idles the sampler runs many short ones.  The
        CPUs are averaged.
        """
        per_cpu = []
        for rows in self.chunks:
            num = den = 0.0
            for (start, _), (stop, cpu_s) in zip(rows, rows[1:]):
                overlap = min(stop, t1) - max(start, t0)
                if overlap > 0:
                    num += cpu_s * overlap
                    den += overlap
            if den > 0:
                per_cpu.append(num / den)
        if not per_cpu:
            raise RuntimeError(f"no speed sample covers [{t0}, {t1}]")
        return sum(per_cpu) / len(per_cpu) / NOMINAL_CHUNK_S


if __name__ == "__main__":
    sample(int(sys.argv[1]), sys.argv[2])
