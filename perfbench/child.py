"""One untraced CLI call, timed from inside the process that makes it.

    python3 perfbench/child.py '<json spec>'

The spec holds `argv` (the `string-sausage` arguments), `src` (the
directory the package must be imported from) and `probe` (import and
parse only), and `cpus` (the CPUs to pin the process and its workers to,
or null).  The last stdout line is a JSON object with the time the
process was ready and the time `cli.main` started (CLOCK_MONOTONIC,
comparable with the parent's clock), the wall time of `cli.main`, its exit code and stdout, and the peak
resident set of this process and of its largest reaped worker.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def steal_s() -> float:
    """Time the hypervisor ran other guests while this machine's CPUs wanted to run."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("cpus"):
        os.sched_setaffinity(0, spec["cpus"])
    from string_sausage import cli

    if Path(cli.__file__).resolve().parent.parent != Path(spec["src"]).resolve():
        print(f"string_sausage imported from {cli.__file__}, not {spec['src']}", file=sys.stderr)
        return 2
    cli.build_parser().parse_args(spec["argv"])
    t_ready = time.monotonic()
    if spec.get("probe"):
        print(json.dumps({"t_ready": t_ready}))
        return 0
    out = io.StringIO()
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    steal0 = steal_s()
    with contextlib.redirect_stdout(out):
        t_start = time.monotonic()
        t0 = time.perf_counter()
        code = cli.main(spec["argv"])
        wall = time.perf_counter() - t0
    steal = steal_s() - steal0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({
        "t_ready": t_ready,
        "t_start": t_start,
        "wall_s": wall,
        "cpu_s": (cpu1.ru_utime + cpu1.ru_stime - cpu0.ru_utime - cpu0.ru_stime
                  + kids.ru_utime + kids.ru_stime),
        "steal_s": steal,
        "exit": code,
        "stdout": out.getvalue(),
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_worker_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
