"""The benchmark's tracer, installed on the package, finds every name it wraps
and reads the arguments its hooks expect: `bounding_box(cloud, pad)` after a
hit-or-miss volume, `trajectory[0].values` and `env.n_points` after a path
functional, `env.n_points` after a contact test."""

import contextlib
import io
import json
import types
from pathlib import Path

import string_sausage.cli as cli

ROOT = Path(__file__).resolve().parents[1]
MODEL = ["--d", "2", "--K", "16", "--M", "64", "--dt", "0.05", "--nu", "1", "--a", "0.3",
         "--eps-tail", "2e-3", "--T", "0.25"]
RUN = ["--n", "100", "--threads", "1", "--seed", "5"]


def load_tracing() -> types.ModuleType:
    """perfbench/tracing.py, executed from its source without writing a cache."""
    path = ROOT / "perfbench" / "tracing.py"
    module = types.ModuleType("tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_tracer_hooks_read_every_workload_shape(tmp_path):
    env = tmp_path / "env.json"
    env.write_text(json.dumps({"nu": 1.0, "box": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
                               "points": [[0.4, 0.1], [-0.5, 0.6], [1.2, -1.1]]}))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"experiment": "survival", "method": "hard_via_volume", "seed": 5,
                                 "n_replicas": 100, "T": [0.25], "d": 2, "K": 16, "M": 64,
                                 "dt": 0.05, "nu": 1.0, "a": 0.3, "eps_tail": 2e-3,
                                 "threads": 1}))
    calls = [
        ["survival", *MODEL, "--hard", *RUN],  # annealed_direct
        ["survival", *MODEL, "--hard", "--via-volume", *RUN],  # annealed_volume
        ["run", "--config", str(sweep)],  # exponent_sweep
        ["survival", *MODEL, "--soft", "--height", "1", "--env", str(env), *RUN],  # quenched_soft
    ]
    tracer = load_tracing().Tracer()
    tracer.install("string_sausage")
    main = tracer.wrap("cli.main", cli.main)
    try:
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert [len(call["weights"]) for call in tracer.calls] == [100] * 4
    counts = tracer.counts
    assert counts["replicas"] == 400
    assert counts["hit_or_miss.samples"] > 0 and counts["hit_or_miss.hits"] > 0
    assert counts["traps"] > 0
    assert counts["path_functional.pairs"] == 100 * 6 * 64 * 3  # 5 steps plus the start
    metrics = tracer.layer_metrics(tracer.wall_ns())
    assert 0 < metrics["geometry.hit_or_miss.hit_frac"][0] < 1
