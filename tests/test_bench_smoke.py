"""The benchmark still runs against the package.

bench/run.py patches rfplan.localize.least_squares, reads the
scipy.optimize line of ``-X importtime`` and wraps every public function
of the layer modules by name; a change under src/ can break any of these,
and the benchmark then fails instead of measuring. Short traced
demo_loop, lattice_grid and kpi_feed runs check them all.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced_run(workload):
    """One iteration of a workload under --trace 1: -> its per-layer metrics."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    return metrics


def test_traced_demo_loop_runs_and_reports_every_metric():
    metrics = traced_run("demo_loop")
    # probes that read 0 only when what they look for is gone
    for name in ("import.scipy_optimize_s", "detect.kmeans.iterations"):
        assert metrics[name]["value"] > 0, name


def test_traced_lattice_grid_runs_and_reports_every_metric():
    metrics = traced_run("lattice_grid")
    # the demo builds its grids in one compute_grids call and compares them
    # without verify; the lattice loop still calls compute_grid and verify
    for name in ("coverage.compute_grid.calls", "mitigate.verify.s"):
        assert metrics[name]["value"] > 0, name


def test_traced_kpi_feed_runs_and_reports_every_metric():
    metrics = traced_run("kpi_feed")
    # the only workload that runs the localizer: both the least_squares
    # wrapper and the forward-model pathloss counter must still see it
    for name in ("localize.least_squares.calls", "localize.pathloss_calls"):
        assert metrics[name]["value"] > 0, name
    assert metrics["localize.lsq_fallback"]["value"] == 0
