"""The benchmark still runs against the package.

bench/run.py patches rfplan.localize.least_squares, reads the
scipy.optimize line of ``-X importtime`` and wraps every public function
of the layer modules by name; a change under src/ can break any of these,
and the benchmark then fails instead of measuring. One short traced
demo_loop run checks them all.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_demo_loop_runs_and_reports_every_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "demo_loop", "--seed", "1",
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
    # probes that read 0 only when what they look for is gone
    for name in ("import.scipy_optimize_s", "coverage.compute_grid.calls",
                 "mitigate.verify.s", "detect.kmeans.iterations"):
        assert metrics[name]["value"] > 0, name
