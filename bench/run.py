#!/usr/bin/env python3
"""Benchmark for the rfplan loop: plan, simulate, twin, detect, localize,
mitigate, driven through the public API on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of demo_loop, lattice_grid, kpi_feed (see workloads.py), or
``all``, which runs each in its own process and prints every metric.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics. Layers a workload does not exercise report 0.

One run: set-up is timed in SETUP_SAMPLES fresh interpreters (after one
unrecorded warm-up), then iterations run back to back for S seconds.
Every output is checked outside the timed region: an iteration fails if
it raises, if a workload check fails, or if its outputs differ by a byte
from those of the first passing iteration. With ``--trace 1`` traced and untraced
iterations alternate, spans are reduced per traced iteration, and the
medians are reported with a few single-call probes made after the loop.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import LAYERS, Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_tmp"
SETUP_SAMPLES = 3
DEADLINE_S = 140.0      # no iteration starts later into the loop: a run ends within 180 s
WORKLOAD_NAMES = ("demo_loop", "lattice_grid", "kpi_feed")


def declared_metrics(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def probe(*args, importtime=False):
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "probe.py"), *map(str, args)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT)
    sample = json.loads(proc.stdout.splitlines()[-1])
    if importtime:
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and parts[1].strip().isdigit():
                sample.setdefault("imports", {})[parts[2].strip()] = int(parts[1]) / 1e6
    return sample


def probe_setup(wl, importtime):
    args = ("setup", SRC, wl.scenario_path, *wl.imports)
    probe(*args)                                # warm-up: .pyc files, page cache
    return [probe(*args, importtime=importtime) for _ in range(SETUP_SAMPLES)]


class Loop:
    """Runs and checks iterations; counts attempts and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = 0
        self.reference = None
        self.quality = {}

    def step(self, tracer=None) -> float:
        self.attempted += 1
        out, failures = None, []
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = self.wl.iterate()
        except Exception:
            failures.append(traceback.format_exc())
        finally:
            dt = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        if not failures:
            try:
                failures, digest, self.quality = self.wl.check(out)
            except Exception:
                failures.append(traceback.format_exc())
            else:
                if not failures:
                    self.reference = self.reference or digest
                    if digest != self.reference:
                        failures.append("outputs differ from the first passing iteration's")
        if failures:
            self.failed += 1
            print(f"iteration {self.attempted} failed: {'; '.join(failures)}",
                  file=sys.stderr)
        return dt


def layer_values(spans, pathloss_calls, wall, main_thread):
    """Per-layer numbers of one traced iteration of ``wall`` seconds.

    Shares are self time over wall time on the thread that runs the loop;
    spans on compute_grid's worker threads count inside their caller.
    """
    selfs = self_times(spans)
    v = {f"share.{layer}": 0.0 for layer in LAYERS}

    def add(key, x):
        v[key] = v.get(key, 0) + x

    for s in spans:
        add(f"{s.name}.s", s.duration)
        add(f"{s.name}.calls", 1)
        if s.thread != main_thread:
            continue
        add(f"share.{s.layer}", selfs[id(s)] / wall)
        if s.parent is None or s.parent.layer != s.layer:
            add(f"{s.layer}.s", s.duration)
    v["share.other"] = 1.0 - sum(v[f"share.{layer}"] for layer in LAYERS)
    v["cli.main.self_s"] = sum(selfs[id(s)] for s in spans if s.layer == "cli")
    v["trace.spans"] = len(spans)
    verify = [s for s in spans if s.name == "mitigate.verify"]
    v["mitigate.verify.self_s"] = sum(selfs[id(s)] for s in verify)
    if verify:
        v["mitigate.verify.grids"] = sum(
            1 for s in spans
            if s.name == "coverage.compute_grid" and s.parent in verify) / len(verify)
    for s in spans:
        if s.name == "detect.kmeans" and s.result is not None:
            v["detect.kmeans.iterations"] = s.result[3]
            v["detect.kmeans.converged"] = int(s.result[4])
    v["localize.least_squares.nfev"] = sum(
        s.result.nfev for s in spans
        if s.name == "localize.least_squares" and s.result is not None)
    v["localize.pathloss_calls"] = pathloss_calls
    return v


def medians(samples):
    keys = sorted({k for s in samples for k in s})
    return {k: statistics.median(s.get(k, 0) for s in samples) for k in keys}


def measure(wl, seconds, trace):
    """-> (loop, untraced iteration times, traced iteration times, layer samples)"""
    loop = Loop(wl)
    tracer = Tracer() if trace else None
    plain, traced, samples = [], [], []
    t0 = time.perf_counter()
    while True:
        use = tracer is not None and len(traced) < len(plain)
        dt = loop.step(tracer if use else None)
        if use:
            traced.append(dt)
            samples.append(layer_values(*tracer.take(), dt, tracer.main_thread))
        else:
            plain.append(dt)
        now = time.perf_counter()
        if now - t0 > DEADLINE_S or (now - t0 >= seconds and (traced or not trace)):
            break
    return loop, plain, traced, samples


def outcome_values(wl, quality, iter_p50):
    """Work rates of the untraced iterations and what the loop decided.
    Printed by an untraced run, reported as per-layer metrics by a traced one."""
    return {
        "coverage.sector_mpix_per_s": wl.grids_per_iter * wl.sector_pixels / 1e6 / iter_p50,
        "twin.kpi_krows_per_s": wl.kpi_values_per_iter / 1e3 / iter_p50,
        "localize.loc_err_m": quality.get("loc_err_m", 0.0),
        "localize.lsq_err_m": quality.get("lsq_err_m", 0.0),
        "localize.lsq_fallback": quality.get("lsq_fallback", 0),
        "mitigate.verify_delta_db": quality.get("verify_delta_db", 0.0),
        "coverage.write_grid_csv.bytes": quality.get("grid_csv_bytes", 0),
        "twin.kpi_csv.bytes": quality.get("kpi_csv_bytes", 0),
    }


def probe_values(wl, setup):
    """Per-layer numbers from single-call and fresh-interpreter probes."""
    v = wl.traced_extras()
    if wl.grid_workers:
        v["coverage.sector_pixels"] = wl.sector_pixels
        v["coverage.peak_bytes_per_sector_pixel"] = (
            v["coverage.compute_grid.peak_mb"] * 2 ** 20 / wl.sector_pixels)
        v["coverage.parallel_eff"] = (v["coverage.compute_grid.w1_s"]
                                      / (2 * v["coverage.compute_grid.w2_s"]))
    if wl.kpi_path:
        v["twin.read_kpi_csv.peak_mb"] = probe("read_kpi", SRC, wl.kpi_path)["peak_mb"]
    imports = [s["imports"] for s in setup]
    v["import.rfplan_s"] = statistics.median(sum(i[m] for m in wl.imports) for i in imports)
    v["import.scipy_optimize_s"] = statistics.median(i["scipy.optimize"] for i in imports)
    v["scenario.load_scenario.s"] = statistics.median(s["load_s"] for s in setup)
    return v


def run(wl, seconds, trace):
    """-> (result object, human-readable lines)"""
    setup = probe_setup(wl, importtime=trace)
    loop, plain, traced, samples = measure(wl, seconds, trace)
    iter_p50 = statistics.median(plain)
    outcome = outcome_values(wl, loop.quality, iter_p50)
    lines = [f"== {wl.name}: {len(plain)} untraced + {len(traced)} traced iterations, "
             f"{loop.failed} of {loop.attempted} failed (fail_ratio "
             f"{loop.failed / loop.attempted:g}) =="]
    if trace:
        values = {**medians(samples), **outcome, **probe_values(wl, setup)}
        values["trace.iter_s.p50"] = statistics.median(traced)
        values["trace.overhead_ratio"] = values["trace.iter_s.p50"] / iter_p50
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "iter_s.p50": iter_p50,
            "loops_per_s": len(plain) / sum(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        lines += [f"{k} = {v:.6g}" for k, v in outcome.items()]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared_metrics(trace)}
    lines += [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    result = {"correct": loop.failed == 0, "attempted": loop.attempted,
              "failed": loop.failed, "metrics": metrics}
    return result, lines


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        res = json.loads(last)
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}/{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rfplan" / "__init__.py").is_file():
        print(f"error: no rfplan sources under {SRC}", file=sys.stderr)
        return 1
    if not 0 <= args.seed < 2 ** 64:
        print("error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        result, lines = run(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass                                # another run still uses it
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
