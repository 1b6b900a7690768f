"""The three benchmark workloads.

Each workload is a closed loop with one caller: ``iterate()`` runs one
pass of the loop through rfplan's public API and returns what it needs
checked; ``check()`` runs outside the timed region. Inputs come only
from the seed: it sets ``scenario.seed`` and, for the generated
lattices, jitters the jammer position.

- ``demo_loop``: ``rfplan --seed N --out-dir D demo`` in-process on the
  bundled 7-site cluster (21 sectors, 160x160 px, 1 h @ 60 s feed,
  1 worker). Small arrays, so per-call overhead and the grid CSV
  dominate; the twin and KPI CSV are a few percent.
- ``lattice_grid``: 61-site / 183-sector lattice, 500 m apart, 200x200 px
  at 25 m (7.3 M sector-pixels per grid): ``compute_grid`` on 2
  workers, grid CSV and summary, then recommend/apply/verify for the
  sectors of the 3 sites nearest the jammer. No twin, detect or
  localize work.
- ``kpi_feed``: 19-site / 57-cell lattice with a 2 h @ 1 s feed
  (820 800 KPI rows): synthesize, write and read the KPI CSV, detect
  (baseline window 600), localize (baseline -102 dBm) and recommend.
  The only workload where ``PathlossLSQ`` runs; never calls
  ``compute_grid``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time
import tracemalloc
from pathlib import Path

from rfplan import cli, coverage, detect, localize, mitigate, twin
from rfplan.scenario import load_scenario, save_scenario

from lattice import RTWP_BASELINE_DBM, hex_lattice, nearest_sites

VALIDATION_RADIUS_M = 500.0     # the CLI's --validation-radius default


def digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def write_doc(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sector_pixels(scenario) -> int:
    nx = max(1, math.ceil(scenario.area.width / scenario.grid_resolution_m - 1e-9))
    ny = max(1, math.ceil(scenario.area.height / scenario.grid_resolution_m - 1e-9))
    return len(scenario.sector_ids) * nx * ny


def grid_peak_bytes(scenario, n_workers) -> int:
    """Peak traced allocation of one compute_grid call (numpy reports to
    tracemalloc, and the call is array-bound, so tracing costs little)."""
    tracemalloc.start()
    try:
        coverage.compute_grid(scenario, interferers_active=True, n_workers=n_workers)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def check_detection(failures, scenario, affected, anomaly) -> None:
    jam = scenario.interferers[0]
    near = nearest_sites(scenario, jam.position, 1)[0]
    if not anomaly:
        failures.append("no anomaly flagged")
    elif not any(scenario.sector_by_id(c)[0].id == near.id for c in affected):
        failures.append(f"flagged cells {affected} miss the jammer's nearest site {near.id}")


def check_localization(failures, quality, scenario, estimates) -> None:
    """estimates: {method: (position, fallback)}"""
    truth = scenario.interferers[0].position
    quality["loc_err_m"] = math.dist(estimates["WeightedCentroid"][0], truth)
    quality["lsq_err_m"] = math.dist(estimates["PathlossLSQ"][0], truth)
    quality["lsq_fallback"] = int(estimates["PathlossLSQ"][1])
    if not quality["loc_err_m"] <= VALIDATION_RADIUS_M:
        failures.append(f"WeightedCentroid error {quality['loc_err_m']:.0f} m "
                        f"exceeds {VALIDATION_RADIUS_M:.0f} m")


class Workload:
    name = ""
    imports = ("rfplan",)          # what set-up imports in a fresh interpreter
    grid_workers = 0               # workers per compute_grid; 0: no grids
    grids_per_iter = 0
    kpi_values_per_iter = 0
    kpi_path = None                # the KPI CSV an iteration writes, if any
    scenario = None
    scenario_path = None           # what set-up loads in a fresh interpreter

    def iterate(self):
        raise NotImplementedError

    def check(self, out):
        """-> (failures, digest of the outputs, quality values)"""
        raise NotImplementedError

    def traced_extras(self) -> dict:
        """Single-call probes made once per traced run, after the loop."""
        if not self.grid_workers:
            return {}
        sc, grid = self.scenario, coverage.compute_grid
        return {"coverage.compute_grid.w1_s": timed(grid, sc, True, n_workers=1),
                "coverage.compute_grid.w2_s": timed(grid, sc, True, n_workers=2),
                "coverage.compute_grid.peak_mb":
                    grid_peak_bytes(sc, self.grid_workers) / 2 ** 20}

    @property
    def sector_pixels(self) -> int:
        return sector_pixels(self.scenario) if self.grid_workers else 0


class DemoLoop(Workload):
    name = "demo_loop"
    imports = ("rfplan", "rfplan.cli")
    grid_workers = 1
    grids_per_iter = 4             # simulate off/on + verify pre/post

    def __init__(self, seed, workdir):
        self.scenario_path = cli.demo_scenario_path()
        self.scenario = dataclasses.replace(load_scenario(self.scenario_path), seed=seed)
        # the demo's feed: 1 h at 60 s, 60 samples per cell and metric
        self.kpi_values_per_iter = len(self.scenario.sector_ids) * 60 * len(twin.METRICS)
        self.out_dir = workdir / "demo_out"
        self.kpi_path = self.out_dir / "kpi.csv"
        self.argv = ["--seed", str(seed), "--out-dir", str(self.out_dir), "demo"]

    def iterate(self):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(self.argv)

    def check(self, rc):
        failures, quality = [], {}
        if rc != 0:
            return [f"rfplan demo exited {rc}"], "", quality
        files = sorted(p for p in self.out_dir.iterdir() if p.is_file())
        det = json.loads((self.out_dir / "detection.json").read_text())
        check_detection(failures, self.scenario, det["affected_cells"], det["anomaly"])
        if det["anomaly"]:
            check_localization(failures, quality, self.scenario, {
                name: (est["position"], est["fallback"])
                for name, est in det["localization"].items()})
        ver = json.loads((self.out_dir / "recommendation.json").read_text())["verification"]
        if not (ver and ver["improved"]):
            failures.append(f"verify did not report improved: {ver}")
        else:
            quality["verify_delta_db"] = ver["delta_db"]
        quality["grid_csv_bytes"] = sum(p.stat().st_size for p in files
                                        if p.name.startswith("grid_") and p.suffix == ".csv")
        quality["kpi_csv_bytes"] = self.kpi_path.stat().st_size
        return failures, digest(*files), quality


class LatticeGrid(Workload):
    name = "lattice_grid"
    grid_workers = 2
    grids_per_iter = 3             # the grid + verify pre/post

    def __init__(self, seed, workdir):
        self.scenario = hex_lattice(rings=4, area_m=5000.0, seed=seed, name="lattice-61")
        self.scenario_path = workdir / "lattice.json"
        save_scenario(self.scenario, self.scenario_path)
        jam = self.scenario.interferers[0]
        near = nearest_sites(self.scenario, jam.position, 3)
        affected = tuple(sorted(sec.id for site in near for sec in site.sectors))
        # the detection result is an input here: no twin or detect work runs
        self.detection = detect.DetectionResult(
            affected_cells=affected, anomaly_flag=True,
            evidence={c: {"mean_excess_db": 10.0} for c in affected}, threshold_db=3.0)
        self.grid_path = workdir / "grid.csv"
        self.doc_path = workdir / "recommendation.json"
        # reference: the same grid on one worker must give the same bytes
        ref_path = workdir / "grid_w1.csv"
        coverage.write_grid_csv(
            coverage.compute_grid(self.scenario, interferers_active=True, n_workers=1),
            ref_path)
        self.reference = ref_path.read_bytes()

    def iterate(self):
        sc = self.scenario
        grid = coverage.compute_grid(sc, interferers_active=True, n_workers=2)
        coverage.write_grid_csv(grid, self.grid_path)
        summary = coverage.grid_summary(grid)
        del grid
        rec = mitigate.recommend(sc, self.detection)
        post = mitigate.apply(sc, rec)
        verdict = mitigate.verify(sc, post, self.detection.affected_cells, n_workers=2)
        return summary, rec, verdict

    def check(self, out):
        summary, rec, verdict = out
        failures = []
        if self.grid_path.read_bytes() != self.reference:
            failures.append("grid CSV at 2 workers differs from the 1-worker grid")
        if not verdict.improved:
            failures.append(f"verify did not report improved: {verdict}")
        write_doc(self.doc_path, {"summary": summary, "changes": rec.changes,
                                  "verification": dataclasses.asdict(verdict)})
        quality = {"verify_delta_db": verdict.delta_db,
                   "grid_csv_bytes": self.grid_path.stat().st_size}
        return failures, digest(self.grid_path, self.doc_path), quality


class KpiFeed(Workload):
    name = "kpi_feed"
    duration_s, dt_s, baseline_window = 7200.0, 1.0, 600

    def __init__(self, seed, workdir):
        self.scenario = hex_lattice(rings=2, area_m=3000.0, seed=seed, name="lattice-19")
        self.scenario_path = workdir / "lattice.json"
        save_scenario(self.scenario, self.scenario_path)
        self.kpi_values_per_iter = (len(self.scenario.sector_ids) * len(twin.METRICS)
                                    * int(self.duration_s // self.dt_s))
        self.kpi_path = workdir / "kpi.csv"
        self.doc_path = workdir / "detection.json"

    def iterate(self):
        sc = self.scenario
        batch = twin.synthesize_kpi(sc, self.duration_s, self.dt_s)
        twin.write_kpi_csv(batch, self.kpi_path)
        feed = twin.read_kpi_csv(self.kpi_path)
        det = detect.run_detection(feed, self.baseline_window, k=2, seed=sc.seed)
        estimates = (localize.estimate_interferer(sc, det, RTWP_BASELINE_DBM)
                     if det.anomaly_flag else {})
        rec = mitigate.recommend(sc, det)
        return det, estimates, rec

    def check(self, out):
        det, estimates, rec = out
        failures, quality = [], {}
        check_detection(failures, self.scenario, det.affected_cells, det.anomaly_flag)
        if estimates:
            check_localization(failures, quality, self.scenario, {
                name: (est.position, est.fallback) for name, est in estimates.items()})
        write_doc(self.doc_path, {
            "affected_cells": det.affected_cells, "evidence": det.evidence,
            "localization": {name: dataclasses.asdict(est) for name, est in estimates.items()},
            "changes": rec.changes})
        quality["kpi_csv_bytes"] = self.kpi_path.stat().st_size
        return failures, digest(self.kpi_path, self.doc_path), quality


WORKLOADS = {w.name: w for w in (DemoLoop, LatticeGrid, KpiFeed)}
