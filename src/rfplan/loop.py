"""The loop as one call: KPI batch -> detection -> localization -> fix,
each stage's result in one record. The batch is the operational data it
analyzes; the scenario is the network it plans on, not the batch's source."""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import coverage, detect, localize, mitigate, twin
from .scenario import Scenario


@dataclass(frozen=True)
class LoopRecord:
    detection: detect.DetectionResult
    estimates: dict                             # per method; {} without an anomaly
    recommendation: mitigate.Recommendation
    grids: tuple[coverage.CoverageGrid, ...]    # off, on and, with a change, post
    verdict: mitigate.VerificationVerdict | None    # None when nothing changes


def run_loop(scenario: Scenario, batch: twin.KpiBatch, *, baseline_window: int,
             n_workers: int = 1) -> LoopRecord:
    """Detect on the batch, localize an anomaly, recommend, and build the
    off, on and post grids in one field pass; the verdict compares the on
    and post grids over the affected cells."""
    scenario.require_sectors(batch.cell_ids, "KPI cell")
    detection = detect.run_detection(batch, baseline_window, seed=scenario.seed)
    estimates = (localize.estimate_interferer(scenario, detection)
                 if detection.anomaly_flag else {})
    rec = mitigate.recommend(scenario, detection)
    # without its interferers, the scenario gives compute_grid(..., False)'s grid
    scenarios = [replace(scenario, interferers=()), scenario]
    if rec.changes:
        scenarios.append(mitigate.apply(scenario, rec))
    grids = tuple(coverage.compute_grids(scenarios, n_workers=n_workers))
    verdict = (mitigate.compare(grids[1], grids[2], detection.affected_cells)
               if rec.changes else None)
    return LoopRecord(detection, estimates, rec, grids, verdict)
