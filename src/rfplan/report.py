"""Simulated-vs-twin metric comparison tables.

Builds one row per (metric, band) from a simulation summary and a twin
summary, with the absolute delta between the two sides. Metrics missing
on either side are skipped with a warning rather than failing the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .twin import cell_baseline_dbm

METRIC_ORDER = ("RSSI", "RTWP", "SINR", "ThroughputDL", "ThroughputUL")

METRIC_UNITS = {"RSSI": "dBm", "RTWP": "dBm", "SINR": "dB",
                "ThroughputDL": "Mbps", "ThroughputUL": "Mbps"}


@dataclass(frozen=True)
class DtComparisonRow:
    metric: str
    band: str
    simulated: float
    twin_observed: float

    @property
    def abs_delta(self) -> float:
        return abs(self.simulated - self.twin_observed)


def sim_metrics(scenario, summary: dict) -> dict:
    """Per-band report metrics from a coverage summary.

    RSSI/SINR/DL throughput are covered-pixel means; RTWP is the
    configured uplink baseline (the simulation-side expectation).
    """
    out = {}
    for band_id, stats in summary.get("bands", {}).items():
        band = scenario.band_by_id(band_id)
        out[band_id] = {
            "RSSI": stats["rssi_dbm"]["mean"],
            "SINR": stats["sinr_db"]["mean"],
            "ThroughputDL": stats["throughput_mbps"]["mean"],
            "RTWP": cell_baseline_dbm(scenario, band),
        }
    return out


def twin_metrics(scenario, batch) -> dict:
    """Per-band observed metrics from a KPI batch.

    Value per (metric, band) is the median across cells of the per-cell
    time mean, robust against a few interference-hit cells.
    """
    band_of = {sec.id: sec.band_ref for _, sec in scenario.sectors()}
    out: dict[str, dict[str, float]] = {}
    for metric, per_cell in batch.series.items():
        grouped: dict[str, list[float]] = {}
        for cell, series in per_cell.items():
            band = band_of.get(cell)
            if band is None:
                raise InputError(f"KPI cell {cell!r} not in scenario")
            grouped.setdefault(band, []).append(float(np.mean(series.samples)))
        for band, means in grouped.items():
            out.setdefault(band, {})[metric] = float(np.median(means))
    return out


def build_comparison(sim: dict, twin: dict):
    """Rows for every (metric, band) present on both sides.

    sim/twin: {band: {metric: value}}. Returns (rows, warnings); a band
    present on one side only is an error, a missing metric only a warning.
    """
    sim_bands, twin_bands = set(sim), set(twin)
    if sim_bands != twin_bands:
        raise InputError(
            f"band mismatch between summaries: {sorted(sim_bands)} vs "
            f"{sorted(twin_bands)}")
    rows, warnings = [], []
    for band in sorted(sim_bands):
        for metric in METRIC_ORDER:
            have_sim = metric in sim[band]
            have_twin = metric in twin[band]
            if have_sim and have_twin:
                rows.append(DtComparisonRow(metric, band, float(sim[band][metric]),
                                            float(twin[band][metric])))
            elif have_sim or have_twin:
                side = "twin" if have_sim else "simulated"
                warnings.append(f"{metric} ({band}): missing on the {side} side, "
                                "row omitted")
    return rows, warnings


def format_table(rows) -> str:
    """Aligned text table: metric, simulated, observed, delta."""
    header = ("Metric", "Band", "Simulated", "Twin", "|delta|")
    body = [(f"{r.metric} ({METRIC_UNITS[r.metric]})", r.band,
             f"{r.simulated:.2f}", f"{r.twin_observed:.2f}",
             f"{r.abs_delta:.2f}") for r in rows]
    widths = [max(len(h), *(len(b[i]) for b in body)) if body else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(b, widths)) for b in body]
    return "\n".join(lines)


def rows_to_dict(rows, warnings) -> dict:
    return {
        "rows": [{"metric": r.metric, "band": r.band, "simulated": r.simulated,
                  "twin_observed": r.twin_observed, "abs_delta": r.abs_delta}
                 for r in rows],
        "warnings": list(warnings),
    }
