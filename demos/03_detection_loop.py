"""The full twin loop: KPI feed -> detection -> localization -> fix.

The twin synthesizes an hour of per-cell RTWP/RSSI; one run_loop call on
that feed clusters the cells, flags the anomalous ones, estimates where the
interferer sits, reassigns the affected sectors to clean spectrum and
verifies the what-if by re-simulating; the script prints what each stage
gave. Run with:
python3 demos/03_detection_loop.py
"""

import math

from rfplan import run_loop, synthesize_kpi, twin
from rfplan.cli import demo_scenario_path
from rfplan.scenario import load_scenario

scenario = load_scenario(demo_scenario_path())
jam = scenario.interferers[0]
print(f"ground truth (sealed from the detector): {jam.id} at "
      f"{jam.position}, {jam.tx_power_dbm} dBm on {jam.band_ref}, "
      f"active {jam.active_intervals[0]} s")

# --- the physical side emits KPIs ----------------------------------------
# one (cells x T) array per metric, rows in sorted cell-id order
batch = synthesize_kpi(scenario, 3600.0, 60.0)
print(f"\nKPI feed: {len(batch.cell_ids)} cells x "
      f"{batch.samples['RTWP'].shape[1]} samples")

mean_excess = twin.excess_matrix(batch, baseline_window=15).mean(axis=1)
worst = sorted(zip(batch.cell_ids, mean_excess), key=lambda ce: -ce[1])[:5]
print("top mean RTWP excess:", ", ".join(f"{c} {e:+.1f} dB" for c, e in worst))

# --- detection ------------------------------------------------------------
# one call runs every stage; the network's state reaches it only through the feed
record = run_loop(scenario, batch, baseline_window=15)
result = record.detection
print(f"\nanomaly: {result.anomaly_flag}, affected: "
      f"{list(result.affected_cells)}")

# --- localization ---------------------------------------------------------
# each affected cell's excess is read against its own band's RTWP baseline
for name, est in record.estimates.items():
    err = math.dist(est.position, jam.position)
    note = " (fallback)" if est.fallback else ""
    print(f"{name:16s}: ({est.position[0]:7.1f}, {est.position[1]:7.1f}), "
          f"error {err:6.1f} m{note}")

# --- mitigation + verification -------------------------------------------
# the verdict compares the interfered grid with the mitigated one, both from
# the loop's one field pass
rec = record.recommendation
print(f"\nrecommendation: {rec.rationale}")
for sector, old, new in rec.changes:
    print(f"  {sector}: {old} -> {new}")

verdict = record.verdict
print(f"\nverification over {verdict.affected_pixel_count} affected pixels:")
print(f"  mean SINR {verdict.pre_mean_sinr_db:.2f} -> "
      f"{verdict.post_mean_sinr_db:.2f} dB ({verdict.delta_db:+.2f} dB), "
      f"improved: {verdict.improved}")
if verdict.residual_affected:
    print(f"  still degraded: {list(verdict.residual_affected)}")
else:
    print("  no residual degradation")
