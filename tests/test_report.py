"""Simulated-vs-twin comparison rows and table formatting."""

import numpy as np
import pytest

from rfplan import coverage, report
from rfplan.errors import InputError
from rfplan.twin import KpiBatch


def test_identical_summaries_zero_delta():
    side = {"n78": {"RSSI": -89.0, "RTWP": -102.0, "SINR": 9.0}}
    rows, warnings = report.build_comparison(side, side)
    assert warnings == []
    assert len(rows) == 3
    assert all(r.abs_delta == 0.0 for r in rows)


def test_missing_metric_warns_and_omits():
    sim = {"n78": {"RSSI": -89.0, "RTWP": -102.0}}
    twin = {"n78": {"RSSI": -90.0}}
    rows, warnings = report.build_comparison(sim, twin)
    assert [r.metric for r in rows] == ["RSSI"]
    assert len(warnings) == 1
    assert "RTWP" in warnings[0]


def test_band_mismatch_is_error():
    with pytest.raises(InputError):
        report.build_comparison({"n78": {}}, {"n257": {}})


def test_metric_ordering():
    side = {"n78": {"SINR": 1.0, "RSSI": 2.0, "RTWP": 3.0,
                    "ThroughputDL": 4.0, "ThroughputUL": 5.0}}
    rows, _ = report.build_comparison(side, side)
    assert [r.metric for r in rows] == list(report.METRIC_ORDER)


def test_demo_rtwp_delta_within_2db(demo_scenario, demo_grid, demo_batch):
    summary = coverage.grid_summary(demo_grid)
    sim = report.sim_metrics(demo_scenario, summary)
    twin = report.twin_metrics(demo_scenario, demo_batch)
    rows, _ = report.build_comparison(sim, twin)
    rtwp = [r for r in rows if r.metric == "RTWP"]
    assert rtwp
    for r in rtwp:
        assert r.simulated == -102.0           # configured baseline
        assert r.abs_delta <= 2.0


def test_twin_metrics_rejects_unknown_cell(demo_scenario, demo_batch):
    # the demo batch and a row for "ghost", a copy of A1's
    a1 = demo_batch.cell_ids.index("A1")
    bad = KpiBatch((*demo_batch.cell_ids, "ghost"), demo_batch.t0_s, demo_batch.dt_s,
                   {m: np.vstack([x, x[a1]]) for m, x in demo_batch.samples.items()})
    with pytest.raises(InputError, match="'ghost' not in scenario"):
        report.twin_metrics(demo_scenario, bad)


def test_format_table_and_dict():
    side = {"n78": {"RSSI": -89.06, "RTWP": -102.0}}
    rows, warnings = report.build_comparison(side, side)
    table = report.format_table(rows)
    lines = table.splitlines()
    assert lines[0].startswith("Metric")
    assert any("-89.06" in ln for ln in lines)

    doc = report.rows_to_dict(rows, warnings)
    assert doc["warnings"] == []
    assert doc["rows"][0]["abs_delta"] == 0.0
