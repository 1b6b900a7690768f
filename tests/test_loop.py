"""run_loop: one call for the stage sequence on a KPI batch, each stage's
result recorded."""

import dataclasses

import pytest

from rfplan import KpiBatch, run_loop, synthesize_kpi
from rfplan.detect import run_detection
from rfplan.errors import InputError
from rfplan.localize import estimate_interferer
from rfplan.mitigate import apply, recommend, verify
from test_coverage import assert_same_grid

BASELINE_WINDOW = 15


@pytest.fixture(scope="module")
def demo_record(demo_scenario, demo_batch):
    return run_loop(demo_scenario, demo_batch, baseline_window=BASELINE_WINDOW)


@pytest.fixture(scope="module")
def quiet_batch(quiet_scenario):
    return synthesize_kpi(quiet_scenario, 3600.0, 60.0)


def test_record_equals_the_stages_called_one_by_one(demo_record, demo_scenario,
                                                    demo_batch):
    sc, record = demo_scenario, demo_record
    assert [f.name for f in dataclasses.fields(record)] == [
        "detection", "estimates", "recommendation", "grids", "verdict"]

    detection = run_detection(demo_batch, BASELINE_WINDOW, seed=sc.seed)
    got = record.detection
    assert (got.affected_cells, got.anomaly_flag, got.evidence, got.threshold_db) == (
        detection.affected_cells, detection.anomaly_flag, detection.evidence,
        detection.threshold_db)
    assert detection.anomaly_flag
    assert record.estimates == estimate_interferer(sc, detection)
    rec = recommend(sc, detection)
    assert rec.changes and record.recommendation == rec
    assert record.verdict == verify(sc, apply(sc, rec), detection.affected_cells)
    assert len(record.grids) == 3


def test_off_grid_is_compute_grid_without_interferers(demo_record, demo_grid_off):
    assert_same_grid(demo_record.grids[0], demo_grid_off)


def test_quiet_scenario_recommends_nothing(quiet_scenario, quiet_batch):
    record = run_loop(quiet_scenario, quiet_batch, baseline_window=BASELINE_WINDOW)
    assert not record.detection.anomaly_flag
    assert record.estimates == {}
    assert record.verdict is None
    assert len(record.grids) == 2


def test_network_state_comes_only_from_the_batch(demo_scenario, quiet_batch):
    """The planned network holds a jammer, but the feed is a quiet network's:
    the loop flags, localizes and changes nothing, as a feed from a network
    other than the planned one must be read."""
    assert demo_scenario.interferers
    record = run_loop(demo_scenario, quiet_batch, baseline_window=BASELINE_WINDOW)
    assert not record.detection.anomaly_flag
    assert record.estimates == {}
    assert record.verdict is None
    assert len(record.grids) == 2


def test_feed_of_cells_the_scenario_lacks_is_an_input_error(demo_scenario, demo_batch):
    """An anomalous feed from another network, here the demo's with every
    cell renamed, is rejected at the boundary, naming a cell it lacks."""
    other = KpiBatch(tuple("X" + c for c in demo_batch.cell_ids), demo_batch.t0_s,
                     demo_batch.dt_s, demo_batch.samples)
    with pytest.raises(InputError, match=r"affected cell 'X\w+' not in scenario"):
        run_loop(demo_scenario, other, baseline_window=BASELINE_WINDOW)
