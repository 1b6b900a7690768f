"""run_loop: one call for the stage sequence, each stage's result recorded."""

import numpy as np
import pytest

from rfplan import run_loop
from rfplan.detect import run_detection
from rfplan.localize import estimate_interferer
from rfplan.mitigate import apply, recommend, verify
from test_coverage import assert_same_grid

LOOP = dict(duration_s=3600.0, dt_s=60.0, baseline_window=15)


def loop_and_feed(scenario):
    """run_loop's record with an identity feed, and the batches it was fed."""
    fed = []

    def feed(batch):
        fed.append(batch)
        return batch
    return run_loop(scenario, feed, **LOOP), fed


@pytest.fixture(scope="module")
def demo_record(demo_scenario):
    return loop_and_feed(demo_scenario)


def test_feed_is_called_once_with_the_synthesized_batch(demo_record):
    record, fed = demo_record
    assert len(fed) == 1 and fed[0] is record.batch


def test_record_equals_the_stages_called_one_by_one(demo_record, demo_scenario,
                                                    demo_batch):
    sc, record = demo_scenario, demo_record[0]
    assert record.batch.cell_ids == demo_batch.cell_ids
    assert all(np.array_equal(record.batch.samples[m], demo_batch.samples[m])
               for m in demo_batch.samples)

    detection = run_detection(demo_batch, LOOP["baseline_window"], seed=sc.seed)
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
    assert_same_grid(demo_record[0].grids[0], demo_grid_off)


def test_quiet_scenario_recommends_nothing(quiet_scenario):
    record = loop_and_feed(quiet_scenario)[0]
    assert not record.detection.anomaly_flag
    assert record.estimates == {}
    assert record.verdict is None
    assert len(record.grids) == 2
