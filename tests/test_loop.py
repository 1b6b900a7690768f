"""run_loop: one call for the stage sequence on a KPI batch, each stage's
result recorded."""

import dataclasses

import pytest

from rfplan import KpiBatch, cli, coverage, detect, run_loop, synthesize_kpi, twin
from rfplan.detect import run_detection
from rfplan.errors import InputError
from rfplan.localize import estimate_interferer
from rfplan.mitigate import Recommendation, apply, recommend, verify
from rfplan.report import twin_metrics
from test_coverage import assert_same_grid
from test_mitigate import detection_for

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
    with pytest.raises(InputError, match=r"KPI cell 'X\w+' not in scenario"):
        run_loop(demo_scenario, other, baseline_window=BASELINE_WINDOW)


def rows_as(batch, names):
    """The batch's first len(names) rows, under these cell ids."""
    return KpiBatch(tuple(names), batch.t0_s, batch.dt_s,
                    {m: x[:len(names)] for m, x in batch.samples.items()})


def test_quiet_feed_of_cells_the_scenario_lacks_builds_no_grid(monkeypatch, quiet_scenario,
                                                               quiet_batch):
    """A quiet feed flags nothing, so no later stage would look at its cells:
    the loop rejects it at its door, before detection and any field pass."""
    calls = []
    for module, name in [(detect, "run_detection"), (coverage, "_field_pass")]:
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    other = rows_as(quiet_batch, ["X" + c for c in quiet_batch.cell_ids])
    with pytest.raises(InputError, match=r"^KPI cell 'XA1' not in scenario$"):
        run_loop(quiet_scenario, other, baseline_window=BASELINE_WINDOW)
    assert calls == []


def test_feed_of_some_of_the_cells_runs(quiet_scenario, quiet_batch):
    record = run_loop(quiet_scenario, rows_as(quiet_batch, quiet_batch.cell_ids[:5]),
                      baseline_window=BASELINE_WINDOW)
    assert record.detection.affected_cells == ()
    assert len(record.grids) == 2


FOREIGN = ("A1", "x", "y")      # a cell of the demo, then two it lacks
ENTRIES = {"plan_band": "band", "detect": "KPI cell", "twin_metrics": "KPI cell",
           "run_loop": "KPI cell", "estimate_interferer": "affected cell",
           "recommend": "affected cell", "apply_sector": "recommended sector",
           "apply_band": "recommended band"}


@pytest.mark.parametrize("entry,what", ENTRIES.items(), ids=ENTRIES)
def test_every_entry_names_the_first_id_the_scenario_lacks(tmp_path, demo_scenario,
                                                           demo_batch, entry, what):
    sc, batch, detection = demo_scenario, rows_as(demo_batch, FOREIGN), detection_for(FOREIGN)
    kpi = tmp_path / "kpi.csv"
    twin.write_kpi_csv(batch, kpi)

    def args(*argv):
        return cli.build_parser().parse_args(["--out-dir", str(tmp_path / "out"), *argv])

    call = {
        "plan_band": lambda: cli.cmd_plan(args("plan", "s.json", "--band", "x"), sc),
        "detect": lambda: cli.cmd_detect(args("detect", str(kpi), "s.json"), sc),
        "twin_metrics": lambda: twin_metrics(sc, batch),
        "run_loop": lambda: run_loop(sc, batch, baseline_window=BASELINE_WINDOW),
        "estimate_interferer": lambda: estimate_interferer(sc, detection),
        "recommend": lambda: recommend(sc, detection),
        "apply_sector": lambda: apply(sc, Recommendation(
            tuple((c, "n78", "n257") for c in FOREIGN), "r")),
        "apply_band": lambda: apply(sc, Recommendation(
            (("A1", "n78", "n257"), ("A2", "n78", "x"), ("A3", "n78", "y")), "r")),
    }[entry]
    with pytest.raises(InputError, match=rf"^{what} 'x' not in scenario$"):
        call()
    assert not (tmp_path / "out").exists()
