"""End-to-end CLI behavior: subcommands, files, exit codes, determinism."""

import filecmp
import json
from pathlib import Path

import pytest

from rfplan import cli, coverage, detect, localize, twin
from rfplan.cli import _write_json, demo_scenario_path, main
from rfplan.scenario import save_scenario

DEMO = str(demo_scenario_path())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "plan" in out and "recommend" in out


def test_usage_error_exits_one(capsys):
    code, _, err = run(capsys, "plan")          # missing scenario argument
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", ["simulate", "recommend", "demo"])
def test_workers_below_one_exits_one(capsys, tmp_path, command, workers):
    quiet = tmp_path / "detection.json"        # recommends no change
    quiet.write_text(json.dumps({"anomaly": False, "affected_cells": []}))
    args = {"simulate": [DEMO], "recommend": [str(quiet), DEMO], "demo": []}
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "--out-dir", str(out_dir), command,
                       *args[command], "--workers", workers)
    assert code == 1
    assert "--workers" in err
    assert not out_dir.exists()


def test_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "--out-dir", str(tmp_path), "plan",
                       str(tmp_path / "nope.json"))
    assert code == 1
    assert "nope.json" in err


@pytest.mark.parametrize("which", ["missing", "directory"])
def test_unreadable_kpi_csv_exits_one(capsys, tmp_path, which):
    kpi = tmp_path / "nope.csv" if which == "missing" else tmp_path
    code, _, err = run(capsys, "--out-dir", str(tmp_path / "out"), "detect",
                       str(kpi), DEMO)
    assert code == 1
    assert f"cannot read KPI CSV file {kpi}" in err


@pytest.mark.parametrize("where", ["out-in-missing-dir", "out-is-dir", "out-dir-is-file"])
@pytest.mark.parametrize("command", ["plan", "simulate", "twin"])
def test_unwritable_output_exits_one(capsys, tmp_path, command, where):
    path = {"out-in-missing-dir": tmp_path / "missing" / "out", "out-is-dir": tmp_path,
            "out-dir-is-file": tmp_path / "file"}[where]
    if where == "out-dir-is-file":
        path.write_text("")
        argv = ["--out-dir", str(path), command, DEMO]
    else:
        argv = [command, DEMO, "--out", str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "internal error" not in err and str(path) in err


@pytest.mark.parametrize("command, name, beside", [
    ("twin", "kpi.csv", ".truth.json"), ("twin", "kpi.csv", ".summary.json"),
    ("simulate", "grid.csv", ".summary.json")])
def test_unwritable_later_output_leaves_no_file(capsys, tmp_path, command, name, beside):
    """A file the command cannot write, after others it has written: it
    exits 1 and removes those, so no file stands without its partners."""
    out = tmp_path / "out"
    (out / (name + beside)).mkdir(parents=True)
    code, _, err = run(capsys, command, DEMO, "--out", str(out / name))
    assert code == 1
    assert "internal error" not in err and name + beside in err
    assert [p.name for p in out.iterdir()] == [name + beside]


def test_out_dir_is_made_only_for_a_file_in_it(capsys, tmp_path):
    out_dir, out = tmp_path / "unused", tmp_path / "plan.json"
    assert run(capsys, "--out-dir", str(out_dir), "plan", DEMO, "--out", str(out))[0] == 0
    assert out.exists() and not out_dir.exists()


def test_invalid_scenario_names_violation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "environment": "UMa",
        "area": {"min_x": 0, "min_y": 0, "max_x": 1000, "max_y": 1000},
        "bands": [{"id": "n78", "center_freq_ghz": 3.5, "bandwidth_mhz": 100}],
        "sites": [{"id": "S1", "position": [500, 500], "height_m": 25,
                   "sectors": [{"id": "a", "band_ref": "missing"}]}],
    }))
    code, _, err = run(capsys, "--out-dir", str(tmp_path), "plan", str(bad))
    assert code == 1
    assert "band_ref" in err


def test_plan_demo(capsys, tmp_path):
    out = tmp_path / "plan.json"
    code, stdout, _ = run(capsys, "plan", DEMO, "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    radii = {b["band_id"]: b["cell_radius_m"] for b in doc["bands"]}
    assert radii["n257"] < radii["n78"]
    assert "n78:" in stdout


def test_plan_takes_noise_figure_and_body_loss_from_ut_profile(capsys, tmp_path):
    doc = json.loads(Path(DEMO).read_text())
    mapl = {}
    for nf, body_loss in ((7.0, 0.0), (20.0, 0.0), (7.0, 2.5)):
        doc["ut_profile"].update(noise_figure_db=nf, body_loss_db=body_loss)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "plan.json"
        assert run(capsys, "plan", str(scenario), "--out", str(out))[0] == 0
        bands = json.loads(out.read_text())["bands"]
        mapl[nf, body_loss] = {b["band_id"]: b["mapl_db"] for b in bands}
    for band, base in mapl[7.0, 0.0].items():
        assert mapl[20.0, 0.0][band] == pytest.approx(base - 13.0)
        assert mapl[7.0, 2.5][band] == pytest.approx(base - 2.5)


def test_plan_band_filter(capsys, tmp_path):
    out = tmp_path / "plan.json"
    code, _, _ = run(capsys, "plan", DEMO, "--band", "n78", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert [b["band_id"] for b in doc["bands"]] == ["n78"]

    for band in ("nope", ""):       # an empty id is one the scenario lacks too
        code, _, err = run(capsys, "plan", DEMO, "--band", band, "--out", str(out))
        assert code == 1
        assert f"band {band!r} not in scenario" in err


def test_simulate_deterministic_csv(capsys, tmp_path):
    outs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / f"grid_{name}.csv"
        code, _, _ = run(capsys, "simulate", DEMO, "--workers", workers,
                         "--out", str(out))
        assert code == 0
        outs.append(out)
    assert filecmp.cmp(outs[0], outs[1], shallow=False)
    assert filecmp.cmp(outs[0], outs[2], shallow=False)
    assert (tmp_path / "grid_a.csv.summary.json").exists()


def test_interference_off_improves_sinr(capsys, tmp_path):
    means = {}
    for mode in ("on", "off"):
        out = tmp_path / f"grid_{mode}.csv"
        code, _, _ = run(capsys, "simulate", DEMO, "--interference", mode,
                         "--out", str(out))
        assert code == 0
        doc = json.loads((tmp_path / f"grid_{mode}.csv.summary.json").read_text())
        means[mode] = doc["summary"]["overall"]["sinr_db"]["mean"]
    assert means["off"] > means["on"]


def test_twin_sample_count_and_truth(capsys, tmp_path):
    out = tmp_path / "kpi.csv"
    code, stdout, _ = run(capsys, "twin", DEMO, "--duration", "3600",
                          "--dt", "60", "--out", str(out))
    assert code == 0
    assert "21 cells x 60 samples" in stdout
    truth = json.loads((tmp_path / "kpi.csv.truth.json").read_text())
    assert truth["interferers"][0]["id"] == "JAM1"
    # the KPI CSV itself must not leak the interferer
    assert "JAM1" not in out.read_text()


@pytest.mark.parametrize("dt, code", [("0.25", 1), ("0.1", 0)])
def test_twin_step_must_be_a_tenth(capsys, tmp_path, dt, code):
    # the CSV carries timestamps to 0.1 s; 0.25 would write 0.0, 0.2, 0.5, ...
    out = tmp_path / "kpi.csv"
    assert run(capsys, "twin", DEMO, "--duration", "30", "--dt", dt,
               "--out", str(out))[0] == code
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("duration, code", [("60", 1), ("119", 1), ("120", 0)])
def test_twin_needs_two_samples(capsys, tmp_path, duration, code):
    # one sample has no step, so its file could not be read back
    out = tmp_path / "kpi.csv"
    got, _, err = run(capsys, "twin", DEMO, "--duration", duration, "--dt", "60",
                      "--out", str(out))
    assert got == code
    assert out.exists() == (code == 0)
    assert ("two samples" in err) == (code == 1)


def test_detect_one_timestamp_exits_one(capsys, tmp_path):
    kpi = tmp_path / "kpi.csv"
    kpi.write_text("timestamp_s,cell_id,metric,value_dbm\n0.0,A1,RTWP,-100.0\n")
    code, _, err = run(capsys, "detect", str(kpi), DEMO)
    assert code == 1
    assert f"one KPI timestamp in {kpi}" in err


@pytest.mark.parametrize("flag, value", [
    ("--duration", "nan"), ("--duration", "inf"), ("--dt", "nan"),
    ("--dt", "inf"), ("--dt", "-inf")])
def test_twin_non_finite_duration_exits_one(capsys, tmp_path, flag, value):
    out = tmp_path / "kpi.csv"
    code, _, err = run(capsys, "twin", DEMO, f"{flag}={value}", "--out", str(out))
    assert code == 1
    assert "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--threshold", "--validation-radius"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_detect_non_finite_flag_exits_one(capsys, tmp_path, flag, value):
    kpi = tmp_path / "kpi.csv"
    assert run(capsys, "twin", DEMO, "--out", str(kpi))[0] == 0
    det = tmp_path / "detection.json"
    code, _, err = run(capsys, "detect", str(kpi), DEMO,
                       "--validate", str(tmp_path / "kpi.csv.truth.json"),
                       f"{flag}={value}", "--out", str(det))
    assert code == 1
    assert flag in err and "finite" in err
    assert not det.exists()


def test_json_output_rejects_non_finite_numbers(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        _write_json(path, {"x": float("nan")})
    assert not path.exists()
    _write_json(path, {"x": 1.5})
    assert json.loads(path.read_text()) == {"x": 1.5}


def test_detect_recommend_report_loop(capsys, tmp_path):
    kpi = tmp_path / "kpi.csv"
    assert run(capsys, "twin", DEMO, "--out", str(kpi))[0] == 0

    det = tmp_path / "detection.json"
    code, stdout, _ = run(capsys, "detect", str(kpi), DEMO,
                          "--validate", str(tmp_path / "kpi.csv.truth.json"),
                          "--out", str(det))
    assert code == 0
    assert "ANOMALY" in stdout
    doc = json.loads(det.read_text())
    assert doc["anomaly"] is True
    assert doc["affected_cells"]
    assert "WeightedCentroid" in doc["localization"]
    assert doc["validation"]["WeightedCentroid"]["within_radius"] is True

    rec = tmp_path / "recommendation.json"
    code, stdout, _ = run(capsys, "recommend", str(det), DEMO,
                          "--out", str(rec))
    assert code == 0
    assert "improved" in stdout
    rdoc = json.loads(rec.read_text())
    assert rdoc["verification"]["improved"] is True
    assert set(rdoc["changes"]) == set(doc["affected_cells"])

    grid = tmp_path / "grid.csv"
    assert run(capsys, "simulate", DEMO, "--out", str(grid))[0] == 0
    rep = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "report",
                          str(tmp_path / "grid.csv.summary.json"),
                          str(tmp_path / "kpi.csv.summary.json"),
                          "--out", str(rep))
    assert code == 0
    assert "RTWP" in stdout
    rows = json.loads(rep.read_text())["rows"]
    rtwp = [r for r in rows if r["metric"] == "RTWP"]
    assert rtwp and all(r["abs_delta"] <= 2.0 for r in rtwp)


def test_detect_localizes_each_cell_against_its_band(capsys, tmp_path, two_band_scenario):
    """On a feed with affected cells on two bands of different baselines,
    detect writes what estimate_interferer gives with each cell's own."""
    sc = two_band_scenario
    path, kpi, det = tmp_path / "sc.json", tmp_path / "kpi.csv", tmp_path / "det.json"
    save_scenario(sc, path)
    assert run(capsys, "twin", str(path), "--out", str(kpi))[0] == 0
    assert run(capsys, "detect", str(kpi), str(path), "--out", str(det))[0] == 0
    result = detect.run_detection(twin.read_kpi_csv(kpi), 15, seed=sc.seed)
    assert {sc.sector_by_id(c)[1].band_ref for c in result.affected_cells} == {"n78", "n78b"}
    want = {name: {"position": list(est.position), "residual": est.residual,
                   "tx_power_dbm": est.tx_power_dbm, "fallback": est.fallback,
                   "cells_used": list(est.cells_used)}
            for name, est in localize.estimate_interferer(sc, result).items()}
    assert json.loads(det.read_text())["localization"] == want


def test_detect_k_plumbing(capsys, tmp_path):
    kpi = tmp_path / "kpi.csv"
    assert run(capsys, "twin", DEMO, "--out", str(kpi))[0] == 0
    det = tmp_path / "det3.json"
    code, _, _ = run(capsys, "detect", str(kpi), DEMO, "--k", "3",
                     "--out", str(det))
    assert code == 0
    assert json.loads(det.read_text())["k"] == 3


def test_detect_foreign_cells_rejected(capsys, tmp_path):
    kpi = tmp_path / "kpi.csv"
    kpi.write_text("timestamp_s,cell_id,metric,value_dbm\n"
                   "0.0,ghost,RTWP,-100.0\n60.0,ghost,RTWP,-100.0\n")
    code, _, err = run(capsys, "detect", str(kpi), DEMO)
    assert code == 1
    assert "KPI cell 'ghost' not in scenario" in err


def test_detect_absent_metric_exits_one(capsys, tmp_path):
    kpi = tmp_path / "kpi.csv"
    assert run(capsys, "twin", DEMO, "--out", str(kpi))[0] == 0
    rtwp_only = [line for line in kpi.read_text().splitlines(keepends=True)
                 if ",RSSI," not in line]
    kpi.write_text("".join(rtwp_only))
    code, _, err = run(capsys, "--out-dir", str(tmp_path), "detect", str(kpi),
                       DEMO, "--metric", "RSSI")
    assert code == 1
    assert "no RSSI series" in err


def test_recommend_no_anomaly_noop(capsys, tmp_path):
    det = tmp_path / "clear.json"
    det.write_text(json.dumps({"anomaly": False, "affected_cells": [],
                               "evidence": {}, "threshold_db": 3.0}))
    out = tmp_path / "rec.json"
    code, stdout, _ = run(capsys, "recommend", str(det), DEMO,
                          "--out", str(out))
    assert code == 0
    assert "no-op" in stdout
    assert json.loads(out.read_text())["verification"] is None


BAD_JSON_INPUTS = {
    "recommend-missing": ("recommend", None),
    "report-missing": ("report", None),
    "detection-not-json": ("recommend", "{not json"),
    "detection-array": ("recommend", "[1,2]"),
    "detection-cells-not-list": ("recommend", '{"affected_cells": 5}'),
    "detection-no-evidence": (
        "recommend", '{"anomaly": true, "affected_cells": ["A1"], "evidence": {}}'),
    "detection-anomaly-without-cells": (
        "recommend", '{"anomaly": true, "affected_cells": []}'),
    "detection-anomaly-not-bool": (
        "recommend", '{"anomaly": "no", "affected_cells": ["A1"], '
        '"evidence": {"A1": {"mean_excess_db": 9.0}}}'),
    "detection-threshold-not-number": ("recommend", '{"threshold_db": "x"}'),
    "detection-repeated-cell": (
        "recommend", '{"anomaly": true, "affected_cells": ["A1", "A1"], '
        '"evidence": {"A1": {"mean_excess_db": 9.0}}}'),
    "summary-metrics-not-object": ("report", '{"metrics": 5}'),
    "summary-metric-not-number": ("report", '{"metrics": {"n78": {"RTWP": "x"}}}'),
    "truth-missing": ("detect", None),
    "truth-wrong-shape": ("detect", '{"interferers": 5}'),
    "truth-unknown-field": ("detect", '{"interferers": [{"id": "J", '
                            '"position": [0, 0], "tx_power_dbm": 20, "band_ref": "n78", '
                            '"active_intervals": [], "seen": true}]}'),
    "truth-numeric-id": ("detect", '{"interferers": [{"id": 7, '
                         '"position": [0, 0], "tx_power_dbm": 20, "band_ref": "n78", '
                         '"active_intervals": []}]}'),
}

# what the error says after the file's name: the field path and the fault
BAD_JSON_ERRORS = {
    "summary-metrics-not-object": "metrics: expected an object, got 5",
    "summary-metric-not-number": "metrics.n78.RTWP: expected a finite number, got 'x'",
    "truth-wrong-shape": "interferers: expected an array, got 5",
    "truth-unknown-field": "interferers[0].seen: unknown field",
    "truth-numeric-id": "interferers[0].id: expected a string, got 7",
}


@pytest.mark.parametrize("case", list(BAD_JSON_INPUTS), ids=list(BAD_JSON_INPUTS))
def test_bad_json_input_exits_one(capsys, tmp_path, case):
    command, content = BAD_JSON_INPUTS[case]
    bad = tmp_path / "bad.json"             # absent when content is None
    if content is not None:
        bad.write_text(content)
    if command == "recommend":
        argv = ["recommend", str(bad), DEMO]
    elif command == "report":
        good = tmp_path / "good.json"
        good.write_text('{"metrics": {"n78": {"RTWP": -100.0}}}')
        argv = ["report", str(bad), str(good)]
    else:                                   # the ground truth behind --validate
        kpi = tmp_path / "kpi.csv"
        assert run(capsys, "twin", DEMO, "--out", str(kpi))[0] == 0
        argv = ["detect", str(kpi), DEMO, "--validate", str(bad)]
    code, _, err = run(capsys, "--out-dir", str(tmp_path / "out"), *argv)
    assert code == 1
    assert str(bad) in err
    if case in BAD_JSON_ERRORS:
        assert f"error: {bad}: {BAD_JSON_ERRORS[case]}\n" in err


@pytest.mark.parametrize("old, new", [
    ('"bandwidth_mhz": 10.0', '"bandwidth_mhz": NaN'),
    ('"grid_resolution_m": 50.0', '"grid_resolution_m": NaN'),
    ('"grid_resolution_m": 50.0', '"grid_resolution_m": -Infinity'),
    ('"grid_resolution_m": 50.0', '"grid_resolution_m": 1e999'),
    ('"bandwidth_mhz": 10.0', '"bandwidth_mhz": 1' + "0" * 400),
], ids=["nan-bandwidth", "nan-resolution", "infinity", "overflow-float",
        "overflow-int"])
def test_non_finite_scenario_number_exits_one(capsys, tmp_path, old, new):
    text = Path(DEMO).read_text()
    assert old in text
    bad = tmp_path / "scenario.json"
    bad.write_text(text.replace(old, new, 1))
    out = tmp_path / "grid.csv"
    code, _, err = run(capsys, "simulate", str(bad), "--out", str(out))
    assert code == 1
    assert "malformed scenario file" in err or str(bad) in err
    assert not out.exists()


SCENARIO_EDITS = {     # id: (command, keys to the edited field, new value, field path)
    "sites-object": ("simulate", ("sites",), {"a": 1}, "sites"),
    "ut-profile-array": ("simulate", ("ut_profile",), [1], "ut_profile"),
    "schema-version-string": ("simulate", ("schema_version",), "x", "schema_version"),
    "position-one-element": ("simulate", ("sites", 0, "position"), [4700.0],
                             "sites[0].position"),
    "height-typo": ("simulate", ("sites", 0, "heigth_m"), 40.0, "sites[0].heigth_m"),
    "seed-float": ("simulate", ("seed",), 1.5, "seed"),
    "freq-bool": ("simulate", ("bands", 0, "center_freq_ghz"), True,
                  "bands[0].center_freq_ghz"),
    "numeric-string": ("simulate", ("bands", 0, "bandwidth_mhz"), "10.0",
                       "bands[0].bandwidth_mhz"),
    "numeric-id": ("simulate", ("sites", 0, "sectors", 1, "id"), 5,
                   "sites[0].sectors[1].id"),
    # sector ids the grid and KPI CSVs cannot carry
    **{f"sector-id-{name}": ("twin", ("sites", 0, "sectors", 0, "id"), sector_id,
                             "sites[0].sectors[0].id")
       for name, sector_id in [("comma", "A,1"), ("quote", 'A"1'), ("newline", "A\n1"),
                               ("empty", ""), ("surrogate", "A\ud800")]},
    "interferer-typo": ("simulate", ("interferers", 0, "power_dbm"), 18.0,
                       "interferers[0].power_dbm"),
    "cap-negative": ("simulate", ("bands", 0, "throughput_cap_mbps"), -5.0,
                     "bands[0].throughput_cap_mbps"),
    "cap-zero": ("simulate", ("bands", 0, "throughput_cap_mbps"), 0.0,
                 "bands[0].throughput_cap_mbps"),
    "link-budget-number": ("plan", ("link_budget",), 5, "link_budget"),
    "link-budget-unknown-key": ("plan", ("link_budget", "foo"), 1, "link_budget"),
    "link-budget-bandwidth": ("plan", ("link_budget", "bandwidth_mhz"), 20.0,
                              "link_budget"),
    "cable-loss-negative": ("plan", ("link_budget", "cable_loss_db"), -1.0,
                            "link_budget"),
    # the UT profile alone sets the planner's noise figure and body loss
    "link-budget-noise-figure": ("plan", ("link_budget", "noise_figure_db"), 7.0,
                                 "link_budget"),
    "link-budget-body-loss": ("plan", ("link_budget", "body_loss_db"), 0.0,
                              "link_budget"),
    # link-budget levels that would plan a 10 km cell from a 300-digit MAPL
    "link-budget-tx-power-huge": ("plan", ("link_budget", "tx_power_dbm"), 1e300,
                                  "link_budget.tx_power_dbm"),
    "link-budget-rx-gain-huge": ("plan", ("link_budget", "rx_antenna_gain_dbi"), 1e300,
                                 "link_budget.rx_antenna_gain_dbi"),
    # dB fields so large that the grid or KPI sums overflow
    "gain-huge-twin": ("twin", ("sites", 0, "sectors", 0, "antenna_gain_dbi"), 1e300,
                       "sites[0].sectors[0].antenna_gain_dbi"),
    "gain-huge-simulate": ("simulate", ("sites", 0, "sectors", 0, "antenna_gain_dbi"),
                           1e300, "sites[0].sectors[0].antenna_gain_dbi"),
    "ut-noise-figure-huge": ("simulate", ("ut_profile", "noise_figure_db"), 1e300,
                             "ut_profile.noise_figure_db"),
    "body-loss-huge": ("simulate", ("ut_profile", "body_loss_db"), 1e300,
                       "ut_profile.body_loss_db"),
    "load-amplitude-huge": ("twin", ("twin", "load_amplitude_db"), 1e300,
                            "twin.load_amplitude_db"),
}


@pytest.mark.parametrize("command, keys, value, field", list(SCENARIO_EDITS.values()),
                         ids=list(SCENARIO_EDITS))
def test_bad_scenario_field_exits_one(capsys, tmp_path, command, keys, value, field):
    doc = json.loads(Path(DEMO).read_text())
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "--out-dir", str(out_dir), command, str(bad))
    assert code == 1
    assert str(bad) in err and field in err
    assert not out_dir.exists()


def test_simulate_without_coverage_exits_one(capsys, tmp_path):
    doc = json.loads(Path(DEMO).read_text())
    for site in doc["sites"]:
        for sector in site["sectors"]:
            sector["tx_power_dbm"], sector["antenna_gain_dbi"] = -30.0, -20.0
    dark = tmp_path / "scenario.json"
    dark.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "--out-dir", str(out_dir), "simulate", str(dark))
    assert code == 1
    assert "no covered pixels" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
@pytest.mark.parametrize("command", ["simulate", "twin", "demo"])
def test_seed_override_meets_the_seed_range_rule(capsys, tmp_path, command, seed):
    """--seed is checked as a seed in the scenario file is: exit 1 before any
    output, not an internal error late in the run or an accepted run."""
    out = tmp_path / "out"
    argv = ["--seed", seed, "--out-dir", str(out), command]
    code, _, err = run(capsys, *argv, *([] if command == "demo" else [DEMO]))
    assert code == 1
    assert "SEED_RANGE" in err and "internal error" not in err
    assert not out.exists()


def test_seed_override_changes_twin(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    assert run(capsys, "--seed", "1", "twin", DEMO, "--out", str(a))[0] == 0
    assert run(capsys, "--seed", "1", "twin", DEMO, "--out", str(b))[0] == 0
    assert run(capsys, "--seed", "2", "twin", DEMO, "--out", str(c))[0] == 0
    assert filecmp.cmp(a, b, shallow=False)
    assert not filecmp.cmp(a, c, shallow=False)


def test_demo_end_to_end(capsys, tmp_path):
    code, stdout, _ = run(capsys, "--out-dir", str(tmp_path), "demo")
    assert code == 0
    assert "== report ==" in stdout
    rec = json.loads((tmp_path / "recommendation.json").read_text())
    assert rec["verification"]["improved"] is True
    assert rec["verification"]["delta_db"] > 3.0


def demo_steps(capsys, out, scenario, seed, workers):
    """The demo's subcommands, one after another, into one directory:
    -> (stdout with the demo's section headers, stderr)."""
    sections = {
        "plan": [("plan", scenario, "--out", out / "plan.json")],
        "simulate (interference off / on)": [
            ("simulate", scenario, "--interference", mode, "--workers", workers,
             "--out", out / f"grid_{mode}.csv") for mode in ("off", "on")],
        "twin": [("twin", scenario, "--out", out / "kpi.csv")],
        "detect": [("detect", out / "kpi.csv", scenario, "--validate",
                    out / "kpi.csv.truth.json", "--out", out / "detection.json")],
        "recommend": [("recommend", out / "detection.json", scenario,
                       "--workers", workers, "--out", out / "recommendation.json")],
        "report": [("report", out / "grid_on.csv.summary.json",
                    out / "kpi.csv.summary.json", "--out", out / "report.json")],
    }
    stdout = stderr = ""
    for header, commands in sections.items():
        stdout += f"== {header} ==\n"
        for argv in commands:
            code, o, e = run(capsys, "--seed", str(seed), *map(str, argv))
            assert code == 0, e
            stdout, stderr = stdout + o, stderr + e
    return stdout, stderr


def files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def no_clean_spectrum_scenario(tmp_path):
    """The demo with its interfered band as the only band: the anomaly is
    found, and the recommendation changes nothing."""
    doc = json.loads(Path(DEMO).read_text())
    doc["bands"] = doc["bands"][:1]
    path = tmp_path / "one_band.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("seed, workers, case", [
    (1, 1, "demo"), (1, 3, "demo"), (7, 1, "demo"), (7, 3, "demo"),
    (1, 1, "no_change")])
def test_demo_equals_its_subcommands(monkeypatch, capsys, tmp_path, seed,
                                     workers, case):
    """demo decides first and builds its grids in one pass; its stdout,
    stderr and files are those of the subcommands run step by step."""
    scenario = DEMO if case == "demo" else no_clean_spectrum_scenario(tmp_path)
    monkeypatch.setattr(cli, "demo_scenario_path", lambda: Path(scenario))
    out = tmp_path / "out"
    code, demo_out, demo_err = run(capsys, "--seed", str(seed), "--out-dir",
                                   str(out), "demo", "--workers", str(workers))
    assert code == 0, demo_err
    demo_files = files(out)
    for p in out.iterdir():
        p.unlink()
    assert (demo_out, demo_err) == demo_steps(capsys, out, scenario, seed, workers)
    assert demo_files == files(out)
    verification = json.loads(demo_files["recommendation.json"])["verification"]
    assert (verification is None) == (case == "no_change")


@pytest.mark.parametrize("case, grids", [("demo", 3), ("no_change", 2)])
def test_demo_makes_one_field_pass(monkeypatch, capsys, tmp_path, case, grids):
    """off, on and, when the recommendation changes something, the
    mitigated grid come from one field pass."""
    if case == "no_change":
        path = no_clean_spectrum_scenario(tmp_path)
        monkeypatch.setattr(cli, "demo_scenario_path", lambda: path)
    passes, field_pass = [], coverage._field_pass

    def counted(folds, *args):
        passes.append(len(folds))
        return field_pass(folds, *args)

    monkeypatch.setattr(coverage, "_field_pass", counted)
    assert run(capsys, "--out-dir", str(tmp_path / "out"), "demo")[0] == 0
    assert passes == [grids]


def test_demo_writes_the_kpi_csv_once(monkeypatch, capsys, tmp_path):
    """twin's writer writes kpi.csv before the loop, which reads it back."""
    calls, write = [], twin.write_kpi_csv

    def counted(batch, path):
        calls.append(Path(path).name)
        return write(batch, path)

    monkeypatch.setattr(twin, "write_kpi_csv", counted)
    assert run(capsys, "--out-dir", str(tmp_path / "out"), "demo")[0] == 0
    assert calls == ["kpi.csv"]


def test_demo_stops_before_the_loop_when_twin_cannot_write(capsys, tmp_path):
    """twin's files are written before the loop runs: one that cannot be
    written ends the demo with twin's other files removed and no grid made."""
    out = tmp_path / "out"
    (out / "kpi.csv.truth.json").mkdir(parents=True)
    code, stdout, err = run(capsys, "--out-dir", str(out), "demo")
    assert code == 1
    assert "internal error" not in err and "kpi.csv.truth.json" in err
    assert "== simulate" not in stdout
    assert sorted(p.name for p in out.iterdir()) == ["kpi.csv.truth.json", "plan.json"]


def test_demo_reads_the_scenario_once(monkeypatch, capsys, tmp_path):
    """plan, twin and detect inside the demo share the one scenario the
    demo loaded, instead of reading and validating the file again."""
    calls, load = [], cli.load_scenario

    def counted(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(cli, "load_scenario", counted)
    assert run(capsys, "--out-dir", str(tmp_path / "out"), "demo")[0] == 0
    assert len(calls) == 1
