"""Scenario loading, validation and round-tripping."""

import ast
import dataclasses
import json
import math
from pathlib import Path

import pytest

from rfplan import propagation
from rfplan.cli import demo_scenario_path
from rfplan.errors import ScenarioParseError, ScenarioValidationError
from rfplan.planning import LinkBudget, budget_from_config
from rfplan.scenario import (FILE_DEFAULTS, Band, Interferer, Rect, Scenario,
                             Sector, Site, load_scenario, save_scenario, validate)
from test_twin import bench_lattice

MINIMAL = {
    "environment": "UMa",
    "area": {"min_x": 0, "min_y": 0, "max_x": 1000, "max_y": 1000},
    "bands": [{"id": "n78", "center_freq_ghz": 3.5, "bandwidth_mhz": 100}],
    "sites": [{"id": "S1", "position": [500, 500], "height_m": 25,
               "sectors": [{"id": "S1a", "band_ref": "n78"}]}],
}


def write_json(path, data):
    path.write_text(json.dumps(data))
    return path


def test_minimal_scenario_defaults(tmp_path):
    sc = load_scenario(write_json(tmp_path / "s.json", MINIMAL))
    assert len(sc.sites) == 1
    sec = sc.sites[0].sectors[0]
    assert sec.tx_power_dbm == 43.0          # defaults filled
    assert sec.antenna_gain_dbi == 17.0
    assert sc.grid_resolution_m == 50.0
    assert sc.interferers == ()


def test_unknown_band_ref_names_field(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["sites"][0]["sectors"][0]["band_ref"] = "n78x"
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(write_json(tmp_path / "s.json", data))
    assert "band_ref" in str(exc.value)


def test_demo_scenario_shape(demo_scenario):
    assert len(demo_scenario.sites) == 7
    assert len(demo_scenario.sector_ids) == 21
    assert len(demo_scenario.interferers) == 1
    assert demo_scenario.band_by_id("n78").center_freq_ghz == 3.5


def test_demo_scenario_valid(demo_scenario):
    assert validate(demo_scenario) == []


def test_grid_resolution_violation(demo_scenario):
    bad = dataclasses.replace(demo_scenario, grid_resolution_m=0.0)
    codes = [v.code for v in validate(bad)]
    assert codes == ["GRID_RESOLUTION"]


def test_out_of_area_violation(demo_scenario):
    far = Interferer(id="X", position=(1e6, 1e6), height_m=1.5,
                     tx_power_dbm=20.0, band_ref="n78")
    bad = dataclasses.replace(demo_scenario,
                              interferers=demo_scenario.interferers + (far,))
    violations = validate(bad)
    assert [v.code for v in violations] == ["OUT_OF_AREA"]
    assert "interferers[1]" in violations[0].path


@pytest.mark.parametrize("part, field, value", [
    ("ut_profile", "noise_figure_db", -0.5), ("ut_profile", "body_loss_db", 30.5),
    ("twin", "bts_noise_figure_db", 31.0), ("twin", "load_amplitude_db", -1.0),
    ("twin", "load_jitter_db", 31.0), ("twin", "measurement_noise_db", 1e300),
    ("twin", "load_offset_db", -61.0), ("twin", "rtwp_baseline_dbm", 1.0),
    ("twin", "serving_traffic_dbm", -201.0)])
def test_level_out_of_range_violation(demo_scenario, part, field, value):
    section = dataclasses.replace(getattr(demo_scenario, part), **{field: value})
    bad = dataclasses.replace(demo_scenario, **{part: section})
    assert [(v.code, v.path) for v in validate(bad)] == [("LEVEL_RANGE", f"{part}.{field}")]


@pytest.mark.parametrize("field, value", [
    ("tx_power_dbm", 60.5), ("tx_antenna_gain_dbi", -31.0), ("rx_antenna_gain_dbi", 1e300),
    ("cable_loss_db", -1.0), ("penetration_loss_db", 61.0),
    ("interference_margin_db", -0.5), ("shadow_margin_db", 1e300),
    ("required_sinr_db", -30.5)])
def test_link_budget_out_of_range_violation(demo_scenario, field, value):
    bad = dataclasses.replace(demo_scenario,
                              link_budget={**demo_scenario.link_budget, field: value})
    assert [(v.code, v.path) for v in validate(bad)] == [("LINK_BUDGET", f"link_budget.{field}")]


def test_link_budget_takes_the_budget_fields_no_other_section_sets(demo_scenario):
    """Every LinkBudget field but the UT profile's noise figure and body
    loss and the band's bandwidth is a link_budget key; any other key is a
    violation at its own path, in sorted order."""
    elsewhere = {"noise_figure_db", "body_loss_db", "bandwidth_mhz"}
    keys = {f.name for f in dataclasses.fields(LinkBudget)} - elsewhere
    good = dataclasses.replace(demo_scenario, link_budget=dict.fromkeys(keys, 1.0))
    assert validate(good) == []
    budget_from_config(good.link_budget, 10.0, good.ut_profile)
    unknown = sorted(elsewhere | {"foo"})
    bad = dataclasses.replace(demo_scenario, link_budget=dict.fromkeys(unknown, 1.0))
    assert [(v.code, v.path) for v in validate(bad)] == [
        ("LINK_BUDGET", f"link_budget.{key}") for key in unknown]
    assert validate(bad)[0].message.startswith(
        "unknown key; link_budget takes only tx_power_dbm, ")


def with_band_frequency(sc, fc_ghz):
    return dataclasses.replace(sc, bands=(
        dataclasses.replace(sc.bands[0], center_freq_ghz=fc_ghz), *sc.bands[1:]))


def with_site_height(sc, height_m):
    return dataclasses.replace(sc, sites=(
        dataclasses.replace(sc.sites[0], height_m=height_m), *sc.sites[1:]))


def with_ut_height(sc, height_m):
    return dataclasses.replace(sc, ut_profile=dataclasses.replace(sc.ut_profile,
                                                                  height_m=height_m))


@pytest.mark.parametrize("edit, lo, hi, violation", [
    (with_band_frequency, propagation.FC_MIN_GHZ, propagation.FC_MAX_GHZ,
     ("FREQ_RANGE", "bands[0].center_freq_ghz", "center_freq_ghz must lie in [0.5, 100] GHz")),
    (with_site_height, propagation.H_BS_MIN_M, propagation.H_BS_MAX_M,
     ("HEIGHT_RANGE", "sites[0].height_m", "height_m must lie in [1, 150] m")),
    (with_ut_height, propagation.H_UT_MIN_M, propagation.H_UT_MAX_M,
     ("UT_HEIGHT_RANGE", "ut_profile.height_m", "height_m must lie in [1, 22.5] m")),
], ids=["frequency", "site-height", "ut-height"])
def test_scenario_envelope_is_the_pathloss_envelope(demo_scenario, edit, lo, hi, violation):
    for value in (lo, hi):
        assert validate(edit(demo_scenario, value)) == []
    for value in (lo - 0.25, hi + 0.25):
        assert [(v.code, v.path, v.message)
                for v in validate(edit(demo_scenario, value))] == [violation]


def test_duplicate_sector_ids():
    sec = Sector(id="dup", azimuth_deg=0.0, band_ref="b", tx_power_dbm=43.0)
    sc = Scenario(
        name="t", area=Rect(0, 0, 100, 100), environment="UMa",
        sites=(Site("S1", (10, 10), 25.0, (sec,)),
               Site("S2", (90, 90), 25.0, (sec,))),
        interferers=(), bands=(Band("b", 3.5, 100.0),),
        grid_resolution_m=10.0, seed=0)
    assert "DUPLICATE_ID" in [v.code for v in validate(sc)]


def test_malformed_json(tmp_path):
    p = tmp_path / "s.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioParseError):
        load_scenario(p)


def test_missing_required_field(tmp_path):
    data = {k: v for k, v in MINIMAL.items() if k != "area"}
    with pytest.raises(ScenarioParseError) as exc:
        load_scenario(write_json(tmp_path / "s.json", data))
    assert "area" in str(exc.value)


def test_schema_version_rejected(tmp_path):
    data = dict(MINIMAL, schema_version=99)
    with pytest.raises(ScenarioParseError):
        load_scenario(write_json(tmp_path / "s.json", data))


def test_save_load_round_trip(tmp_path, demo_scenario):
    p = tmp_path / "round.json"
    save_scenario(demo_scenario, p)
    again = load_scenario(p)
    assert again == demo_scenario

    bands = tuple(dataclasses.replace(b, throughput_cap_mbps=None)
                  for b in demo_scenario.bands)
    twin = dataclasses.replace(demo_scenario.twin, rtwp_baseline_dbm=None,
                               load_offset_db=None)
    all_none = dataclasses.replace(demo_scenario, bands=bands, twin=twin,
                                   link_budget=None)
    save_scenario(all_none, p)
    assert load_scenario(p) == all_none


def with_interferer(sc, **fields):
    return dataclasses.replace(sc, interferers=(
        dataclasses.replace(sc.interferers[0], **fields), *sc.interferers[1:]))


def with_band(sc, **fields):
    return dataclasses.replace(sc, bands=(dataclasses.replace(sc.bands[0], **fields),
                                          *sc.bands[1:]))


def with_sector(sc, **fields):
    site = sc.sites[0]
    sector = dataclasses.replace(site.sectors[0], **fields)
    return dataclasses.replace(sc, sites=(
        dataclasses.replace(site, sectors=(sector, *site.sectors[1:])), *sc.sites[1:]))


NON_FINITE_EDITS = {
    "interferer-height": (lambda sc, x: with_interferer(sc, height_m=x),
                          ("HEIGHT_RANGE", "interferers[0].height_m",
                           "interferer height_m must be > 0")),
    "interval-start": (lambda sc, x: with_interferer(sc, active_intervals=((x, 3600.0),)),
                       ("INTERVALS_INVALID", "interferers[0].active_intervals[0]",
                        "active intervals must be sorted, non-overlapping [start, end) "
                        "pairs")),
    "interval-end": (lambda sc, x: with_interferer(sc, active_intervals=((900.0, x),)),
                     ("INTERVALS_INVALID", "interferers[0].active_intervals[0]",
                      "active intervals must be sorted, non-overlapping [start, end) pairs")),
    "area-width": (lambda sc, x: dataclasses.replace(
                       sc, area=dataclasses.replace(sc.area, max_x=x)),
                   ("AREA_EMPTY", "area", "area must have positive width and height")),
    "area-height": (lambda sc, x: dataclasses.replace(
                        sc, area=dataclasses.replace(sc.area, max_y=x)),
                    ("AREA_EMPTY", "area", "area must have positive width and height")),
    "grid-resolution": (lambda sc, x: dataclasses.replace(sc, grid_resolution_m=x),
                        ("GRID_RESOLUTION", "grid_resolution_m",
                         "grid_resolution_m must be > 0")),
    "bandwidth": (lambda sc, x: with_band(sc, bandwidth_mhz=x),
                  ("BANDWIDTH_RANGE", "bands[0].bandwidth_mhz", "bandwidth_mhz must be > 0")),
    "throughput-cap": (lambda sc, x: with_band(sc, throughput_cap_mbps=x),
                       ("THROUGHPUT_CAP", "bands[0].throughput_cap_mbps",
                        "throughput_cap_mbps must be > 0")),
    "front-to-back": (lambda sc, x: with_sector(sc, front_to_back_db=x),
                      ("FRONT_TO_BACK", "sites[0].sectors[0].front_to_back_db",
                       "front_to_back_db must be > 0")),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("edit, violation", list(NON_FINITE_EDITS.values()),
                         ids=list(NON_FINITE_EDITS))
def test_non_finite_value_is_a_violation(demo_scenario, edit, violation, value):
    """Each value that the JSON reader refuses is a violation of validate's
    own (a non-finite area also puts every position outside it)."""
    assert violation in [(v.code, v.path, v.message)
                         for v in validate(edit(demo_scenario, value))]


def test_every_valid_scenario_loads_back_equal(tmp_path, demo_scenario, two_band_scenario):
    for sc in (demo_scenario, two_band_scenario, bench_lattice(5)):
        assert validate(sc) == []
        save_scenario(sc, tmp_path / "sc.json")
        assert load_scenario(tmp_path / "sc.json") == sc
    # load_scenario refuses a file of another schema version, so validate does too
    other = dataclasses.replace(demo_scenario, schema_version=2)
    assert [(v.code, v.message) for v in validate(other)] == [
        ("SCHEMA_VERSION", "schema_version must be 1")]


def test_write_json_is_the_one_json_writer():
    """No module of rfplan but scenario.write_json calls json.dump or json.dumps."""
    calls = []
    for module in sorted((Path(__file__).resolve().parents[1] / "src" / "rfplan").glob("*.py")):
        tree = ast.parse(module.read_text())
        for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            calls += [(module.stem, func.name) for n in ast.walk(func)
                      if isinstance(n, ast.Attribute) and n.attr in ("dump", "dumps")
                      and isinstance(n.value, ast.Name) and n.value.id == "json"]
    assert calls == [("scenario", "write_json")]


def test_file_defaults_are_file_only():
    # a field with its own dataclass default must not get a second one
    for cls, defaults in FILE_DEFAULTS.items():
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for name in defaults:
            assert fields[name].default is dataclasses.MISSING, (cls, name)


def test_interferer_active_intervals():
    intf = Interferer(id="i", position=(0, 0), height_m=1.5, tx_power_dbm=20.0,
                      band_ref="b", active_intervals=((10.0, 20.0),))
    assert not intf.active_at(9.9)
    assert intf.active_at(10.0)          # half-open [start, end)
    assert intf.active_at(19.9)
    assert not intf.active_at(20.0)


def test_demo_fixture_file_is_bundled():
    assert demo_scenario_path().exists()
