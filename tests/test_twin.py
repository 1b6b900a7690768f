"""Synthetic KPI feed: composition, excess series, wire formats."""

import ast
import csv
import dataclasses
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rfplan import _csvtext, propagation, twin
from rfplan.errors import InputError
from rfplan.scenario import (Band, Interferer, Rect, Scenario, Sector, Site,
                             TwinConfig)
from rfplan.twin import (METRICS, KpiBatch, KpiSeries, batch_excess,
                         coupling_dbm, read_ground_truth, read_kpi_csv,
                         synthesize_kpi, write_ground_truth, write_kpi_csv)


def test_twin_and_coverage_do_not_import_each_other():
    """The twin and the grid share the link model and the CSV number text
    through propagation and _csvtext, not through each other."""
    src = Path(twin.__file__).parent
    for module, other in (("twin", "coverage"), ("coverage", "twin")):
        names = []
        for node in ast.walk(ast.parse((src / f"{module}.py").read_text())):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names += [base] + [f"{base}.{alias.name}" for alias in node.names]
        assert names and not [n for n in names if other in n.split(".")], module


def small_scenario(interferers=(), twin=None):
    sec = Sector(id="S1a", azimuth_deg=0.0, band_ref="n78", tx_power_dbm=43.0)
    sec2 = Sector(id="S2a", azimuth_deg=0.0, band_ref="n78", tx_power_dbm=43.0)
    return Scenario(
        name="small", area=Rect(0, 0, 2000, 2000), environment="UMa",
        sites=(Site("S1", (500.0, 1000.0), 25.0, (sec,)),
               Site("S2", (1500.0, 1000.0), 25.0, (sec2,))),
        interferers=tuple(interferers),
        bands=(Band("n78", 3.5, 10.0), Band("n257", 28.0, 10.0)),
        grid_resolution_m=100.0, seed=5,
        twin=twin or TwinConfig(rtwp_baseline_dbm=-102.0, load_offset_db=None,
                                measurement_noise_db=0.0))


def make_interferer(**kw):
    base = dict(id="J", position=(600.0, 1000.0), height_m=1.5,
                tx_power_dbm=20.0, band_ref="n78",
                active_intervals=((0.0, 1e9),))
    base.update(kw)
    return Interferer(**base)


def one_site_scenario(*interferers, height_m=25.0, **sector):
    """One site at the origin with one n78 sector "a", pointing north
    unless sector overrides it."""
    sec = Sector(**{"id": "a", "azimuth_deg": 0.0, "band_ref": "n78",
                    "tx_power_dbm": 43.0, **sector})
    return dataclasses.replace(
        small_scenario(interferers), area=Rect(-5000, -5000, 5000, 5000),
        sites=(Site("S", (0.0, 0.0), height_m, (sec,)),))


def test_interference_colocated_formula():
    sc = one_site_scenario(make_interferer(position=(0.0, 1.0)),
                           antenna_gain_dbi=17.0)
    pl = float(propagation.pathloss_db_clamped(1.0, 3.5, 25.0, 1.5, "UMa", "NLOS"))
    assert coupling_dbm(sc)[0, 0] == pytest.approx(20.0 - pl + 17.0)


def test_interference_decays_with_distance():
    near, far = coupling_dbm(one_site_scenario(
        make_interferer(position=(0.0, 200.0)),
        make_interferer(id="K", position=(0.0, 400.0))))[:, 0]
    assert far < near


def test_interference_band_filter():
    sc = one_site_scenario(make_interferer(band_ref="n257"))
    assert coupling_dbm(sc)[0, 0] == -math.inf


# --- coupling: the per-pair scalar reference ----------------------------------


def reference_interference_at_cell_dbm(interferer, site, sector, fc_ghz,
                                       environment="UMa"):
    """The scalar (interferer, sector) coupling coupling_dbm must match.

    NLOS pathloss from interferer to site, plus the sector antenna gain
    toward the interferer; another band gives -inf.
    """
    if interferer.band_ref != sector.band_ref:
        return -math.inf
    dx = interferer.position[0] - site.position[0]
    dy = interferer.position[1] - site.position[1]
    d2d = max(math.hypot(dx, dy), propagation.D2D_MIN_M)
    h_ut = min(max(interferer.height_m, propagation.H_UT_MIN_M), propagation.H_UT_MAX_M)
    pl = float(propagation.pathloss_db_clamped(
        d2d, fc_ghz, site.height_m, h_ut, environment, "NLOS"))
    pattern = propagation.AntennaPattern(sector.beamwidth_3db_deg, sector.front_to_back_db)
    gain = sector.antenna_gain_dbi - float(
        pattern.attenuation_db(propagation.bearing_deg(dx, dy) - sector.azimuth_deg))
    return interferer.tx_power_dbm - pl + gain


def reference_coupling(scenario):
    return np.array([[reference_interference_at_cell_dbm(
        intf, site, sec, scenario.band_by_id(sec.band_ref).center_freq_ghz,
        scenario.environment) for site, sec in scenario.sectors()]
        for intf in scenario.interferers])


def lattice_61():
    """61 sites on a 500 m hexagonal lattice, heights 10/25/45 m, three
    sectors each on two bands, and interferers on both bands: on a site,
    between sites, outside the lattice, at 1 m and above the UT range."""
    sites = []
    for q in range(-4, 5):
        for r in range(max(-4, -q - 4), min(4, -q + 4) + 1):
            k = len(sites)
            x, y = 500.0 * (q + r / 2.0), 500.0 * r * math.sqrt(3.0) / 2.0
            sectors = tuple(Sector(
                id=f"S{k:02d}_{j}", azimuth_deg=(120.0 * j + 7.0 * k) % 360.0,
                band_ref=("n78", "n1")[(k + j) % 2], tx_power_dbm=43.0,
                antenna_gain_dbi=15.0 + j, beamwidth_3db_deg=60.0 + 5.0 * j,
                front_to_back_db=20.0 + 5.0 * j) for j in range(3))
            sites.append(Site(f"S{k:02d}", (x, y), (10.0, 25.0, 45.0)[k % 3], sectors))
    interferers = (
        make_interferer(id="J0", position=(0.0, 0.0)),
        make_interferer(id="J1", position=(130.0, -410.0), height_m=1.0),
        make_interferer(id="J2", position=(-2210.0, 905.0), height_m=30.0,
                        band_ref="n1", tx_power_dbm=33.0),
        make_interferer(id="J3", position=(4600.0, 4700.0), band_ref="n1"),
        make_interferer(id="J4", position=(250.0, 433.0), band_ref="n257"))
    return Scenario(
        name="lattice-61", area=Rect(-5000, -5000, 5000, 5000), environment="UMi",
        sites=tuple(sites), interferers=interferers,
        bands=(Band("n78", 3.5, 10.0), Band("n1", 2.1, 10.0), Band("n257", 28.0, 10.0)),
        grid_resolution_m=100.0, seed=3)


@pytest.mark.parametrize("which", ["demo", "lattice"])
def test_coupling_matches_scalar_reference(demo_scenario, which):
    sc = demo_scenario if which == "demo" else lattice_61()
    got, want = coupling_dbm(sc), reference_coupling(sc)
    assert got.shape == want.shape == (len(sc.interferers), len(sc.sector_ids))
    off_band = np.isneginf(want)
    assert np.array_equal(np.isneginf(got), off_band)
    assert np.max(np.abs(got[~off_band] - want[~off_band])) <= 1e-9
    if which == "lattice":
        assert off_band.any() and not off_band.all()
        assert len(sc.sites) == 61


@pytest.mark.parametrize("environment", ["UMa", "UMi"])
@pytest.mark.parametrize("condition", ["LOS", "NLOS"])
def test_pathloss_per_receiver_height(environment, condition):
    """One height per receiver, broadcast against the distances, gives
    what one scalar call per receiver gives; a 1 m receiver has a zero
    breakpoint next to the others' positive ones."""
    d2d = np.array([0.5, 30.0, 150.0, 700.0, 2500.0, 12000.0, 400.0])
    h_bs = np.array([10.0, 25.0, 45.0, 10.0, 25.0, 45.0, 1.0])
    got = propagation.pathloss_db_clamped(d2d, 3.5, h_bs, 1.5, environment, condition)
    want = [float(propagation.pathloss_db_clamped(d, 3.5, h, 1.5, environment, condition))
            for d, h in zip(d2d, h_bs)]
    assert np.max(np.abs(got - want)) <= 1e-9


def test_one_metre_antennas_raise_no_warning():
    """At h_bs = h_ut = 1 m the breakpoint is 0 and the second slope's
    log10 argument would be 0: the first slope is taken, without a
    divide-by-zero warning, alone or next to a taller receiver."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = float(propagation.pathloss_db_clamped(100.0, 3.5, 1.0, 1.0, "UMa", "LOS"))
        mixed = propagation.pathloss_db_clamped(
            np.array([100.0, 100.0]), 3.5, np.array([1.0, 25.0]), 1.0, "UMi", "NLOS")
        coupled = coupling_dbm(one_site_scenario(
            make_interferer(position=(0.0, 100.0), height_m=1.0), height_m=1.0))
    assert one == pytest.approx(28.0 + 22.0 * math.log10(100.0) + 20.0 * math.log10(3.5))
    assert mixed[0] == float(propagation.pathloss_db_clamped(
        100.0, 3.5, 1.0, 1.0, "UMi", "NLOS"))
    assert np.isfinite(coupled).all()


def test_linear_sum_oracle():
    # -102 dBm baseline + one -95 dBm contribution = -94.21 dBm
    mixed = 10.0 * math.log10(10 ** -10.2 + 10 ** -9.5)
    assert mixed == pytest.approx(-94.21, abs=0.01)


def test_rtwp_composes_linearly():
    sc = small_scenario(interferers=[make_interferer()])
    batch = synthesize_kpi(sc, 600.0, 60.0)
    c = coupling_dbm(sc)[0, sc.sector_ids.index("S1a")]
    expected = 10.0 * math.log10(10 ** -10.2 + 10 ** (c / 10.0))
    assert np.allclose(batch.get("RTWP", "S1a").samples, expected)


def test_flat_series_without_interferers():
    batch = synthesize_kpi(small_scenario(), 600.0, 60.0)
    assert np.allclose(batch.get("RTWP", "S1a").samples, -102.0)


def test_rssi_includes_serving_traffic():
    batch = synthesize_kpi(small_scenario(), 600.0, 60.0)
    rssi = batch.get("RSSI", "S1a").samples
    rtwp = batch.get("RTWP", "S1a").samples
    assert np.all(rssi > rtwp)


def test_sample_count():
    batch = synthesize_kpi(small_scenario(), 3600.0, 60.0)
    assert batch.get("RTWP", "S1a").samples.size == 60
    with pytest.raises(InputError):
        synthesize_kpi(small_scenario(), 10.0, 60.0)


@pytest.mark.parametrize("duration, dt", [
    (math.nan, 60.0), (3600.0, math.nan), (math.inf, 60.0),
    (math.inf, math.inf), (3600.0, -math.inf), (3600.0, 0.0)])
def test_non_finite_or_empty_timing_rejected(duration, dt):
    with pytest.raises(InputError, match="finite"):
        synthesize_kpi(small_scenario(), duration, dt)


def test_deterministic_given_seed(demo_scenario):
    a = synthesize_kpi(demo_scenario, 1800.0, 60.0, seed=9)
    b = synthesize_kpi(demo_scenario, 1800.0, 60.0, seed=9)
    for cell in a.cells():
        assert np.array_equal(a.get("RTWP", cell).samples,
                              b.get("RTWP", cell).samples)


def test_nearest_cell_has_max_excess(demo_scenario, demo_batch):
    intf = demo_scenario.interferers[0]
    excess = batch_excess(demo_batch, 15)
    top = max(excess, key=lambda c: float(np.mean(excess[c])))
    site, _ = demo_scenario.sector_by_id(top)
    dmin = min(math.dist(s.position, intf.position)
               for s in demo_scenario.sites)
    assert math.dist(site.position, intf.position) == pytest.approx(dmin)


def test_excess_ordering_follows_distance(demo_scenario, demo_batch):
    intf = demo_scenario.interferers[0]
    excess = batch_excess(demo_batch, 15)
    by_site = {}
    for cell, e in excess.items():
        site, _ = demo_scenario.sector_by_id(cell)
        d = math.dist(site.position, intf.position)
        by_site.setdefault(d, []).append(float(np.mean(e)))
    dists = sorted(by_site)
    site_means = [float(np.mean(by_site[d])) for d in dists]
    # strict ordering holds where the contribution is resolvable; the
    # farthest sites sit in the noise floor
    strong = [m for m in site_means if m > 0.3]
    assert len(strong) >= 3
    assert all(a > b for a, b in zip(strong, strong[1:]))
    from scipy.stats import spearmanr
    assert spearmanr(site_means, dists).statistic < -0.8


def test_excess_flat_and_step():
    batch = synthesize_kpi(small_scenario(), 600.0, 60.0)
    e = batch_excess(batch, 5)["S1a"]
    assert np.allclose(e, 0.0)

    series = batch.get("RTWP", "S1a")
    series.samples = series.samples + np.where(np.arange(10) >= 5, 5.0, 0.0)
    e = batch_excess(batch, 5)["S1a"]
    assert np.allclose(e[5:], 5.0)
    with pytest.raises(InputError):
        batch_excess(batch, 10)


def test_kpi_csv_round_trip(tmp_path, demo_batch):
    p = tmp_path / "kpi.csv"
    write_kpi_csv(demo_batch, p)
    again = read_kpi_csv(p)
    assert again.cells() == demo_batch.cells()
    for cell in demo_batch.cells():
        a = demo_batch.get("RTWP", cell).samples
        b = again.get("RTWP", cell).samples
        assert np.allclose(a, b, atol=1e-4)
    assert again.ground_truth == []            # truth never rides the CSV


def test_kpi_csv_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,cell,metric,value\n0,a,RTWP,-100\n")
    with pytest.raises(InputError):
        read_kpi_csv(p)


def test_ground_truth_round_trip(tmp_path, demo_batch):
    p = tmp_path / "truth.json"
    write_ground_truth(demo_batch, p)
    truth = read_ground_truth(p)
    assert len(truth) == 1
    assert truth[0].interferer_id == "JAM1"
    assert truth[0].position == (5000.0, 4500.0)


# --- wire format: row-loop references ----------------------------------------


def reference_write_kpi_csv(batch, path):
    """The per-row writer write_kpi_csv must match byte for byte."""
    with open(path, "w", newline="") as fh:
        fh.write("timestamp_s,cell_id,metric,value_dbm\n")
        cells = batch.cells()
        metrics = [m for m in METRICS if m in batch.series]
        any_series = batch.get(metrics[0], cells[0])
        for i, ts in enumerate(any_series.timestamps):
            for metric in metrics:
                for cell in cells:
                    v = batch.get(metric, cell).samples[i]
                    fh.write(f"{ts:.1f},{cell},{metric},{v:.4f}\n")


def reference_read_kpi_csv(path):
    """float() per field through csv.DictReader: what read_kpi_csv must
    reproduce bitwise on every file it accepts."""
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault((row["metric"], row["cell_id"]), []).append(
                (float(row["timestamp_s"]), float(row["value_dbm"])))
    series = {}
    for (metric, cell), pairs in rows.items():
        pairs.sort()
        ts = np.array([p[0] for p in pairs])
        dt = float(ts[1] - ts[0]) if ts.size > 1 else 1.0
        series.setdefault(metric, {})[cell] = KpiSeries(
            cell, metric, float(ts[0]), dt, np.array([p[1] for p in pairs]))
    return KpiBatch(series=series)


def assert_batches_identical(a, b):
    assert list(a.series) == list(b.series)
    for metric in a.series:
        assert list(a.series[metric]) == list(b.series[metric])
        for cell, x in a.series[metric].items():
            y = b.series[metric][cell]
            assert (x.cell_id, x.metric) == (y.cell_id, y.metric)
            assert (x.t0_s, x.dt_s) == (y.t0_s, y.dt_s)
            assert x.samples.dtype == y.samples.dtype
            assert x.samples.tobytes() == y.samples.tobytes()


def edge_batch():
    """Values that print as -0.0000, magnitudes of 1000 dBm and more, a
    non-integer step and a non-zero start."""
    values = {
        ("RTWP", "B7"): [-0.00004, -1e-9, -0.0, 0.00005, -1234.56789, 1e4],
        ("RTWP", "A1"): [-101.23455, -101.23445, 999.99995, -1000.0, 0.0, -5e-5],
        ("RSSI", "B7"): [-99.5, -3000.125, -0.00001, 12345.6789, -7.77777, 1.0],
        ("RSSI", "A1"): [-98.00001, -0.0000499, 2.5, -2.5, 1000.00004, -60.0],
    }
    series = {}
    for (metric, cell), v in values.items():
        series.setdefault(metric, {})[cell] = KpiSeries(
            cell, metric, 7.5, 2.5, np.array(v))
    return KpiBatch(series=series)


@pytest.mark.parametrize("which", ["demo", "edge"])
def test_kpi_csv_writer_matches_row_loop(tmp_path, demo_batch, which):
    batch = demo_batch if which == "demo" else edge_batch()
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    reference_write_kpi_csv(batch, ref)
    write_kpi_csv(batch, new)
    assert new.read_bytes() == ref.read_bytes()
    if which == "edge":
        assert b",-0.0000\n" in ref.read_bytes()
        assert b",12345.6789\n" in ref.read_bytes()
    assert_batches_identical(read_kpi_csv(new), reference_read_kpi_csv(ref))


def spy_blocks(monkeypatch):
    """The list that collects the blocks the streaming KPI reader takes."""
    line_blocks, taken = twin._line_blocks, []

    def spy(*args):
        for block in line_blocks(*args):
            taken.append(block)
            yield block

    monkeypatch.setattr(twin, "_line_blocks", spy)
    return taken


def blocks_in(path) -> int:
    """The blocks a file splits into at the text kernel's block size."""
    with open(path, "rb") as fh:
        return len(list(_csvtext._line_blocks(fh, b"")))


def test_kpi_csv_writer_edges_across_blocks(tmp_path, monkeypatch):
    """%.4f near-ties, signed zeros, integer parts of 5 to 18 digits,
    non-finite values and timestamps past 10**5 s, in blocks of one row,
    of three and five rows (which split timesteps of four) and of all."""
    values = {
        ("RTWP", "A1"): [-101.23455, 999.99995, 0.00005, -0.0, -0.00004, np.nan],
        ("RTWP", "B7"): [12345.6789, -99999.99995, 1e17, -1e17, np.inf, -np.inf],
        ("RSSI", "A1"): [1e4, -1e4, 2.0 ** 52, 0.5, -2.5e-5, 4503599627.37049],
        ("RSSI", "B7"): [123456789.0123, -0.00005, 5e-5, 1e-300, -7.77777, 1.0],
    }
    series = {}
    for (metric, cell), v in values.items():
        series.setdefault(metric, {})[cell] = KpiSeries(
            cell, metric, 99_990.0, 2.5, np.array(v))
    batch = KpiBatch(series=series)
    ref = tmp_path / "ref.csv"
    reference_write_kpi_csv(batch, ref)
    kpi_rows, written = twin._kpi_rows, []

    def spy(*args):
        written.append(kpi_rows(*args))
        return written[-1]

    monkeypatch.setattr(twin, "_kpi_rows", spy)
    # 24 rows in blocks of 1, 3, 5 and 24 rows
    for block, blocks in ((1, 24), (100, 8), (170, 5), (1 << 20, 1)):
        monkeypatch.setattr(_csvtext, "_TEXT_BLOCK_BYTES", block)
        written.clear()
        write_kpi_csv(batch, tmp_path / f"new_{block}.csv")
        assert (tmp_path / f"new_{block}.csv").read_bytes() == ref.read_bytes()
        assert len(written) == blocks
    text = ref.read_bytes()
    for row in (b"99990.0,A1,RTWP,-101.2345\n", b"99992.5,A1,RTWP,1000.0000\n",
                b"100002.5,A1,RTWP,nan\n", b"100000.0,A1,RTWP,-0.0000\n",
                b"100002.5,B7,RTWP,-inf\n",
                b"99990.0,B7,RTWP,12345.6789\n", b"99992.5,B7,RTWP,-99999.9999\n",
                b"99995.0,B7,RTWP,100000000000000000.0000\n"):
        assert row in text


def test_kpi_csv_writer_memory_is_bounded_by_blocks(tmp_path):
    # 200,000 rows: the writer holds the stacked values and one block of text
    cells = [f"C{k:03d}" for k in range(50)]
    rng = np.random.default_rng(11)
    batch = KpiBatch(series={m: {c: KpiSeries(c, m, 0.0, 1.0, rng.normal(-100.0, 5.0, 2000))
                                 for c in cells} for m in METRICS})
    tracemalloc.start()
    try:
        write_kpi_csv(batch, tmp_path / "kpi.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000 * 8 + 3e6


@pytest.mark.parametrize("block", [1 << 20, 60, 150])
def test_kpi_csv_reader_number_forms(tmp_path, monkeypatch, block):
    """Plain numbers next to every other form float() reads (exponents,
    '+', no digit before or after the dot, no dot, leading zeros, more
    than 15 digits), in one block and across block boundaries: each
    parses bitwise as float() does."""
    values = ["-101.2345", "1e2", "+3.5", ".5", "5.", "100", "-0", "007.5", "-0.0",
              "-99.123456789012345678", "1.2345678901234567", "12345678901234.5",
              "123456789012345.6", "0.000000000000001", "-5.25", " -5.25", "1.5E-3", "-7.0"]
    stamps = {t: [f"{t:.1f}", f"{t:.2f}", f"{t:g}", f"{t:.1e}"] for t in (0.0, 60.0, 120.0, 180.0)}
    rows = [f"{stamps[t][k % 4]},{c},{m},{values[k % len(values)]}"
            for k, (t, m, c) in enumerate((t, m, c) for t in stamps for m in METRICS
                                          for c in ("A", "B7", "C12"))]
    p = tmp_path / "kpi.csv"
    p.write_text(_shuffle_rows("timestamp_s,cell_id,metric,value_dbm\n" + "\n".join(rows)))
    monkeypatch.setattr(_csvtext, "_TEXT_BLOCK_BYTES", block)
    assert (blocks_in(p) > 1) == (block < 1 << 20)
    assert_batches_identical(read_kpi_csv(p), reference_read_kpi_csv(p))


def test_kpi_csv_reader_plain_numbers_bitwise(tmp_path):
    # 1 to 17 digits with the dot anywhere between them, signed or not
    rng = np.random.default_rng(7)
    digits = ["".join(rng.choice(list("0123456789"), n)) for n in rng.integers(2, 18, 4000)]
    values = [("-" if rng.random() < 0.5 else "") + d[:k] + "." + d[k:]
              for d, k in ((d, int(rng.integers(1, len(d)))) for d in digits)]
    rows = [f"{60.0 * (i // 4):.1f},{'AB'[i % 2]},{METRICS[i // 2 % 2]},{v}"
            for i, v in enumerate(values)]
    p = tmp_path / "kpi.csv"
    p.write_text("timestamp_s,cell_id,metric,value_dbm\n" + "\n".join(rows) + "\n")
    assert_batches_identical(read_kpi_csv(p), reference_read_kpi_csv(p))


def test_kpi_csv_ids_with_nul_round_trip(tmp_path):
    # a NUL inside an id is written as is, and "A", "A\0" and "A\0\0" stay apart
    cells = ["A", "A\0", "A\0\0", "AAAAAAA\0B", "\0"]
    batch = KpiBatch(series={m: {c: KpiSeries(c, m, 0.0, 60.0, np.arange(3.0) + k)
                                 for k, c in enumerate(cells)} for m in METRICS})
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    reference_write_kpi_csv(batch, ref)
    write_kpi_csv(batch, new)
    assert new.read_bytes() == ref.read_bytes()
    assert_batches_identical(read_kpi_csv(new), reference_read_kpi_csv(ref))


def test_kpi_csv_metric_with_nul_is_unknown(tmp_path):
    # "RTWP\0" is its own key, not a second RTWP row
    p = tmp_path / "nul.csv"
    p.write_text("timestamp_s,cell_id,metric,value_dbm\n0.0,A,RTWP,-1.0\n" + "".join(
        r.replace(",A,RTWP,", ",A,RTWP\0,") + "\n" for r in GOOD_ROWS))
    with pytest.raises(InputError, match="unknown metric 'RTWP\\\\x00'"):
        read_kpi_csv(p)


@pytest.mark.parametrize("row,message", [
    ("0.0,B,RSSI,-1e2x", "bad KPI CSV number"),
    ("0.0,B,RSSI,-100.0,x", "exactly 4 fields"),
    ('0.0,"B",RSSI,-100.0', "quoted KPI CSV fields")], ids=["number", "fields", "quoted"])
def test_kpi_csv_row_error_names_its_line(tmp_path, row, message):
    # row 6 of the body is line 8 of the file, after the header and a blank line
    rows = GOOD_ROWS[:5] + ["", row] + GOOD_ROWS[6:]
    p = tmp_path / "bad.csv"
    p.write_text("timestamp_s,cell_id,metric,value_dbm\n" + "".join(r + "\n" for r in rows))
    with pytest.raises(InputError, match=message) as got:
        read_kpi_csv(p)
    assert f"{p}, line 8)" in str(got.value)


@pytest.mark.parametrize("tail", ["no_final_newline", "blank_blocks", "cut_in_stamp",
                                  "trailing_x", "trailing_spaces"])
def test_kpi_csv_reader_across_blocks(tmp_path, demo_batch, monkeypatch, tail):
    # blocks far smaller than the file; the last ones may hold no row at all,
    # or a fragment with no line end, comma or number of the writer's
    p = tmp_path / "kpi.csv"
    write_kpi_csv(demo_batch, p)
    data = p.read_bytes()
    last_row = data.rindex(b"\n", 0, -1) + 1
    p.write_bytes({"no_final_newline": data.rstrip(b"\n"),
                   "blank_blocks": data + b"\n" * 250,
                   "cut_in_stamp": data[:last_row + 2],
                   "trailing_x": data + b"x",
                   "trailing_spaces": data + b"  "}[tail])
    monkeypatch.setattr(_csvtext, "_TEXT_BLOCK_BYTES", 100)
    taken = spy_blocks(monkeypatch)
    if tail in ("no_final_newline", "blank_blocks"):
        assert_batches_identical(read_kpi_csv(p), reference_read_kpi_csv(p))
    else:
        with pytest.raises(InputError, match="exactly 4 fields"):
            read_kpi_csv(p)
    # hundreds of blocks, not the file in one block and its unended tail in another
    assert len(taken) > 100


def test_kpi_csv_reader_mixed_cell_id_lengths(tmp_path, monkeypatch):
    # ids of several lengths, one longer than a block, first seen in shuffled order
    cells = ["B", "A22", "L" * 3000, "A2", "C"]
    batch = KpiBatch(series={m: {c: KpiSeries(c, m, 0.0, 60.0, np.arange(5.0) - k)
                                 for k, c in enumerate(cells)} for m in METRICS})
    p = tmp_path / "kpi.csv"
    write_kpi_csv(batch, p)
    p.write_text(_shuffle_rows(p.read_text()))
    monkeypatch.setattr(_csvtext, "_TEXT_BLOCK_BYTES", 2000)
    assert blocks_in(p) > 1
    assert_batches_identical(read_kpi_csv(p), reference_read_kpi_csv(p))


def test_kpi_csv_reader_memory_with_one_long_cell_id(tmp_path):
    # the key arrays hold the key text, not every row padded to the longest id
    rows = kpi_rows(times=[60.0 * i for i in range(500)])
    p = tmp_path / "long.csv"
    p.write_text("timestamp_s,cell_id,metric,value_dbm\n"
                 + "".join(r + "\n" for r in rows) + f"0.0,{'L' * 5000},RTWP,-1.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="differ in length"):
            read_kpi_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _reorder_columns(text, order):
    lines = text.splitlines()
    return "\n".join(",".join(line.split(",")[i] for i in order)
                     for line in lines) + "\n"


def _shuffle_rows(text):
    header, *rows = text.splitlines()
    rows = list(np.random.default_rng(3).permutation(rows))
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("variant", ["crlf", "columns", "rows", "blank_tail"])
def test_kpi_csv_reader_accepts_dictreader_inputs(tmp_path, demo_batch, variant):
    p = tmp_path / "kpi.csv"
    write_kpi_csv(demo_batch, p)
    text = p.read_text()
    text = {"crlf": lambda s: s.replace("\n", "\r\n"),
            "columns": lambda s: _reorder_columns(s, (2, 3, 1, 0)),
            "rows": _shuffle_rows,
            "blank_tail": lambda s: s + "\n\n\r\n"}[variant](text)
    p.write_bytes(text.encode())
    assert_batches_identical(read_kpi_csv(p), reference_read_kpi_csv(p))


def kpi_rows(times=(0.0, 60.0, 120.0, 180.0)):
    return [f"{t:.1f},{c},{m},-100.0" for t in times for m in METRICS
            for c in ("A", "B")]


def _edit(rows, old, new=None):
    """rows with the row equal to old replaced by new, or dropped."""
    i = rows.index(old)
    return rows[:i] + ([new] if new else []) + rows[i + 1:]


GOOD_ROWS = kpi_rows()
MALFORMED = {
    "nan": _edit(GOOD_ROWS, "60.0,B,RSSI,-100.0", "60.0,B,RSSI,nan"),
    "inf": _edit(GOOD_ROWS, "0.0,A,RTWP,-100.0", "0.0,A,RTWP,-inf"),
    "unknown_metric": GOOD_ROWS + [f"{t:.1f},A,SINR,3.0"
                                   for t in (0.0, 60.0, 120.0, 180.0)],
    "duplicate": GOOD_ROWS + ["60.0,A,RTWP,-99.0"],
    "gap": kpi_rows(times=(0.0, 60.0, 180.0)),
    "uneven": kpi_rows(times=(0.0, 60.0, 130.0, 180.0)),
    "short_series": _edit(GOOD_ROWS, "180.0,B,RSSI,-100.0"),
    "late_start": _edit(GOOD_ROWS, "0.0,A,RTWP,-100.0", "240.0,A,RTWP,-100.0"),
    "missing_cell": [r for r in GOOD_ROWS if ",B,RSSI," not in r],
    "empty_cell": [r.replace(",A,", ",,") for r in GOOD_ROWS],
    "quoted": [r.replace(",A,", ',"A",') for r in GOOD_ROWS],
    "five_fields": _edit(GOOD_ROWS, "0.0,A,RSSI,-100.0", "0.0,A,RSSI,-100.0,x"),
    "three_fields": _edit(GOOD_ROWS, "0.0,A,RSSI,-100.0", "0.0,A,RSSI"),
    "no_rows": ["", ""],
    "not_a_number": _edit(GOOD_ROWS, "0.0,B,RTWP,-100.0", "0.0,B,RTWP,-1OO"),
    "two_dots": _edit(GOOD_ROWS, "0.0,B,RTWP,-100.0", "0.0,B,RTWP,-1.2.3"),
    "two_minus": _edit(GOOD_ROWS, "0.0,B,RTWP,-100.0", "0.0,B,RTWP,--5.0"),
    "minus_after_dot": _edit(GOOD_ROWS, "0.0,B,RTWP,-100.0", "0.0,B,RTWP,5.-1"),
    "bare_cr": [r.replace(",A,", ",A\rB,") for r in GOOD_ROWS],
    "minus_inside": _edit(GOOD_ROWS, "60.0,A,RSSI,-100.0", "1-2.0,A,RSSI,-100.0"),
    "underscore": _edit(GOOD_ROWS, "0.0,B,RTWP,-100.0", "0.0,B,RTWP,-1_00.0"),
}


def test_kpi_csv_good_rows_parse(tmp_path):
    p = tmp_path / "ok.csv"
    p.write_text("timestamp_s,cell_id,metric,value_dbm\n" + "\n".join(GOOD_ROWS))
    batch = read_kpi_csv(p)
    assert batch.cells() == ["A", "B"]
    assert batch.get("RSSI", "B").dt_s == 60.0


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_kpi_csv_reader_rejects(tmp_path, case):
    p = tmp_path / f"{case}.csv"
    p.write_text("timestamp_s,cell_id,metric,value_dbm\n"
                 + "".join(r + "\n" for r in MALFORMED[case]))
    with pytest.raises(InputError):
        read_kpi_csv(p)


# --- the streaming path against the general reader ----------------------------


def lattice_batch(steps, seed=19):
    """A 19-site, three-sector feed with the benchmark lattice's cell ids."""
    rng = np.random.default_rng(seed)
    cells = [f"S{i:02d}_{k}" for i in range(19) for k in (1, 2, 3)]
    return KpiBatch(series={m: {c: KpiSeries(c, m, 0.0, 1.0, rng.normal(-100.0, 3.0, steps))
                                for c in cells} for m in METRICS})


def id_batch(cells, steps=3):
    return KpiBatch(series={m: {c: KpiSeries(c, m, 0.0, 60.0, np.arange(steps) - k / 3)
                                for k, c in enumerate(cells)} for m in METRICS})


MIXED_IDS = ["A", "A\0", "AAAAAAA\0B", "\0", "C12", "L" * 20]   # keys of 1, 2 and 4 words


def width_batch(extra=()):
    """Values from 1e-4 to 1e11 in magnitude, both signs and -0.0, with
    integer parts of 1 to 11 digits (fields of one and of two words), and
    the extra values."""
    magnitudes = np.concatenate((10.0 ** np.linspace(-4, 10, 40), 10.0 ** np.arange(1, 12) - 0.5))
    values = np.concatenate((magnitudes, -magnitudes, [-0.0, 0.0], extra))
    return KpiBatch(series={m: {c: KpiSeries(c, m, 0.0, 1.0, np.roll(values, 7 * k + j))
                                for j, c in enumerate("AB")}
                            for k, m in enumerate(METRICS)})


def _first_steps(batch, steps):
    return KpiBatch(series={m: {c: dataclasses.replace(s, samples=s.samples[:steps])
                                for c, s in by_cell.items()}
                            for m, by_cell in batch.series.items()})


def _read_both(path, monkeypatch):
    """read_kpi_csv's outcome, the general reader's outcome on the same
    file, and whether read_kpi_csv reached the general reader (then the
    general reader's outcome is the one of that call)."""
    general, calls = twin._read_general, []

    def outcome(read):
        try:
            return read(path)
        except InputError as exc:
            return str(exc)

    def spy(p):
        calls.append(outcome(general))
        if isinstance(calls[-1], str):
            raise InputError(calls[-1])
        return calls[-1]

    monkeypatch.setattr(twin, "_read_general", spy)
    got = outcome(read_kpi_csv)
    monkeypatch.setattr(twin, "_read_general", general)
    return got, calls[0] if calls else outcome(general), bool(calls)


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert_batches_identical(got, want)


@pytest.mark.parametrize("which", ["demo", "lattice", "edge", "mixed_ids", "long_id",
                                   "one_step", "one_key", "widths"])
@pytest.mark.parametrize("block", [1 << 20, 50, 300])
def test_kpi_csv_writer_files_take_the_streaming_path(tmp_path, monkeypatch, demo_batch,
                                                      which, block):
    batch = {"demo": lambda: demo_batch,
             "lattice": lambda: lattice_batch(10),
             "edge": edge_batch,
             "mixed_ids": lambda: id_batch(MIXED_IDS),
             "long_id": lambda: id_batch(["B", "A22", "L" * 3000, "A2", "C"]),
             "one_step": lambda: _first_steps(demo_batch, 1),
             "one_key": lambda: KpiBatch(series={"RTWP": {"A": KpiSeries(
                 "A", "RTWP", 30.0, 0.5, np.arange(7.0))}}),
             "widths": width_batch}[which]()
    p = tmp_path / "kpi.csv"
    write_kpi_csv(batch, p)
    monkeypatch.setattr(_csvtext, "_TEXT_BLOCK_BYTES", block)
    taken = spy_blocks(monkeypatch)
    got, want, general = _read_both(p, monkeypatch)
    assert not general
    # a file of one timestep is read whole with its keys
    assert (len(taken) > 1) == (which != "one_step" and p.stat().st_size > block)
    assert_same_outcome(got, want)
    assert_batches_identical(got, reference_read_kpi_csv(p))


def test_kpi_csv_values_of_16_digits_take_the_general_reader(tmp_path, monkeypatch):
    # from 1e11 on, '%.4f' prints 16 digits or more, which the streaming path leaves alone
    p = tmp_path / "kpi.csv"
    write_kpi_csv(width_batch(extra=[1e11, -123456789012.3456]), p)
    assert b",100000000000.0000\n" in p.read_bytes()
    got, want, general = _read_both(p, monkeypatch)
    assert general
    assert_batches_identical(got, reference_read_kpi_csv(p))


def test_kpi_csv_streaming_path_stops_at_the_first_foreign_block(tmp_path, monkeypatch):
    # a row-shuffled copy with the writer's header: the first block already
    # differs from the rendering, so no later block is read
    p = tmp_path / "kpi.csv"
    write_kpi_csv(lattice_batch(400), p)
    p.write_text(_shuffle_rows(p.read_text()))
    monkeypatch.setattr(_csvtext, "_TEXT_BLOCK_BYTES", 1000)
    assert p.stat().st_size > 1 << 20
    taken = spy_blocks(monkeypatch)
    got, want, general = _read_both(p, monkeypatch)
    assert general and len(taken) == 1 and len(taken[0]) < 2000
    assert_same_outcome(got, want)


_NUMBER_FORMS = [b"1e2", b"+3.5", b".5", b"5.", b"-100", b"1.5E-3", b"nan", b"-inf",
                 b"-99.1234567890123456", b"1234567890123456.5", b"12345678901234.56"]
_BYTES = b"0123456789.-+eEx ,\n\r\"\0\xff"
_PLAIN = re.compile(rb"-?[0-9]+\.[0-9]+")


@pytest.mark.parametrize("case", sorted(MALFORMED) + ["not_utf8", "other_cell",
                                                     "other_metric"])
def test_kpi_csv_errors_are_the_general_readers(tmp_path, monkeypatch, case):
    # most cases keep the writer's layout in every row, as do the two added
    # here, once each value is printed as the writer prints it
    rows = MALFORMED.get(case, GOOD_ROWS)
    text = "timestamp_s,cell_id,metric,value_dbm\n" + "".join(r + "\n" for r in rows)
    text = text.replace(".0\n", ".0000\n").encode()
    if case == "not_utf8":
        text = text.replace(b",A,", b",\xff,")
    elif case == "other_cell":
        text = text.replace(b",B,RSSI,", b",C,RSSI,")
    elif case == "other_metric":
        text = text.replace(b",RSSI,", b",SINR,")
    p = tmp_path / "kpi.csv"
    p.write_bytes(text)
    got, want, _ = _read_both(p, monkeypatch)
    assert isinstance(want, str)
    assert got == want


MUTATIONS = ["swap", "drop", "duplicate", "stamp_byte", "key_byte", "value_byte",
             "number_form", "value_zero", "crlf", "cr_line", "blank", "columns",
             "truncate", "step_swap", "step_duplicate", "key_twice", "none"]


def _mutate(data: bytes, rng):
    """One seeded edit of a KPI CSV in the writer's layout: its kind, the
    edited file, and whether the file still has that layout."""
    header, *rows = data.split(b"\n")[:-1]
    cycle = sum(row.split(b",")[0] == rows[0].split(b",")[0] for row in rows)
    i, j = (int(x) for x in rng.choice(len(rows), 2, replace=False))
    steps = [rows[s:s + cycle] for s in range(0, len(rows), cycle)]
    s, u = (int(x) for x in rng.choice(len(steps), 2, replace=False))
    kind = str(rng.choice(MUTATIONS))
    keeps = kind == "none"
    if kind == "step_swap":
        steps[s], steps[u] = steps[u], steps[s]
        rows = sum(steps, [])
    elif kind == "step_duplicate":
        rows = sum(steps[:s + 1] + steps[s:], [])
    elif kind == "key_twice":           # one key twice in every timestep
        k = int(rng.integers(cycle))
        rows = sum((step[:k + 1] + step[k:] for step in steps), [])
    elif kind == "swap":
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "drop":
        del rows[i]
    elif kind == "duplicate":
        rows.insert(j, rows[i])
    elif kind.endswith("_byte"):
        fields = rows[i].split(b",")
        k = {"stamp_byte": 0, "key_byte": int(rng.integers(1, 3)), "value_byte": 3}[kind]
        pos = int(rng.integers(len(fields[k])))
        byte = bytes([rng.choice([b for b in _BYTES if b != fields[k][pos]])])
        fields[k] = fields[k][:pos] + byte + fields[k][pos + 1:]
        rows[i] = b",".join(fields)
        # the writer's %.4f of a value of at most 15 digits
        keeps = (k == 3 and _PLAIN.fullmatch(fields[3]) is not None
                 and len(fields[3].lstrip(b"-")) <= 16
                 and fields[3] == b"%.4f" % float(fields[3]))
    elif kind == "number_form":
        fields = rows[i].split(b",")
        rows[i] = b",".join(fields[:3] + [_NUMBER_FORMS[int(rng.integers(len(_NUMBER_FORMS)))]])
    elif kind == "value_zero":          # a plain number the writer does not print
        stamp, cell, metric, value = rows[i].split(b",")
        sign, digits = value[:value.startswith(b"-")], value.lstrip(b"-")
        value = value + b"0" if rng.random() < 0.5 else sign + b"0" + digits
        rows[i] = b",".join((stamp, cell, metric, value))
    elif kind == "crlf":
        header, rows = header + b"\r", [row + b"\r" for row in rows]
    elif kind == "cr_line":
        rows[i] += b"\r"
    elif kind == "blank":
        rows.insert(i, b"")
    elif kind == "columns":
        order = [int(x) for x in rng.permutation(4)]
        if order == [0, 1, 2, 3]:
            order = [3, 2, 1, 0]
        header, *rows = (b",".join(line.split(b",")[c] for c in order)
                         for line in [header, *rows])
    elif kind == "truncate":
        del rows[len(rows) - int(rng.integers(1, cycle)):]
    return kind, b"".join(line + b"\n" for line in [header, *rows]), keeps


@pytest.mark.parametrize("feed,part", [("demo", k) for k in range(6)]
                         + [("lattice", k) for k in range(2)] + [("ids", 0)])
def test_kpi_csv_streaming_path_equals_general_reader_on_mutations(
        tmp_path, monkeypatch, demo_batch, feed, part):
    """Seeded edits of the writer's files, read in blocks of 50 to 300
    bytes, which split timesteps and key cycles: read_kpi_csv gives the
    general reader's batch or its error text, and reaches the general
    reader exactly when an edit breaks the writer's layout."""
    batch = {"demo": lambda: _first_steps(demo_batch, 2), "lattice": lambda: lattice_batch(2),
             "ids": lambda: id_batch(MIXED_IDS)}[feed]()
    p = tmp_path / "kpi.csv"
    write_kpi_csv(batch, p)
    data = p.read_bytes()
    rng = np.random.default_rng([part, ("demo", "lattice", "ids").index(feed)])
    kinds, taken, most = set(), spy_blocks(monkeypatch), 0
    for _ in range(250):
        kind, text, keeps = _mutate(data, rng)
        p.write_bytes(text)
        monkeypatch.setattr(_csvtext, "_TEXT_BLOCK_BYTES", int(rng.integers(50, 301)))
        taken.clear()
        got, want, general = _read_both(p, monkeypatch)
        assert_same_outcome(got, want)
        assert general != keeps, kind
        kinds.add(kind)
        most = max(most, len(taken))
    assert kinds == set(MUTATIONS)
    assert most > 1


def test_activity_mask_matches_active_at():
    intf = make_interferer(active_intervals=((60.0, 180.0), (95.5, 130.2),
                                             (300.0, 330.0), (840.0, 1e9)))
    sc = small_scenario(interferers=[intf])
    series = synthesize_kpi(sc, 900.0, 30.0).get("RTWP", "S1a")
    active = series.samples > -102.0 + 1e-6
    expected = np.array([intf.active_at(t) for t in series.timestamps])
    assert np.array_equal(active, expected)
    # starts are inside their interval, ends outside
    t = list(series.timestamps)
    assert active[t.index(60.0)] and not active[t.index(180.0)]
    assert active[t.index(300.0)] and not active[t.index(330.0)]
