"""Coverage grid: antenna pattern, best server, RSSI/SINR, throughput, CSV."""

import dataclasses
import filecmp
import tracemalloc

import numpy as np
import pytest

from rfplan import _csvtext, coverage, propagation
from rfplan.coverage import (CoverageGrid, _pixel_centers, compute_grid, compute_grids,
                             grid_summary, throughput_mbps, write_grid_csv)
from rfplan.detect import run_detection
from rfplan.errors import InputError
from rfplan.mitigate import Recommendation, apply, recommend
from rfplan.planning import noise_floor_dbm
from rfplan.propagation import AntennaPattern, bearing_deg
from rfplan.scenario import Band, Interferer, Rect, Scenario, Sector, Site


def isolated_scenario(**kw):
    sec = Sector(id="S1a", azimuth_deg=0.0, band_ref="n78", tx_power_dbm=43.0,
                 antenna_gain_dbi=17.0, beamwidth_3db_deg=65.0,
                 front_to_back_db=25.0)
    base = dict(
        name="single", area=Rect(0, 0, 2000, 2000), environment="UMa",
        sites=(Site("S1", (1000.0, 1000.0), 25.0, (sec,)),),
        interferers=(), bands=(Band("n78", 3.5, 100.0),),
        grid_resolution_m=100.0, seed=3)
    base.update(kw)
    return Scenario(**base)


def test_pattern_boresight_and_3db_point():
    p = AntennaPattern(beamwidth_3db_deg=65.0, front_to_back_db=25.0)
    assert float(p.attenuation_db(0.0)) == 0.0
    assert float(p.attenuation_db(65.0 / 2)) == pytest.approx(3.0)
    assert float(p.attenuation_db(-65.0 / 2)) == pytest.approx(3.0)


def test_pattern_back_lobe_capped():
    p = AntennaPattern(beamwidth_3db_deg=65.0, front_to_back_db=25.0)
    assert float(p.attenuation_db(180.0)) == 25.0
    assert float(p.attenuation_db(540.0)) == 25.0     # wraps


def test_mod360_is_the_float_remainder_bitwise():
    """Uniform values in [-360, 720), their 1-ulp neighbours and the edges,
    among them tiny negatives whose + 360 rounds to 360.0."""
    u = np.random.default_rng(13).uniform(-360.0, 720.0, 1_000_000)
    edges = np.array([-360.0, -0.0, 0.0, 360.0, np.nextafter(720.0, 0.0), -5e-324,
                      -1e-300, -1e-14, -2.8e-14, -5.6e-14, np.nextafter(0.0, -1.0),
                      np.nextafter(-360.0, 0.0), np.nextafter(360.0, 0.0),
                      np.nextafter(360.0, 720.0), 180.0, -180.0])
    for a in (u, np.nextafter(u, np.inf), np.nextafter(u, -np.inf), edges):
        assert a.min() >= -360.0 and a.max() < 720.0
        ref = np.remainder(a, 360.0)
        assert propagation._mod360(a.copy()).tobytes() == ref.tobytes()


@pytest.mark.parametrize("value", [720.0, np.nextafter(-360.0, -np.inf), 1e6,
                                   -1e6, np.inf, -np.inf, np.nan])
def test_mod360_outside_its_range_takes_the_remainder(value):
    # one such value sends the whole array through np.remainder
    a = np.array([-0.0, 10.0, -1e-14, 400.0, value])
    with np.errstate(invalid="ignore"):
        ref = np.remainder(a, 360.0)
        got = propagation._mod360(a.copy())
    assert got.tobytes() == ref.tobytes()


def test_pattern_and_bearing_match_their_remainder_forms():
    r = np.random.default_rng(17)
    delta = np.concatenate([r.uniform(-900.0, 900.0, 5000), [540.0, -540.0, 0.0]])
    bw, ftb = r.uniform(10.0, 120.0, delta.size), r.uniform(5.0, 30.0, delta.size)
    for p in (AntennaPattern(65.0, 25.0), AntennaPattern(bw, ftb)):
        ref = np.minimum(12.0 * (np.abs((delta + 180.0) % 360.0 - 180.0)
                                 / p.beamwidth_3db_deg) ** 2, p.front_to_back_db)
        assert p.attenuation_db(delta).tobytes() == ref.tobytes()
    dx, dy = r.normal(0.0, 500.0, (2, 80, 60))
    ref = np.degrees(np.arctan2(dx, dy)) % 360.0
    assert bearing_deg(dx, dy).tobytes() == ref.tobytes()
    assert isinstance(AntennaPattern(65.0, 25.0).attenuation_db(540.0), np.float64)
    # a scalar offset broadcasts against a pattern per sector
    ref = np.minimum(12.0 * (40.0 / bw) ** 2, ftb)
    assert AntennaPattern(bw, ftb).attenuation_db(400.0).tobytes() == ref.tobytes()


def test_bearing_convention():
    assert bearing_deg(0.0, 1.0) == 0.0        # due north
    assert bearing_deg(1.0, 0.0) == 90.0       # due east
    assert bearing_deg(0.0, -1.0) == 180.0
    assert bearing_deg(-1.0, 0.0) == 270.0


def test_throughput_oracle():
    # 100 MHz * log2(1 + 10^0.905) = 317.5 Mbps, below the 500 cap
    assert throughput_mbps(9.05, 100.0, 500.0) == pytest.approx(317.5, abs=0.1)


def test_throughput_cap_binds():
    assert throughput_mbps(40.0, 400.0, 1000.0) == 1000.0
    assert throughput_mbps(60.0, 100.0, 500.0) == 500.0


def test_throughput_floor():
    assert throughput_mbps(-10.0, 100.0, 500.0) > 0.0      # at the floor
    assert throughput_mbps(-10.01, 100.0, 500.0) == 0.0    # below it
    with pytest.raises(ValueError):
        throughput_mbps(10.0, 100.0, 0.0)


def test_isolated_sector_sinr_is_snr():
    # one sector, no interferer: SINR = S - noise floor everywhere
    grid = compute_grid(isolated_scenario(), interferers_active=False)
    noise = -174.0 + 10 * np.log10(100e6) + 7.0
    assert np.allclose(grid.sinr_db, grid.rsrp_dbm - noise)


def test_interferer_toggle_never_raises_sinr(demo_scenario, demo_grid,
                                             demo_grid_off):
    assert np.all(demo_grid.sinr_db <= demo_grid_off.sinr_db + 1e-9)
    assert np.any(demo_grid.sinr_db < demo_grid_off.sinr_db - 1.0)


def test_footprint_shrinks_at_28ghz(demo_scenario):
    def swap(band):
        sites = tuple(
            dataclasses.replace(s, sectors=tuple(
                dataclasses.replace(x, band_ref=band) for x in s.sectors))
            for s in demo_scenario.sites)
        return dataclasses.replace(demo_scenario, sites=sites, interferers=())

    fp35 = int(np.sum(compute_grid(swap("n78"), False).rssi_dbm >= -95.0))
    fp28 = int(np.sum(compute_grid(swap("n257"), False).rssi_dbm >= -95.0))
    assert fp28 < fp35


def test_summary_envelope(demo_grid):
    s = grid_summary(demo_grid)
    assert -100.0 <= s["overall"]["rssi_dbm"]["mean"] <= -80.0
    for stats in (s["overall"]["rssi_dbm"], s["overall"]["sinr_db"],
                  s["overall"]["throughput_mbps"]):
        assert stats["p5"] <= stats["p50"] <= stats["p95"]
    assert 0.0 < s["covered_fraction"] <= 1.0
    assert set(s["bands"]) == {"n78"}          # demo serves on one band


def test_summary_uniform_grid(demo_grid):
    flat = dataclasses.replace(
        demo_grid,
        rssi_dbm=np.full_like(demo_grid.rssi_dbm, -90.0),
        covered=np.ones_like(demo_grid.covered, dtype=bool))
    s = grid_summary(flat)
    assert s["overall"]["rssi_dbm"]["mean"] == -90.0
    assert s["overall"]["rssi_dbm"]["p50"] == -90.0


def test_best_server_tie_breaks_to_lower_id():
    # two identical co-located sectors: argmax keeps the first (sorted) id
    sec1 = Sector(id="Aa", azimuth_deg=0.0, band_ref="n78", tx_power_dbm=43.0)
    sec2 = Sector(id="Ab", azimuth_deg=0.0, band_ref="n78", tx_power_dbm=43.0)
    sc = isolated_scenario(sites=(Site("A", (1000.0, 1000.0), 25.0,
                                       (sec2, sec1)),))
    grid = compute_grid(sc, interferers_active=False)
    # identical RNG streams differ per sector id, so only assert the
    # index mapping is consistent
    assert grid.sector_ids == ["Aa", "Ab"]
    assert set(np.unique(grid.best_server)) <= {0, 1}


def test_grid_csv_deterministic(tmp_path, demo_scenario):
    paths = []
    for run, workers in (("a", 1), ("b", 1), ("c", 4)):
        grid = compute_grid(demo_scenario, interferers_active=True,
                            n_workers=workers)
        p = tmp_path / f"grid_{run}.csv"
        write_grid_csv(grid, p)
        paths.append(p)
    assert filecmp.cmp(paths[0], paths[1], shallow=False)
    assert filecmp.cmp(paths[0], paths[2], shallow=False)


def test_grid_csv_shape(tmp_path, demo_grid):
    p = tmp_path / "g.csv"
    write_grid_csv(demo_grid, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "x_m,y_m,best_server,rssi_dbm,sinr_db,throughput_mbps"
    assert len(lines) == 1 + demo_grid.x_m.size * demo_grid.y_m.size


def reference_grid_csv(grid, path):
    """The per-pixel f-string writer that write_grid_csv must match byte for byte."""
    ids = np.asarray(grid.sector_ids, dtype=object)[grid.best_server]
    with open(path, "w", newline="") as fh:
        fh.write("x_m,y_m,best_server,rssi_dbm,sinr_db,throughput_mbps\n")
        for iy in range(grid.y_m.size):
            for ix in range(grid.x_m.size):
                fh.write(f"{grid.x_m[ix]:.2f},{grid.y_m[iy]:.2f},{ids[iy, ix]},"
                         f"{grid.rssi_dbm[iy, ix]:.2f},{grid.sinr_db[iy, ix]:.2f},"
                         f"{grid.throughput_mbps[iy, ix]:.2f}\n")


@pytest.mark.parametrize("which", ["demo", "interleaved"])
def test_grid_csv_matches_reference(tmp_path, demo_grid, which):
    grid = demo_grid if which == "demo" else compute_grid(interleaved_scenario())
    write_grid_csv(grid, tmp_path / "got.csv")
    reference_grid_csv(grid, tmp_path / "ref.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def edge_grid():
    """%.2f near-ties, values that print as -0.00, coordinates of 10 km
    and more, huge and non-finite values, and sector ids of three widths."""
    x = np.array([0.125, 2.675, 10000.005, 12345.675, -0.001])
    y = np.array([-0.001, 0.125, 99999.995])
    values = np.array([0.125, 2.675, 1.005, -0.005, -0.001, -0.0, 1e17, -1e17,
                       np.nan, np.inf, -np.inf, 12345.675, 0.015, -1234567.125,
                       45035996273.70495])
    rng = np.random.default_rng(5)
    field = [rng.permutation(values).reshape(3, 5) for _ in range(3)]
    return CoverageGrid(
        x_m=x, y_m=y, resolution_m=25.0, sector_ids=["A", "Bb", "LONG_SECTOR_7"],
        sector_band=["n78", "n78", "n1"], best_server=rng.integers(0, 3, (3, 5)),
        rsrp_dbm=field[0], rssi_dbm=field[0], sinr_db=field[1],
        throughput_mbps=field[2], covered=np.ones((3, 5), dtype=bool))


@pytest.mark.parametrize("block", [1, 900, 1 << 20])
def test_grid_csv_edges_match_reference(tmp_path, monkeypatch, block):
    # one, two or all grid rows per block
    monkeypatch.setattr(_csvtext, "_TEXT_BLOCK_BYTES", block)
    lines, written = coverage._lines, []

    def spy(columns):
        written.append(lines(columns))
        return written[-1]

    monkeypatch.setattr(coverage, "_lines", spy)
    grid = edge_grid()
    write_grid_csv(grid, tmp_path / "got.csv")
    assert len(written) == {1: 3, 900: 2, 1 << 20: 1}[block]     # of the 3 grid rows
    reference_grid_csv(grid, tmp_path / "ref.csv")
    ref = (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "got.csv").read_bytes() == ref
    assert b",-0.00," in ref and b"\n12345.67,99999.99," in ref
    assert b",nan" in ref and b",-inf" in ref


def test_serving_mask_partition(demo_grid):
    total = np.zeros(demo_grid.shape, dtype=int)
    for sec in demo_grid.sector_ids:
        total += demo_grid.serving_mask([sec]).astype(int)
    assert np.all(total == 1)


def test_grid_rejects_worker_count_below_one(demo_scenario):
    for n in (0, -3):
        with pytest.raises(InputError):
            compute_grid(demo_scenario, n_workers=n)


# --- reference: the stacked per-sector grid --------------------------------
# compute_grid reduces one location's fields at a time; these two functions
# are the implementation it replaced, which stacked every sector's power map
# into an (S, ny, nx) array. The grid must match them bit for bit.

def _reference_field(scenario, X, Y, tx_id, position, height_m,
                     tx_power_dbm, fc_ghz, gain_dbi=0.0, pattern=None,
                     azimuth_deg=0.0):
    env = scenario.environment
    h_ut = scenario.ut_profile.height_m
    dx = X - position[0]
    dy = Y - position[1]
    d2d = np.maximum(np.hypot(dx, dy), propagation.D2D_MIN_M)

    p_los = propagation.los_probability(d2d, h_ut, env)
    # the LOS draw (stream 2) and the shadow draw (stream 1) of the id
    u = propagation.keyed_rng(scenario.seed, tx_id, 2).random(d2d.size)
    los = u.reshape(d2d.shape) < p_los
    h_bs = max(height_m, 1.0)
    pl_los = propagation.pathloss_db_clamped(d2d, fc_ghz, h_bs, h_ut, env, "LOS")
    pl_nlos = propagation.pathloss_db_clamped(d2d, fc_ghz, h_bs, h_ut, env, "NLOS")
    pl = np.where(los, pl_los, pl_nlos)

    sf_std = propagation.keyed_rng(scenario.seed, tx_id, 1).standard_normal(d2d.size)
    sf_std = sf_std.reshape(d2d.shape)
    sigma_los = propagation.DEFAULT_SIGMA_SF_DB[(env, "LOS")]
    sigma_nlos = propagation.DEFAULT_SIGMA_SF_DB[(env, "NLOS")]
    sf = sf_std * np.where(los, sigma_los, sigma_nlos)

    power = tx_power_dbm + gain_dbi - pl - sf
    if pattern is not None:
        # bearing_deg and attenuation_db as they were first written, with
        # numpy's float remainder: the grid's own wrap must match it
        bearing = np.degrees(np.arctan2(dx, dy)) % 360.0
        d = np.abs((bearing - azimuth_deg + 180.0) % 360.0 - 180.0)
        power = power - np.minimum(12.0 * (d / pattern.beamwidth_3db_deg) ** 2,
                                   pattern.front_to_back_db)
    return power - scenario.ut_profile.body_loss_db


def reference_grid(scenario, interferers_active):
    x, y = _pixel_centers(scenario.area, scenario.grid_resolution_m)
    X, Y = np.meshgrid(x, y)

    sectors = sorted(((site, sec) for site, sec in scenario.sectors()),
                     key=lambda p: p[1].id)
    sector_ids = [sec.id for _, sec in sectors]
    band_ids = [b.id for b in scenario.bands]
    band_index = {b: i for i, b in enumerate(band_ids)}
    sector_band = [sec.band_ref for _, sec in sectors]

    fields = []
    for site, sec in sectors:
        band = scenario.band_by_id(sec.band_ref)
        pattern = AntennaPattern(sec.beamwidth_3db_deg, sec.front_to_back_db)
        fields.append(_reference_field(
            scenario, X, Y, sec.id, site.position, site.height_m,
            sec.tx_power_dbm, band.center_freq_ghz, gain_dbi=sec.antenna_gain_dbi,
            pattern=pattern, azimuth_deg=sec.azimuth_deg))
    ext_fields = [_reference_field(
        scenario, X, Y, intf.id, intf.position, intf.height_m,
        intf.tx_power_dbm, scenario.band_by_id(intf.band_ref).center_freq_ghz)
        for intf in scenario.interferers]

    power_dbm = np.stack(fields)                      # (S, ny, nx)
    power_lin = 10.0 ** (power_dbm / 10.0)

    band_signal_lin = np.zeros((len(band_ids),) + X.shape)
    for s, band_ref in enumerate(sector_band):
        band_signal_lin[band_index[band_ref]] += power_lin[s]

    band_ext_lin = np.zeros_like(band_signal_lin)
    if interferers_active:
        for intf, f in zip(scenario.interferers, ext_fields):
            band_ext_lin[band_index[intf.band_ref]] += 10.0 ** (f / 10.0)

    noise_lin = np.array([
        10.0 ** (noise_floor_dbm(b.bandwidth_mhz,
                                 scenario.ut_profile.noise_figure_db) / 10.0)
        for b in scenario.bands])

    best = np.argmax(power_dbm, axis=0)               # first max = lowest id
    rsrp = np.take_along_axis(power_dbm, best[None], axis=0)[0]
    s_lin = 10.0 ** (rsrp / 10.0)

    serving_band = np.asarray([band_index[b] for b in sector_band])[best]
    tot_lin = np.take_along_axis(band_signal_lin, serving_band[None], axis=0)[0]
    ext_lin = np.take_along_axis(band_ext_lin, serving_band[None], axis=0)[0]
    n_lin = noise_lin[serving_band]

    rssi = 10.0 * np.log10(tot_lin + ext_lin + n_lin)
    interference_lin = np.maximum(tot_lin - s_lin, 0.0) + ext_lin + n_lin
    sinr = rsrp - 10.0 * np.log10(interference_lin)

    bw = np.asarray([b.bandwidth_mhz for b in scenario.bands])[serving_band]
    caps = np.asarray([1e12 if b.throughput_cap_mbps is None else b.throughput_cap_mbps
                       for b in scenario.bands])[serving_band]
    tput = throughput_mbps(sinr, bw, caps)

    return CoverageGrid(
        x_m=x, y_m=y, resolution_m=scenario.grid_resolution_m,
        sector_ids=sector_ids, sector_band=sector_band, best_server=best,
        rsrp_dbm=rsrp, rssi_dbm=rssi, sinr_db=sinr, throughput_mbps=tput,
        covered=rsrp >= -110.0)


def assert_matches_reference(scenario, interferers_active, n_workers):
    got = compute_grid(scenario, interferers_active, n_workers=n_workers)
    assert_same_grid(got, reference_grid(scenario, interferers_active))


def assert_same_grid(got, ref):
    assert got.sector_ids == ref.sector_ids
    assert got.sector_band == ref.sector_band
    assert got.resolution_m == ref.resolution_m
    for name in ("x_m", "y_m", "best_server", "rsrp_dbm", "rssi_dbm",
                 "sinr_db", "throughput_mbps", "covered"):
        a, b = getattr(got, name), getattr(ref, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def interleaved_scenario(interferers=()):
    """Site P holds sectors a, c and e, site Q holds b and d, so the
    sorted-id reduction alternates sites and sums band n78 in another order
    than the scenario lists it; P's sectors sit on two frequencies, and the
    25 x 20 px grid is not a multiple of any SIMD width."""
    def sector(sid, azimuth, band):
        return Sector(id=sid, azimuth_deg=azimuth, band_ref=band,
                      tx_power_dbm=40.0)
    return Scenario(
        name="interleaved", area=Rect(0, 0, 1230, 970), environment="UMi",
        sites=(Site("P", (400.0, 500.0), 20.0,
                    (sector("c", 200.0, "n78"), sector("a", 30.0, "n77"),
                     sector("e", 320.0, "n78"))),
               Site("Q", (900.0, 450.0), 30.0,
                    (sector("b", 270.0, "n78"), sector("d", 90.0, "n78")))),
        interferers=tuple(interferers),
        bands=(Band("n78", 3.5, 100.0), Band("n77", 3.9, 40.0, "TDD", 150.0)),
        grid_resolution_m=50.0, seed=11)


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("active", [True, False])
def test_grid_matches_reference_demo(demo_scenario, active, workers):
    assert_matches_reference(demo_scenario, active, workers)


def test_grid_matches_reference_after_mitigation(demo_scenario, demo_batch):
    detection = run_detection(demo_batch, 15, k=2, seed=demo_scenario.seed)
    post = apply(demo_scenario, recommend(demo_scenario, detection))
    # co-sited sectors now sit on two frequencies
    assert any(len({sec.band_ref for sec in site.sectors}) > 1
               for site in post.sites)
    assert_matches_reference(post, True, 1)


@pytest.mark.parametrize("workers", [1, 3])
def test_grid_matches_reference_interleaved_ids(workers):
    assert_matches_reference(interleaved_scenario(), True, workers)


@pytest.mark.parametrize("active", [True, False])
def test_grid_matches_reference_with_interferers(active):
    sc = interleaved_scenario(interferers=(
        Interferer("J1", (600.0, 300.0), 1.5, 20.0, "n78", ((0.0, 1e9),)),
        Interferer("J2", (1100.0, 800.0), 1.5, 25.0, "n77", ((0.0, 1e9),))))
    assert_matches_reference(sc, active, 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_matches_reference_with_azimuths_outside_a_turn(monkeypatch, workers):
    """Azimuths a scenario file may not hold, built directly: at 600 and
    -200 degrees the pattern's wrap input leaves [-360, 720) and takes
    np.remainder inside the grid; 400 and -30 stay on the fast path."""
    sc = interleaved_scenario(JAMMERS)
    azimuths = {"a": 600.0, "b": -200.0, "c": 400.0, "d": -30.0}
    sc = dataclasses.replace(sc, sites=tuple(
        dataclasses.replace(site, sectors=tuple(
            dataclasses.replace(sec, azimuth_deg=azimuths.get(sec.id, sec.azimuth_deg))
            for sec in site.sectors))
        for site in sc.sites))
    wrapped, mod360 = [], propagation._mod360

    def spy(a):
        wrapped.append(-360.0 <= a.min() and a.max() < 720.0)
        return mod360(a)

    monkeypatch.setattr(propagation, "_mod360", spy)
    assert_matches_reference(sc, True, workers)
    assert True in wrapped and False in wrapped


# --- shared passes: compute_grids against separate compute_grid calls -----

JAMMERS = (Interferer("J1", (600.0, 300.0), 1.5, 20.0, "n78", ((0.0, 1e9),)),
           Interferer("J2", (1100.0, 800.0), 1.5, 25.0, "n77", ((0.0, 1e9),)))

# the scenario sizes of the field passes each pair takes
PAIR_PASSES = {"demo_mitigated": [2], "interleaved_moved": [2],
               "other_seed": [1, 1], "other_interferers": [2]}


def scenario_pair(case, demo_scenario, demo_batch):
    if case == "demo_mitigated":
        detection = run_detection(demo_batch, 15, k=2, seed=demo_scenario.seed)
        return demo_scenario, apply(demo_scenario, recommend(demo_scenario, detection))
    pre = interleaved_scenario(JAMMERS)
    if case == "interleaved_moved":          # sector c to its site's other band
        return pre, apply(pre, Recommendation((("c", "n78", "n77"),), "move c"))
    if case == "other_seed":
        return pre, dataclasses.replace(pre, seed=pre.seed + 1)
    return pre, dataclasses.replace(pre, interferers=JAMMERS[1:])


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("active", [True, False])
@pytest.mark.parametrize("case", sorted(PAIR_PASSES))
def test_compute_grids_matches_separate_calls(monkeypatch, demo_scenario,
                                              demo_batch, case, active, workers):
    pre, post = scenario_pair(case, demo_scenario, demo_batch)
    separate = [compute_grid(sc, active, n_workers=workers) for sc in (pre, post)]
    passes, field_pass = [], coverage._field_pass

    def counted(folds, *args):
        passes.append(len(folds))
        return field_pass(folds, *args)

    monkeypatch.setattr(coverage, "_field_pass", counted)
    got = compute_grids([sc if active else dataclasses.replace(sc, interferers=())
                         for sc in (pre, post)], n_workers=workers)
    assert passes == PAIR_PASSES[case]
    assert len(got) == 2
    for g, ref in zip(got, separate):
        assert_same_grid(g, ref)


def test_shared_pass_computes_each_transmitter_once(monkeypatch):
    pre, post = scenario_pair("interleaved_moved", None, None)
    computed, location_fields = [], coverage._location_fields

    def counted(scenario, x, y, position, height_m, transmitters):
        computed.extend(tx[0] for tx in transmitters)
        return location_fields(scenario, x, y, position, height_m, transmitters)

    monkeypatch.setattr(coverage, "_location_fields", counted)
    compute_grids([pre, post, pre], n_workers=2)
    # five sectors, sector c once more at its new band, two jammers
    assert sorted(computed) == ["J1", "J2", "a", "b", "c", "c", "d", "e"]


def test_compute_grids_keeps_input_order_across_passes(demo_scenario):
    other = dataclasses.replace(demo_scenario, seed=demo_scenario.seed + 1)
    got = compute_grids([demo_scenario, other, demo_scenario])
    assert_same_grid(got[0], got[2])
    assert_same_grid(got[1], compute_grid(other, True))


def lattice_36():
    """36 sites of three sectors on a 6 x 6 lattice, 160 x 160 px; sites
    alternate between two bands, and a jammer is on."""
    sites = tuple(
        Site(f"S{i:02d}", (400.0 + 640.0 * (i % 6), 400.0 + 640.0 * (i // 6)), 25.0,
             tuple(Sector(id=f"S{i:02d}_{k}", azimuth_deg=120.0 * k,
                          band_ref=("n78", "n77")[i % 2], tx_power_dbm=40.0)
                   for k in range(3)))
        for i in range(36))
    return Scenario(name="grid-36", area=Rect(0, 0, 4000, 4000), environment="UMa",
                    sites=sites, interferers=JAMMERS[:1],
                    bands=(Band("n78", 3.5, 100.0), Band("n77", 3.9, 40.0)),
                    grid_resolution_m=25.0, seed=5)


def test_grid_peak_memory_is_not_a_map_per_sector():
    """The fold streams, so the traced peak of a 36-site, 108-sector grid
    stays below a quarter of one float64 map per sector. Sites alternate
    between two bands, and a jammer is on."""
    sc = lattice_36()
    compute_grid(isolated_scenario(), True)      # first-call imports and caches
    tracemalloc.start()
    try:
        grid = compute_grid(sc, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    map_bytes = grid.rsrp_dbm.nbytes
    assert grid.shape == (160, 160)
    assert peak < len(sc.sector_ids) * map_bytes / 4


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("case", sorted(PAIR_PASSES))
def test_off_on_and_post_grids_from_one_pass(monkeypatch, demo_scenario,
                                             demo_batch, case, workers):
    """The demo's three grids: an interference-free copy, the scenario and
    its what-if, each bitwise a separate compute_grid call; the first two
    share one sector fold."""
    pre, post = scenario_pair(case, demo_scenario, demo_batch)
    off = dataclasses.replace(pre, interferers=())
    separate = [compute_grid(pre, False, n_workers=workers),
                compute_grid(pre, True, n_workers=workers),
                compute_grid(post, True, n_workers=workers)]
    passes, field_pass = [], coverage._field_pass

    def counted(folds, *args):
        passes.append(len(folds))
        return field_pass(folds, *args)

    monkeypatch.setattr(coverage, "_field_pass", counted)
    got = compute_grids((off, pre, post), n_workers=workers)
    assert passes == ([3] if case != "other_seed" else [2, 1])
    for g, ref in zip(got, separate):
        assert_same_grid(g, ref)
    assert got[0].best_server is got[1].best_server
    assert got[0].rsrp_dbm is got[1].rsrp_dbm


def three_call_stats(grid, mask):
    """The per-level _stats that grid_summary must match bit for bit."""
    out = {}
    for name in ("rssi_dbm", "sinr_db", "throughput_mbps"):
        values = getattr(grid, name)[mask]
        out[name] = {"mean": float(np.mean(values)),
                     "p5": float(np.percentile(values, 5)),
                     "p50": float(np.percentile(values, 50)),
                     "p95": float(np.percentile(values, 95))}
    return out


@pytest.mark.parametrize("which", ["on", "off", "lattice"])
def test_summary_matches_three_percentile_calls(monkeypatch, demo_grid,
                                                demo_grid_off, which):
    demo = {"on": demo_grid, "off": demo_grid_off}
    grid = demo[which] if which in demo else compute_grid(lattice_36(), True, 2)
    got = grid_summary(grid)
    monkeypatch.setattr(coverage, "_stats", three_call_stats)
    ref = grid_summary(grid)
    assert len(ref["bands"]) == (2 if which == "lattice" else 1)
    assert repr(got) == repr(ref)
