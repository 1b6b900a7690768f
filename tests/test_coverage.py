"""Coverage grid: antenna pattern, best server, RSSI/SINR, throughput, CSV."""

import dataclasses
import filecmp

import numpy as np
import pytest

from rfplan import propagation
from rfplan.coverage import (AntennaPattern, CoverageGrid, _pixel_centers,
                             bearing_deg, compute_grid, grid_summary,
                             throughput_mbps, write_grid_csv)
from rfplan.detect import run_detection
from rfplan.errors import InputError
from rfplan.mitigate import apply, recommend
from rfplan.planning import noise_floor_dbm
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
    ids = grid.best_server_ids()
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

def _reference_field(scenario, fading, X, Y, tx_id, position, height_m,
                     tx_power_dbm, fc_ghz, gain_dbi=0.0, pattern=None,
                     azimuth_deg=0.0):
    env = scenario.environment
    h_ut = scenario.ut_profile.height_m
    dx = X - position[0]
    dy = Y - position[1]
    d2d = np.maximum(np.hypot(dx, dy), propagation.D2D_MIN_M)

    p_los = propagation.los_probability(d2d, h_ut, env)
    los = propagation.los_condition_mask(scenario.seed, tx_id, p_los)
    h_bs = max(height_m, 1.0)
    pl_los = propagation.pathloss_db_clamped(d2d, fc_ghz, h_bs, h_ut, env, "LOS")
    pl_nlos = propagation.pathloss_db_clamped(d2d, fc_ghz, h_bs, h_ut, env, "NLOS")
    pl = np.where(los, pl_los, pl_nlos)

    sf_std = fading.standard_samples(tx_id, d2d.size).reshape(d2d.shape)
    sigma_los = propagation.DEFAULT_SIGMA_SF_DB[(env, "LOS")]
    sigma_nlos = propagation.DEFAULT_SIGMA_SF_DB[(env, "NLOS")]
    sf = sf_std * np.where(los, sigma_los, sigma_nlos)

    power = tx_power_dbm + gain_dbi - pl - sf
    if pattern is not None:
        power = power - pattern.attenuation_db(bearing_deg(dx, dy) - azimuth_deg)
    return power - scenario.ut_profile.body_loss_db


def reference_grid(scenario, interferers_active):
    x, y = _pixel_centers(scenario.area, scenario.grid_resolution_m)
    X, Y = np.meshgrid(x, y)
    fading = propagation.ShadowFadingField(seed=scenario.seed)

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
            scenario, fading, X, Y, sec.id, site.position, site.height_m,
            sec.tx_power_dbm, band.center_freq_ghz, gain_dbi=sec.antenna_gain_dbi,
            pattern=pattern, azimuth_deg=sec.azimuth_deg))
    ext_fields = [_reference_field(
        scenario, fading, X, Y, intf.id, intf.position, intf.height_m,
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
    ref = reference_grid(scenario, interferers_active)
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
