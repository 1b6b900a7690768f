"""Weighted centroid and pathloss-inversion localization."""

import math
import runpy
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rfplan import localize, propagation, twin
from rfplan.detect import DetectionResult, run_detection
from rfplan.errors import InputError
from rfplan.localize import (LocalizationEstimate, estimate_interferer,
                             excess_to_power_dbm, pathloss_lsq,
                             validate_localization, weighted_centroid)


def nlos_power(pos, sensor, h_bs, p_tx, fc=3.5):
    d = math.dist(pos, sensor)
    pl = float(propagation.pathloss_db_clamped(d, fc, h_bs, 1.5, "UMa", "NLOS"))
    return p_tx - pl


def test_centroid_single_cell():
    est = weighted_centroid([("c", (120.0, 340.0), 5.0)])
    assert est.position == (120.0, 340.0)
    assert est.residual == 0.0


def test_centroid_symmetry():
    est = weighted_centroid([("a", (0.0, 0.0), 4.0), ("b", (2.0, 0.0), 4.0)])
    assert est.position == pytest.approx((1.0, 0.0))


def test_centroid_linear_weights():
    # +10 dB is a 10x linear weight, the centroid sits at 10/11 of the way
    est = weighted_centroid([("a", (0.0, 0.0), 0.0), ("b", (11.0, 0.0), 10.0)])
    assert est.position[0] == pytest.approx(10.0)


def test_centroid_empty_errors():
    with pytest.raises(InputError):
        weighted_centroid([])


def test_lsq_noiseless_recovery():
    truth = (430.0, 610.0, 17.0)
    sensors = [("s1", (0.0, 0.0)), ("s2", (1000.0, 100.0)),
               ("s3", (200.0, 1100.0)), ("s4", (900.0, 900.0)),
               ("s5", (-300.0, 500.0))]
    obs = [(c, p, 25.0, nlos_power(truth[:2], p, 25.0, truth[2]))
           for c, p in sensors]
    est = pathloss_lsq(obs, 3.5)
    assert not est.fallback
    assert math.dist(est.position, truth[:2]) < 1.0
    assert est.tx_power_dbm == pytest.approx(truth[2], abs=0.1)


def test_lsq_needs_three_cells():
    assert pathloss_lsq([("a", (0, 0), 25.0, -90.0),
                         ("b", (10, 0), 25.0, -90.0)], 3.5) is None
    assert pathloss_lsq([], 3.5) is None


def test_lsq_collinear_falls_back():
    obs = [(f"s{i}", (100.0 * i, 0.0), 25.0, -90.0 - i) for i in range(4)]
    assert pathloss_lsq(obs, 3.5) is None


def test_excess_to_power_inverse():
    baseline = -102.0
    p = excess_to_power_dbm(7.79, baseline)
    # -102 + -95 mixes to about -94.21, an excess of 7.79 dB
    assert p == pytest.approx(-95.0, abs=0.05)
    assert excess_to_power_dbm(0.0, baseline) is None
    assert excess_to_power_dbm(-1.0, baseline) is None


def test_estimate_interferer_demo(demo_scenario, demo_batch):
    result = run_detection(demo_batch, baseline_window=15)
    est = estimate_interferer(demo_scenario, result, baseline_dbm=-102.0)
    truth = demo_scenario.interferers[0].position

    wc = est["WeightedCentroid"]
    pair = [math.dist(a.position, b.position)
            for a in demo_scenario.sites for b in demo_scenario.sites
            if a.id < b.id]
    assert math.dist(wc.position, truth) <= 0.5 * float(np.mean(pair))

    # the affected cells sit on 2 distinct sites, so the LSQ degrades to
    # a centroid estimate and must say so
    lsq = est["PathlossLSQ"]
    assert lsq.fallback
    assert math.dist(lsq.position, truth) <= 0.5 * float(np.mean(pair))


@pytest.mark.parametrize("seed", [1, 7])
def test_demo_lsq_fallback_is_the_centroid(demo_scenario, tmp_path, seed):
    """The demo's affected cells sit on two sites, so the PathlossLSQ entry
    is the WeightedCentroid estimate itself, flagged, as `rfplan demo` reads
    it from kpi.csv."""
    sc = replace(demo_scenario, seed=seed)
    twin.write_kpi_csv(twin.synthesize_kpi(sc, 3600.0, 60.0), tmp_path / "kpi.csv")
    det = run_detection(twin.read_kpi_csv(tmp_path / "kpi.csv"), 15, seed=seed)
    est = estimate_interferer(sc, det)
    assert len({sc.sector_by_id(c)[0].id for c in det.affected_cells}) == 2
    assert est["PathlossLSQ"] == replace(est["WeightedCentroid"], fallback=True)


def test_two_cell_lsq_fallback_is_the_centroid(demo_scenario):
    det = DetectionResult(affected_cells=("A1", "C2"), anomaly_flag=True,
                          evidence={"A1": {"mean_excess_db": 8.0},
                                    "C2": {"mean_excess_db": 3.0}},
                          threshold_db=3.0)
    est = estimate_interferer(demo_scenario, det)
    assert est["PathlossLSQ"] == replace(est["WeightedCentroid"], fallback=True)
    assert est["WeightedCentroid"].cells_used == ("A1", "C2")


def test_estimate_requires_affected(demo_scenario, demo_batch):
    clear = run_detection(demo_batch, baseline_window=15,
                          threshold_db=float("inf"))
    with pytest.raises(InputError):
        estimate_interferer(demo_scenario, clear, baseline_dbm=-102.0)


def test_validate_localization():
    est = LocalizationEstimate(position=(0.0, 0.0), residual=0.0, cells_used=("a",))
    exact = validate_localization(est, (0.0, 0.0), radius_m=200.0)
    assert exact.distance_m == 0.0 and exact.within_radius

    off = validate_localization(est, (300.0, 0.0), radius_m=200.0)
    assert off.distance_m == pytest.approx(300.0)
    assert not off.within_radius


def test_lsq_with_noise_vs_centroid():
    # informative comparison: with mild noise the model-based inversion
    # should usually beat the centroid, but there is no hard guarantee
    rng = np.random.default_rng(0)
    sensors = [("s1", (0.0, 0.0)), ("s2", (1000.0, 100.0)),
               ("s3", (200.0, 1100.0)), ("s4", (900.0, 900.0)),
               ("s5", (-300.0, 500.0)), ("s6", (1200.0, 600.0))]
    wins = 0
    for _ in range(20):
        truth = (float(rng.uniform(100, 900)), float(rng.uniform(100, 900)), 18.0)
        obs = [(c, p, 25.0,
                nlos_power(truth[:2], p, 25.0, truth[2]) + rng.normal(0, 1.0))
               for c, p in sensors]
        lsq = pathloss_lsq(obs, 3.5)
        wc = weighted_centroid([(c, p, v + 120.0) for c, p, _, v in obs])
        if math.dist(lsq.position, truth[:2]) < math.dist(wc.position, truth[:2]):
            wins += 1
    print(f"noisy LSQ beat centroid in {wins}/20 trials")
    assert wins >= 10


# --- the forward model: pinned to the residual it replaced ---------------------


def reference_residuals(pos, h_bs, power, fc_ghz, environment):
    """pathloss_lsq's residual spelled out in place: omni NLOS pathloss
    from a 1.5 m source to every sensor, the bits the kernel must give."""
    def residuals(theta):
        x, y, p = theta
        d = np.hypot(pos[:, 0] - x, pos[:, 1] - y)
        pl = propagation.pathloss_db_clamped(d, fc_ghz, h_bs, localize.SOURCE_HEIGHT_M,
                                             environment, "NLOS")
        return (p - pl) - power
    return residuals


def noiseless_obs():
    """Acceptance 07's sensors around an interferer at (430, 610), 17 dBm."""
    sensors = [(0.0, 0.0), (1000.0, 100.0), (200.0, 1100.0),
               (900.0, 900.0), (-300.0, 500.0)]
    return [(f"s{i}", p, 25.0, nlos_power((430.0, 610.0), p, 25.0, 17.0))
            for i, p in enumerate(sensors)]


def noisy_mixed_height_obs(seed):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1500.0, 1500.0, (7, 2))
    h_bs = rng.choice([1.0, 10.0, 25.0, 45.0], 7)
    return [(f"s{i}", tuple(p), h, nlos_power((120.0, -340.0), tuple(p), h, 23.0, fc=2.1)
             + rng.normal(0.0, 2.0)) for i, (p, h) in enumerate(zip(pos, h_bs))]


@pytest.mark.parametrize("case", ["07"] + [f"noisy{s}" for s in range(4)])
@pytest.mark.parametrize("environment", ["UMa", "UMi"])
def test_lsq_residual_is_bitwise_the_reference(monkeypatch, case, environment):
    """Every residual the solver asks for equals the reference's bits, and
    the fit run on the reference residual is the same estimate."""
    obs = noiseless_obs() if case == "07" else noisy_mixed_height_obs(int(case[5:]))
    fc = 3.5 if case == "07" else 2.1
    reference = reference_residuals(
        np.array([o[1] for o in obs]), np.array([o[2] for o in obs]),
        np.array([o[3] for o in obs]), fc, environment)
    solver, evaluations = localize.least_squares, []

    def on_reference(fun, x0, **kwargs):
        def both(theta):
            got, want = fun(theta), reference(theta)
            evaluations.append(got.tobytes() == want.tobytes())
            return want
        return solver(both, x0, **kwargs)

    got = pathloss_lsq(obs, fc, environment)
    monkeypatch.setattr(localize, "least_squares", on_reference)
    assert pathloss_lsq(obs, fc, environment) == got
    assert not got.fallback and len(evaluations) > 0 and all(evaluations)


# --- each cell against its own band's baseline ----------------------------------


def per_cell_reference(scenario, detection):
    """estimate_interferer spelled out cell by cell: each cell's excess
    turns into a power against cell_baseline_dbm of that cell's band, and
    the LSQ runs through the cells' own sector receivers over the scenario's
    area, at the first affected cell's frequency."""
    rows, obs, sectors = [], [], []
    for cell in detection.affected_cells:
        site, sector = scenario.sector_by_id(cell)
        band = scenario.band_by_id(sector.band_ref)
        excess = detection.evidence[cell]["mean_excess_db"]
        rows.append((cell, site.position, excess))
        power = excess_to_power_dbm(excess, twin.cell_baseline_dbm(scenario, band))
        if power is not None:
            obs.append((cell, site.position, site.height_m, power))
            sectors.append(sector)
    first = scenario.sector_by_id(detection.affected_cells[0])[1].band_ref
    receivers = propagation.sector_receivers(np.arange(len(obs)), sectors)
    return {"WeightedCentroid": weighted_centroid(rows),
            "PathlossLSQ": pathloss_lsq(obs, scenario.band_by_id(first).center_freq_ghz,
                                        scenario.environment, receivers, scenario.area)}


def test_each_cell_reads_its_own_band_baseline(two_band_scenario):
    sc = two_band_scenario
    batch = twin.synthesize_kpi(sc, 3600.0, 60.0)
    det = run_detection(batch, baseline_window=15, seed=sc.seed)
    assert det.affected_cells == ("A1", "A2", "A3", "B3", "E1", "E2", "E3")
    assert [round(twin.cell_baseline_dbm(sc, sc.band_by_id(b)), 2)
            for b in ("n78", "n78b")] == [-99.0, -92.98]
    got = estimate_interferer(sc, det)
    assert got == per_cell_reference(sc, det)
    assert not got["PathlossLSQ"].fallback
    # one baseline for every cell, the n78 one, is a different fit
    assert estimate_interferer(sc, det, -99.0)["PathlossLSQ"] != got["PathlossLSQ"]


def test_unknown_method_is_rejected(demo_scenario, demo_batch):
    result = run_detection(demo_batch, baseline_window=15)
    with pytest.raises(InputError, match="both, WeightedCentroid or PathlossLSQ"):
        estimate_interferer(demo_scenario, result, baseline_dbm=-102.0, method="typo")


# --- the profiled search: candidate arrays, the sector receivers, memory ---------


@pytest.mark.parametrize("receivers", ["omni", "sectors"])
def test_uplink_dbm_candidate_rows_are_scalar_calls(demo_scenario, receivers):
    """One (N, 1) candidate array gives, row by row, the bits of N calls."""
    sc = demo_scenario
    xy = np.array([site.position for site in sc.sites], dtype=float)
    h_bs = np.array([site.height_m for site in sc.sites], dtype=float)
    sectors = None if receivers == "omni" else propagation.sector_receivers(
        np.repeat(np.arange(len(sc.sites)), [len(site.sectors) for site in sc.sites]),
        [sec for _, sec in sc.sectors()])
    rng = np.random.default_rng(5)
    # random points, one on a site (clamped to 1 m) and one far outside
    cand = np.vstack([rng.uniform(-2000.0, 3000.0, (40, 2)), xy[:1], [[9000.0, -9000.0]]])
    got = propagation.uplink_dbm((cand[:, :1], cand[:, 1:], 1.5, 17.0, 3.5), xy, h_bs,
                                 "UMa", sectors)
    assert got.shape == (len(cand), len(xy) if sectors is None else len(sc.sector_ids))
    for row, (x, y) in zip(got, cand):
        want = propagation.uplink_dbm((float(x), float(y), 1.5, 17.0, 3.5), xy, h_bs,
                                      "UMa", sectors)
        assert row.tobytes() == want.tobytes()


def kpi_feed_detection(seed):
    """The benchmark's kpi_feed lattice (19 sites in a 3 km square) and the
    detection on its 2 h @ 1 s feed."""
    path = Path(__file__).resolve().parents[1] / "bench" / "lattice.py"
    sc = runpy.run_path(str(path))["hex_lattice"](
        rings=2, area_m=3000.0, seed=seed, name="lattice-19")
    return sc, run_detection(twin.synthesize_kpi(sc, 7200.0, 1.0), 600, k=2, seed=sc.seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kpi_feed_lsq_lands_on_the_jammer(seed):
    sc, det = kpi_feed_detection(seed)
    lsq = estimate_interferer(sc, det)["PathlossLSQ"]
    assert not lsq.fallback and sc.area.contains(*lsq.position)
    assert math.dist(lsq.position, sc.interferers[0].position) < 100.0


def test_kpi_feed_search_memory():
    """The search evaluates the whole lattice at once and holds fewer than
    ten float arrays of one value per lattice point and affected cell."""
    sc, det = kpi_feed_detection(1)
    tracemalloc.start()
    try:
        estimate_interferer(sc, det)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * localize.SEARCH_POINTS ** 2 * len(det.affected_cells) * 8
