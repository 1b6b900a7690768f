"""Downlink coverage grid: per-pixel server, RSSI, SINR and throughput.

For every pixel of the service area the grid holds the best-serving
sector (argmax received power, ties to the lexicographically smaller
sector id), wideband RSSI on the serving band (all co-band signals plus
external interference plus noise), SINR against co-channel and external
interference, and Shannon-style capped throughput.

Determinism contract: for a fixed scenario seed the grid is bit-identical
across repeated runs and across worker counts. Fields are computed one
location (site or interferer) per task, with RNG streams keyed by
transmitter id, and the reduction always runs in sorted sector order.
No per-sector map outlives the reduction: the grid keeps per-pixel
results, built from per-band linear sums.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import propagation
from .errors import InputError
from .planning import noise_floor_dbm
from .scenario import Scenario

COVERAGE_FLOOR_DBM = -110.0    # serving RSRP below this counts as uncovered
SINR_FLOOR_DB = -10.0          # no usable throughput below this SINR


@dataclass(frozen=True)
class AntennaPattern:
    """3GPP-style parabolic sector pattern, capped at the front-to-back ratio."""
    beamwidth_3db_deg: float
    front_to_back_db: float

    def attenuation_db(self, delta_az_deg):
        d = np.abs((np.asarray(delta_az_deg, dtype=float) + 180.0) % 360.0 - 180.0)
        return np.minimum(12.0 * (d / self.beamwidth_3db_deg) ** 2,
                          self.front_to_back_db)


def bearing_deg(dx, dy):
    """Compass bearing of (dx, dy): degrees clockwise from +y."""
    return np.degrees(np.arctan2(dx, dy)) % 360.0


@dataclass
class CoverageGrid:
    x_m: np.ndarray                 # pixel-center eastings, shape (nx,)
    y_m: np.ndarray                 # pixel-center northings, shape (ny,)
    resolution_m: float
    sector_ids: list[str]           # sorted; indexes the arrays below
    sector_band: list[str]
    best_server: np.ndarray         # (ny, nx) index into sector_ids
    rsrp_dbm: np.ndarray            # serving-sector power, (ny, nx)
    rssi_dbm: np.ndarray
    sinr_db: np.ndarray
    throughput_mbps: np.ndarray
    covered: np.ndarray             # bool, (ny, nx)

    @property
    def shape(self):
        return self.best_server.shape

    def best_server_ids(self) -> np.ndarray:
        return np.asarray(self.sector_ids, dtype=object)[self.best_server]

    def serving_mask(self, sector_ids) -> np.ndarray:
        """Pixels whose best server is one of the given sectors."""
        wanted = {self.sector_ids.index(s) for s in sector_ids}
        return np.isin(self.best_server, sorted(wanted))


def _pixel_centers(area, resolution_m):
    nx = max(1, math.ceil(area.width / resolution_m - 1e-9))
    ny = max(1, math.ceil(area.height / resolution_m - 1e-9))
    x = area.min_x + resolution_m * (np.arange(nx) + 0.5)
    y = area.min_y + resolution_m * (np.arange(ny) + 0.5)
    return x, y


def _location_fields(scenario: Scenario, fading, X, Y, position, height_m,
                     transmitters):
    """Received power maps, dBm, of the transmitters at one location.

    transmitters holds (tx_id, fc_ghz, eirp_dbm, pattern, azimuth_deg);
    pattern None is an omni antenna. Distance, bearing and LOS probability
    are computed once for the location, pathloss once per frequency. Each
    transmitter's LOS/NLOS condition is drawn once per pixel from the LOS
    probability and frozen by the scenario seed; shadow fading comes from
    the stream keyed by the transmitter id.
    """
    env = scenario.environment
    h_ut = scenario.ut_profile.height_m
    dx = X - position[0]
    dy = Y - position[1]
    d2d = np.maximum(np.hypot(dx, dy), propagation.D2D_MIN_M)
    p_los = propagation.los_probability(d2d, h_ut, env)
    h_bs = max(height_m, 1.0)
    sigma_los = fading.sigma_db[(env, "LOS")]
    sigma_nlos = fading.sigma_db[(env, "NLOS")]
    pathloss = {}
    bearing = None
    fields = []
    for tx_id, fc_ghz, eirp_dbm, pattern, azimuth_deg in transmitters:
        if fc_ghz not in pathloss:
            pathloss[fc_ghz] = [propagation.pathloss_db_clamped(
                d2d, fc_ghz, h_bs, h_ut, env, cond) for cond in ("LOS", "NLOS")]
        pl_los, pl_nlos = pathloss[fc_ghz]
        los = propagation.los_condition_mask(scenario.seed, tx_id, p_los)
        pl = np.where(los, pl_los, pl_nlos)
        sf_std = fading.standard_samples(tx_id, d2d.size).reshape(d2d.shape)
        sf = sf_std * np.where(los, sigma_los, sigma_nlos)
        power = eirp_dbm - pl - sf
        if pattern is not None:
            if bearing is None:
                bearing = bearing_deg(dx, dy)
            power = power - pattern.attenuation_db(bearing - azimuth_deg)
        fields.append(power - scenario.ut_profile.body_loss_db)
    return fields


def throughput_mbps(sinr_db, bandwidth_mhz, cap_mbps, efficiency=1.0,
                    sinr_floor_db=SINR_FLOOR_DB):
    """Capped Shannon throughput; zero below the SINR floor."""
    if np.any(np.asarray(cap_mbps) <= 0):
        raise ValueError("cap_mbps must be > 0")
    sinr = np.asarray(sinr_db, dtype=float)
    tput = efficiency * bandwidth_mhz * np.log2(1.0 + 10.0 ** (sinr / 10.0))
    tput = np.minimum(tput, cap_mbps)
    tput = np.where(sinr < sinr_floor_db, 0.0, tput)
    return float(tput) if np.isscalar(sinr_db) else tput


def compute_grid(scenario: Scenario, interferers_active: bool = True,
                 n_workers: int = 1,
                 coverage_floor_dbm: float = COVERAGE_FLOOR_DBM) -> CoverageGrid:
    """Evaluate the full coverage grid for a scenario.

    interferers_active toggles the external interferers' contribution to
    RSSI and SINR; the serving-signal side is unaffected, which isolates
    interference effects in before/after comparisons.
    """
    if n_workers < 1:
        raise InputError(f"n_workers must be >= 1, got {n_workers}")
    x, y = _pixel_centers(scenario.area, scenario.grid_resolution_m)
    X, Y = np.meshgrid(x, y)
    fading = propagation.ShadowFadingField(seed=scenario.seed)

    def freq(band_ref):
        return scenario.band_by_id(band_ref).center_freq_ghz

    # one field pass per location; an interferer is a location with one
    # omni transmitter, and its field is only computed when it counts
    interferers = scenario.interferers if interferers_active else ()
    locations = [
        (site.position, site.height_m,
         [(sec.id, freq(sec.band_ref), sec.tx_power_dbm + sec.antenna_gain_dbi,
           AntennaPattern(sec.beamwidth_3db_deg, sec.front_to_back_db),
           sec.azimuth_deg) for sec in site.sectors])
        for site in scenario.sites]
    locations += [(intf.position, intf.height_m,
                   [(intf.id, freq(intf.band_ref), intf.tx_power_dbm, None, 0.0)])
                  for intf in interferers]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        per_location = list(pool.map(
            lambda loc: _location_fields(scenario, fading, X, Y, *loc), locations))
    n_sites = len(scenario.sites)
    fields = [f for fs in per_location[:n_sites] for f in fs]   # scenario order
    ext_fields = [f for fs in per_location[n_sites:] for f in fs]
    del per_location

    sectors = [sec for _, sec in scenario.sectors()]
    order = sorted(range(len(sectors)), key=lambda i: sectors[i].id)
    sector_ids = [sectors[i].id for i in order]
    sector_band = [sectors[i].band_ref for i in order]
    band_ids = [b.id for b in scenario.bands]
    band_index = {b: i for i, b in enumerate(band_ids)}

    # Fixed-order reductions keep results independent of worker count. The
    # strict > keeps the first maximum, so ties go to the lowest sector id.
    band_signal_lin = np.zeros((len(band_ids),) + X.shape)
    rsrp = np.full(X.shape, -np.inf)                  # serving-sector power
    best = np.zeros(X.shape, dtype=np.intp)
    for s, i in enumerate(order):
        power, fields[i] = fields[i], None            # freed once folded
        band_signal_lin[band_index[sector_band[s]]] += 10.0 ** (power / 10.0)
        better = power > rsrp
        np.copyto(rsrp, power, where=better)
        best[better] = s

    band_ext_lin = np.zeros_like(band_signal_lin)
    for intf, f in zip(interferers, ext_fields):
        band_ext_lin[band_index[intf.band_ref]] += 10.0 ** (f / 10.0)

    noise_lin = np.array([
        10.0 ** (noise_floor_dbm(b.bandwidth_mhz,
                                 scenario.ut_profile.noise_figure_db) / 10.0)
        for b in scenario.bands])

    s_lin = 10.0 ** (rsrp / 10.0)
    serving_band = np.asarray([band_index[b] for b in sector_band])[best]
    tot_lin = np.take_along_axis(band_signal_lin, serving_band[None], axis=0)[0]
    ext_lin = np.take_along_axis(band_ext_lin, serving_band[None], axis=0)[0]
    n_lin = noise_lin[serving_band]

    rssi = 10.0 * np.log10(tot_lin + ext_lin + n_lin)
    interference_lin = np.maximum(tot_lin - s_lin, 0.0) + ext_lin + n_lin
    sinr = rsrp - 10.0 * np.log10(interference_lin)

    bw = np.asarray([b.bandwidth_mhz for b in scenario.bands])[serving_band]
    # uncapped bands get a cap far above any achievable Shannon rate
    caps = np.asarray([b.throughput_cap_mbps if b.throughput_cap_mbps
                       else 1e12 for b in scenario.bands])[serving_band]
    tput = throughput_mbps(sinr, bw, caps)
    covered = rsrp >= coverage_floor_dbm

    return CoverageGrid(
        x_m=x, y_m=y, resolution_m=scenario.grid_resolution_m,
        sector_ids=sector_ids, sector_band=sector_band, best_server=best,
        rsrp_dbm=rsrp, rssi_dbm=rssi, sinr_db=sinr, throughput_mbps=tput,
        covered=covered)


def _stats(values: np.ndarray) -> dict:
    return {
        "mean": float(np.mean(values)),
        "p5": float(np.percentile(values, 5)),
        "p50": float(np.percentile(values, 50)),
        "p95": float(np.percentile(values, 95)),
    }


def grid_summary(grid: CoverageGrid) -> dict:
    """Mean and percentiles of RSSI / SINR / throughput over covered pixels."""
    if grid.best_server.size == 0:
        raise ValueError("empty grid")
    mask = grid.covered
    if not np.any(mask):
        raise ValueError("no covered pixels to summarize")
    out = {
        "pixel_count": int(grid.best_server.size),
        "covered_fraction": float(np.mean(mask)),
        "overall": {
            "rssi_dbm": _stats(grid.rssi_dbm[mask]),
            "sinr_db": _stats(grid.sinr_db[mask]),
            "throughput_mbps": _stats(grid.throughput_mbps[mask]),
        },
        "bands": {},
    }
    bands = sorted(set(grid.sector_band))
    for band in bands:
        sectors = [s for s, b in zip(grid.sector_ids, grid.sector_band) if b == band]
        bmask = mask & grid.serving_mask(sectors)
        if not np.any(bmask):
            continue
        out["bands"][band] = {
            "rssi_dbm": _stats(grid.rssi_dbm[bmask]),
            "sinr_db": _stats(grid.sinr_db[bmask]),
            "throughput_mbps": _stats(grid.throughput_mbps[bmask]),
        }
    return out


def write_grid_csv(grid: CoverageGrid, path) -> None:
    """Row-major CSV export, 2 decimal places, plot-ready."""
    ids = grid.best_server_ids()
    with open(path, "w", newline="") as fh:
        fh.write("x_m,y_m,best_server,rssi_dbm,sinr_db,throughput_mbps\n")
        for iy in range(grid.y_m.size):
            for ix in range(grid.x_m.size):
                fh.write(f"{grid.x_m[ix]:.2f},{grid.y_m[iy]:.2f},{ids[iy, ix]},"
                         f"{grid.rssi_dbm[iy, ix]:.2f},{grid.sinr_db[iy, ix]:.2f},"
                         f"{grid.throughput_mbps[iy, ix]:.2f}\n")
