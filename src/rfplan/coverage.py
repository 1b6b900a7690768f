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
Each map is folded as soon as every lower sector id has been, and only a
few locations are in flight, so the maps alive at once do not grow with
the sector count. The grid keeps per-pixel results, built from per-band
linear sums. compute_grids builds several scenarios' grids in one pass;
a field they share is computed once and a sector fold they share is
folded once.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from . import _csvtext, propagation
from ._csvtext import _COMMA, _fixed_text, _lines, _text_table
from .errors import InputError
from .planning import noise_floor_dbm
from .scenario import Scenario

COVERAGE_FLOOR_DBM = -110.0    # serving RSRP below this counts as uncovered
SINR_FLOOR_DB = -10.0          # no usable throughput below this SINR


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


def _location_fields(scenario: Scenario, x, y, position, height_m, transmitters):
    """Received power maps of the transmitters at one location, as
    (dBm, linear mW) pairs.

    transmitters holds (tx_id, fc_ghz, eirp_dbm, pattern, azimuth_deg);
    pattern None is an omni antenna. Distance, bearing and LOS probability
    are computed once for the location, pathloss once per frequency, and
    the LOS condition and shadow fading once per transmitter id: a sector
    listed at two frequencies (moved band in a shared pass) builds both
    maps from one draw, which is dropped before the next id is drawn.
    Intermediate maps are dropped or overwritten as soon as they are used,
    so a location holds few maps besides the ones it returns.
    """
    env = scenario.environment
    h_ut = scenario.ut_profile.height_m
    h_bs = max(height_m, 1.0)
    dx, dy = np.meshgrid(x - position[0], y - position[1])
    d2d = np.maximum(np.hypot(dx, dy), propagation.D2D_MIN_M)
    bearing = (propagation.bearing_deg(dx, dy) if any(tx[3] is not None for tx in transmitters)
               else None)
    del dx, dy
    p_los = propagation.los_probability(d2d, h_ut, env)
    pathloss = {fc: propagation.pathloss_los_nlos_db_clamped(d2d, fc, h_bs, h_ut, env)
                for fc in {tx[1] for tx in transmitters}}
    del d2d
    by_id: dict[str, list[int]] = {}
    for k, tx in enumerate(transmitters):
        by_id.setdefault(tx[0], []).append(k)
    fields = [None] * len(transmitters)
    for tx_id, ks in by_id.items():
        los, sf = propagation.link_draws(scenario.seed, tx_id, p_los, env)
        for k in ks:
            _, fc_ghz, eirp_dbm, pattern, azimuth_deg = transmitters[k]
            power = np.where(los, *pathloss[fc_ghz])
            np.subtract(eirp_dbm, power, out=power)      # eirp - pl - sf - att
            power -= sf
            lin = np.empty_like(power)  # the pattern's scratch map, then linear power
            if pattern is not None:                      # an omni antenna has no att
                power -= pattern._attenuate(np.subtract(bearing, azimuth_deg, out=lin))
            power -= scenario.ut_profile.body_loss_db
            np.divide(power, 10.0, out=lin)
            fields[k] = power, np.power(10.0, lin, out=lin)
        del los, sf
    return fields


def throughput_mbps(sinr_db, bandwidth_mhz, cap_mbps):
    """Capped Shannon throughput; zero below the SINR floor."""
    if np.any(np.asarray(cap_mbps) <= 0):
        raise ValueError("cap_mbps must be > 0")
    sinr = np.asarray(sinr_db, dtype=float)
    tput = bandwidth_mhz * np.log2(1.0 + 10.0 ** (sinr / 10.0))
    tput = np.minimum(tput, cap_mbps)
    tput = np.where(sinr < SINR_FLOOR_DB, 0.0, tput)
    return float(tput) if np.isscalar(sinr_db) else tput


def compute_grid(scenario: Scenario, interferers_active: bool = True,
                 n_workers: int = 1) -> CoverageGrid:
    """Evaluate the full coverage grid for a scenario.

    interferers_active=False gives the grid of the scenario without its
    interferers: RSSI and SINR lose their contribution while the
    serving-signal side is unaffected, which isolates interference effects
    in before/after comparisons.
    """
    if not interferers_active:
        scenario = replace(scenario, interferers=())
    return compute_grids((scenario,), n_workers)[0]


def compute_grids(scenarios, n_workers: int = 1) -> list[CoverageGrid]:
    """Coverage grids of several scenarios, in order, from shared field passes.

    Scenarios with the same area, resolution, seed, environment and UT
    profile share one pass: a transmitter found in several of them, with
    the same position, frequency, EIRP and antenna, has its field computed
    once, and scenarios with the same sectors share one sector fold (their
    grids then share the best_server and rsrp_dbm arrays). Each grid is
    bitwise what compute_grid gives for its scenario.
    """
    if n_workers < 1:
        raise InputError(f"n_workers must be >= 1, got {n_workers}")
    scenarios = list(scenarios)
    passes: dict[tuple, list[int]] = {}
    for k, sc in enumerate(scenarios):
        key = (sc.area, sc.grid_resolution_m, sc.seed, sc.environment, sc.ut_profile)
        passes.setdefault(key, []).append(k)
    grids = [None] * len(scenarios)
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        for members in passes.values():
            folds = [_Fold(scenarios[k]) for k in members]
            _field_pass(folds, pool, 2 * n_workers)
            for k, fold in zip(members, folds):
                grids[k] = fold.grid()              # frees sums no later fold needs
    return grids


class _Sum:
    """Per-band linear sums of transmitter maps, fed in a fixed order.

    entries are ((location, transmitter), band index, sorted index), the
    index None for an interferer. A sum built with serving=True also keeps
    a running RSRP and best server; the strict > keeps the first maximum,
    so ties go to the lowest sector id.
    """

    def __init__(self, entries: tuple, n_bands: int, shape: tuple, serving: bool):
        self.entries, self.done = entries, 0
        self.lin = np.zeros((n_bands,) + shape)
        if serving:
            self.rsrp = np.full(shape, -np.inf)           # serving-sector power
            self.best = np.zeros(shape, dtype=np.intp)

    def advance(self, ready: dict) -> list:
        """Fold the maps next in order that are ready; return their keys."""
        used = []
        while self.done < len(self.entries) and self.entries[self.done][0] in ready:
            key, b, s = self.entries[self.done]
            power, power_lin = ready[key]
            self.lin[b] += power_lin
            if s is not None:
                better = power > self.rsrp
                np.copyto(self.rsrp, power, where=better)
                np.copyto(self.best, s, where=better)
            used.append(key)
            self.done += 1
        return used


class _Fold:
    """One scenario's reduction, fed transmitter maps in a fixed order.

    The order is the sectors by sorted id into one _Sum, then the
    interferers, as the scenario lists them, into another. Scenarios of a
    pass whose entries are equal share that _Sum: an interference-free copy
    of a scenario shares its sector sum, best server and RSRP, and a
    mitigated copy its interferer sum. The fixed order keeps results
    independent of worker count.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.x, self.y = _pixel_centers(scenario.area, scenario.grid_resolution_m)
        self.band_index = {b.id: i for i, b in enumerate(scenario.bands)}

        def freq(band_ref):
            return scenario.band_by_id(band_ref).center_freq_ghz

        sectors = sorted(scenario.sectors(), key=lambda p: p[1].id)
        self.sector_ids = [sec.id for _, sec in sectors]
        self.sector_band = [sec.band_ref for _, sec in sectors]
        # a location is (position, height), a transmitter what
        # _location_fields takes, and an interferer an omni transmitter
        self.signal_entries = tuple(
            (((tuple(site.position), site.height_m),
              (sec.id, freq(sec.band_ref), sec.tx_power_dbm + sec.antenna_gain_dbi,
               propagation.AntennaPattern(sec.beamwidth_3db_deg, sec.front_to_back_db),
               sec.azimuth_deg)), self.band_index[sec.band_ref], s)
            for s, (site, sec) in enumerate(sectors))
        self.external_entries = tuple(
            (((tuple(intf.position), intf.height_m),
              (intf.id, freq(intf.band_ref), intf.tx_power_dbm, None, 0.0)),
             self.band_index[intf.band_ref], None)
            for intf in scenario.interferers)
        self.signal = self.external = None      # the _Sums, set by _field_pass

    def grid(self) -> CoverageGrid:
        """The per-pixel results, once every map has been folded.

        The fold lets go of its sums here, so a sum no other fold holds is
        freed before the next grid is built.
        """
        scenario, signal, external = self.scenario, self.signal, self.external
        self.signal = self.external = None
        rsrp, best = signal.rsrp, signal.best
        noise_lin = np.array([
            10.0 ** (noise_floor_dbm(b.bandwidth_mhz,
                                     scenario.ut_profile.noise_figure_db) / 10.0)
            for b in scenario.bands])

        s_lin = 10.0 ** (rsrp / 10.0)
        serving_band = np.asarray([self.band_index[b] for b in self.sector_band])[best]
        tot_lin = np.take_along_axis(signal.lin, serving_band[None], axis=0)[0]
        ext_lin = np.take_along_axis(external.lin, serving_band[None], axis=0)[0]
        del signal, external
        n_lin = noise_lin[serving_band]

        rssi = 10.0 * np.log10(tot_lin + ext_lin + n_lin)
        interference_lin = np.maximum(tot_lin - s_lin, 0.0) + ext_lin + n_lin
        sinr = rsrp - 10.0 * np.log10(interference_lin)

        bw = np.asarray([b.bandwidth_mhz for b in scenario.bands])[serving_band]
        # uncapped bands get a cap far above any achievable Shannon rate
        caps = np.asarray([1e12 if b.throughput_cap_mbps is None else b.throughput_cap_mbps
                           for b in scenario.bands])[serving_band]
        tput = throughput_mbps(sinr, bw, caps)
        covered = rsrp >= COVERAGE_FLOOR_DBM

        return CoverageGrid(
            x_m=self.x, y_m=self.y, resolution_m=scenario.grid_resolution_m,
            sector_ids=self.sector_ids, sector_band=self.sector_band,
            best_server=best, rsrp_dbm=rsrp, rssi_dbm=rssi, sinr_db=sinr,
            throughput_mbps=tput, covered=covered)


def _field_pass(folds: list[_Fold], pool, depth: int) -> None:
    """Compute every map the folds need, once each, and fold it as it comes.

    The folds' scenarios share area, resolution, seed, environment and UT
    profile, so a (location, transmitter) key names one map for all of
    them, and folds with equal entries get one shared _Sum. Locations go
    to the pool in the order their maps are first needed, at most depth at
    a time; a map is dropped once every sum that needs it has folded it.
    """
    first, x, y = folds[0].scenario, folds[0].x, folds[0].y
    sums: dict[tuple, _Sum] = {}

    def shared(entries, n_bands, serving):
        key = (n_bands, entries)
        if key not in sums:
            sums[key] = _Sum(entries, n_bands, (y.size, x.size), serving)
        return sums[key]

    rank: dict[tuple, int] = {}
    for fold in folds:
        n_bands = len(fold.band_index)
        fold.signal = shared(fold.signal_entries, n_bands, True)
        fold.external = shared(fold.external_entries, n_bands, False)
        for r, (key, _, _) in enumerate(fold.signal_entries + fold.external_entries):
            rank[key] = min(r, rank.get(key, r))
    refs: dict[tuple, int] = {}
    for s in sums.values():
        for key, _, _ in s.entries:
            refs[key] = refs.get(key, 0) + 1
    locations: dict[tuple, list] = {}
    for loc, tx in sorted(rank, key=rank.__getitem__):
        locations.setdefault(loc, []).append(tx)

    def fields(loc, transmitters):
        maps = _location_fields(first, x, y, *loc, transmitters)
        return [((loc, tx), m) for tx, m in zip(transmitters, maps)]

    ready: dict[tuple, tuple] = {}
    pending = iter(locations.items())
    in_flight = deque(pool.submit(fields, *item) for item in islice(pending, depth))
    while in_flight:
        ready.update(in_flight.popleft().result())
        for s in sums.values():
            for key in s.advance(ready):
                refs[key] -= 1
                if not refs[key]:
                    del ready[key]
        # the next location starts once this one's maps are folded and freed
        in_flight.extend(pool.submit(fields, *item) for item in islice(pending, 1))


def _stats(grid: CoverageGrid, mask: np.ndarray) -> dict:
    out = {}
    for name in ("rssi_dbm", "sinr_db", "throughput_mbps"):
        values = getattr(grid, name)[mask]
        p5, p50, p95 = np.percentile(values, (5, 50, 95)).tolist()
        out[name] = {"mean": float(np.mean(values)), "p5": p5, "p50": p50, "p95": p95}
    return out


def grid_summary(grid: CoverageGrid) -> dict:
    """Mean and percentiles of RSSI / SINR / throughput over covered pixels."""
    if grid.best_server.size == 0:
        raise ValueError("empty grid")
    mask = grid.covered
    if not np.any(mask):
        raise InputError("no covered pixels to summarize")
    out = {
        "pixel_count": int(grid.best_server.size),
        "covered_fraction": float(np.mean(mask)),
        "overall": _stats(grid, mask),
        "bands": {},
    }
    for band in sorted(set(grid.sector_band)):
        sectors = [s for s, b in zip(grid.sector_ids, grid.sector_band) if b == band]
        bmask = mask & grid.serving_mask(sectors)
        if not np.any(bmask):
            continue
        out["bands"][band] = _stats(grid, bmask)
    return out


def write_grid_csv(grid: CoverageGrid, path) -> None:
    """Row-major CSV export, 2 decimal places, plot-ready."""
    ny, nx = grid.shape
    x, y = _fixed_text(grid.x_m, 2), _fixed_text(grid.y_m, 2)
    servers = _text_table([f",{s}," for s in grid.sector_ids])
    row_bytes = x.itemsize + y.itemsize + servers.itemsize + 40   # 40: three values
    grid_rows = max(1, _csvtext._TEXT_BLOCK_BYTES // (nx * row_bytes))
    with open(path, "wb") as fh:
        fh.write(b"x_m,y_m,best_server,rssi_dbm,sinr_db,throughput_mbps\n")
        for i in range(0, ny, grid_rows):
            rows = slice(i, i + grid_rows)
            fh.write(_lines((
                np.tile(x, len(y[rows])), _COMMA, np.repeat(y[rows], nx),
                servers[grid.best_server[rows].ravel()],
                _fixed_text(grid.rssi_dbm[rows].ravel(), 2), _COMMA,
                _fixed_text(grid.sinr_db[rows].ravel(), 2), _COMMA,
                _fixed_text(grid.throughput_mbps[rows].ravel(), 2))))
