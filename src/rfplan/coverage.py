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
        d = np.broadcast_to(delta_az_deg, np.broadcast(
            delta_az_deg, self.beamwidth_3db_deg, self.front_to_back_db).shape)
        return self._attenuate(np.array(d, dtype=float))[()]

    def _attenuate(self, d):
        """attenuation_db of the float array d, computed in d itself: the
        operations of min(12 (|(d + 180) % 360 - 180| / bw) ** 2, ftb), in
        that order, and ** 2 is numpy's square."""
        d += 180.0
        _mod360(d)
        d -= 180.0
        np.abs(d, out=d)
        d /= self.beamwidth_3db_deg
        np.square(d, out=d)
        d *= 12.0
        return np.minimum(d, self.front_to_back_db, out=d)


def _mod360(a):
    """a % 360.0 bit for bit, computed in place in the float array a.

    numpy's float remainder runs a full divmod per element, ~60x a subtract.
    On [-360, 720) it is a - 360 from 360 up (exact), a + 360 below 0
    (rounded as the remainder rounds it: a tiny negative gives 360.0), and
    +0.0 for a zero. Other values, inf or NaN take the remainder itself.
    """
    if a.size and -360.0 <= a.min() and a.max() < 720.0:
        np.subtract(a, 360.0, out=a, where=a >= 360.0)
        np.add(a, 360.0, out=a, where=a < 0.0)
        a += 0.0                                # -0.0 -> +0.0
        return a
    return np.remainder(a, 360.0, out=a)


def bearing_deg(dx, dy):
    """Compass bearing of (dx, dy): degrees clockwise from +y."""
    bearing = np.asarray(np.arctan2(dx, dy))
    return _mod360(np.degrees(bearing, out=bearing))[()]


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
    bearing = (bearing_deg(dx, dy) if any(tx[3] is not None for tx in transmitters)
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
               AntennaPattern(sec.beamwidth_3db_deg, sec.front_to_back_db),
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
    grid_rows = max(1, _TEXT_BLOCK_BYTES // (nx * row_bytes))
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


# ---------------------------------------------------------------------------
# CSV text at array speed, for the grid writer here and the KPI writer in twin.
# A text column is a 1-D array of fixed-width void items, NUL-padded; a
# line is its columns' items side by side, with every NUL dropped.


# text per block of a CSV writer or of the KPI reader; their arrays take a few times that
_TEXT_BLOCK_BYTES = 1 << 17
_U4 = np.dtype("<u4")


def _digit_table() -> np.ndarray:
    """Four ASCII digits per uint32, for i in 0..9999: '%04d' at [i], the
    same with its leading zeros as NUL at [i + 10**4], and with the units
    digit kept at [i + 2 * 10**4] (so 0 is NUL NUL NUL '0')."""
    i, place = np.arange(10_000)[:, None], np.array([1000, 100, 10, 1])
    digits = (i // place % 10 + ord("0")).astype(np.uint8)
    lead = i >= place
    return np.concatenate((digits, digits * lead, digits * (lead | (place == 1)))
                          ).view(_U4).ravel()


_DIGITS = _digit_table()
_COMMA, _NEWLINE = np.array([b","], dtype="V1"), np.array([b"\n"], dtype="V1")
# a NUL inside a table text is held as 0xFF, a byte UTF-8 never uses, so
# that NUL can pad the items; _lines drops the pads and restores it
_RESTORE_NUL = bytes.maketrans(b"\xff", b"\0")


def _fixed_text(values: np.ndarray, decimals: int) -> np.ndarray:
    """'%.{decimals}f' % v for each v of a 1-D array, decimals >= 1, as a
    text column.

    The digits are those of q = rint(|v| * 10**decimals), four to a
    uint32 from _DIGITS, and the sign is a byte of its own, from signbit,
    so -0.0 prints as -0.00. That is the correctly rounded text unless
    the scaled magnitude lies within two ulps of a rounding tie, where
    the product's own rounding may decide: such values, those from 2**50
    up and the non-finite are formatted by Python's %, one at a time.
    """
    values = np.asarray(values, dtype=float)
    scale = 10.0 ** decimals
    with np.errstate(over="ignore", invalid="ignore"):     # inf, inf - inf
        scaled = np.abs(values) * scale
        q = np.rint(scaled)
        odd = ~(np.abs(scaled - q) + scaled * 2.0 ** -51 < 0.5)
    q[odd] = 0.0
    whole = np.floor(q / scale)             # exact, as q < 2**50
    frac = (q - whole * scale).astype(np.intp)
    whole = whole.astype(np.intp)
    int_groups = -(-len(str(whole.max(initial=0))) // 4)
    frac_groups, top = -(-decimals // 4), (decimals - 1) % 4 + 1
    fields = ["sign", *(f"i{g}" for g in range(int_groups)), "dot",
              *(f"f{g}" for g in range(frac_groups))]
    formats = ["u1", *[_U4] * int_groups, "u1", *[_U4] * frac_groups]
    exact = ["%.*f" % (decimals, v) for v in values[odd].tolist()]
    width = max([2 + 4 * (int_groups + frac_groups), *map(len, exact)])
    text = np.zeros(values.size, dtype={"names": fields, "formats": formats,
                                        "itemsize": width})
    text["sign"] = np.signbit(values) * np.uint8(ord("-"))
    for g, part in enumerate(_groups(whole, int_groups)):
        # a group with a digit above it is '%04d' (table 0); one without
        # has NUL for its leading zeros (table 1, all NUL for 0), but keeps
        # its units digit when it is the last group (table 2)
        table = 2 if g == int_groups - 1 else 1
        if g:
            table = table * (whole < 10 ** (4 * (int_groups - g)))
        text[f"i{g}"] = _DIGITS[part + table * 10_000]
    text["dot"] = ord(".")
    for g, part in enumerate(_groups(frac, frac_groups)):
        if g == 0 and top < 4:      # the first decimals, then NUL
            text["f0"] = _DIGITS[part * 10 ** (4 - top)] & np.uint32(256 ** top - 1)
        else:
            text[f"f{g}"] = _DIGITS[part]
    text = text.view(f"V{width}")
    if exact:
        text[odd] = _text_table(exact, width)
    return text


def _groups(x: np.ndarray, n: int) -> list:
    """x, each in [0, 10**(4 * n)), as n four-digit groups, the most
    significant first."""
    return [x // 10 ** (4 * g) % 10_000 for g in range(n - 1, 0, -1)] + [x % 10_000 if n > 1 else x]


def _text_table(texts, width: int = 1) -> np.ndarray:
    """The UTF-8 bytes of each text as a text column, at least ``width``
    wide; a NUL inside a text is held as 0xFF."""
    raw = [t.encode().replace(b"\0", b"\xff") for t in texts]
    width = max([width, *map(len, raw)])
    return np.array(raw, dtype=f"S{width}").view(f"V{width}")


def _lines(columns) -> bytes:
    """The text columns side by side, one line per item, without their
    NUL padding. A one-item column is repeated down every line."""
    columns = (*columns, _NEWLINE)
    lines = np.empty(max(map(len, columns)),
                     dtype=[(f"c{k}", c.dtype) for k, c in enumerate(columns)])
    for k, c in enumerate(columns):
        lines[f"c{k}"] = c
    return lines.tobytes().translate(_RESTORE_NUL, b"\0")
