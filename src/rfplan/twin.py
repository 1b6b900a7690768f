"""Synthetic OSS feed: per-cell RTWP/RSSI time series.

Emulates the physical network's KPI counters. Each sector acts as an
uplink power sensor: RTWP composes (in the linear domain) the thermal
baseline, a slowly varying load term and the contribution of every
in-band active interferer, plus measurement noise. RSSI additionally
carries a serving-traffic term.

Ground truth (which interferer was on, where, when) travels next to the
batch but is written to a separate sealed file by the CLI; detection
never reads it unless validation is explicitly requested.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import propagation
from .coverage import AntennaPattern, bearing_deg
from .errors import InputError
from .planning import noise_floor_dbm
from .scenario import (Interferer, Scenario, Sector, Site, from_json,
                       read_json_object)

DAY_S = 86_400.0

METRICS = ("RTWP", "RSSI")


@dataclass
class KpiSeries:
    cell_id: str
    metric: str
    t0_s: float
    dt_s: float
    samples: np.ndarray

    @property
    def timestamps(self) -> np.ndarray:
        return self.t0_s + self.dt_s * np.arange(self.samples.size)


@dataclass
class GroundTruth:
    interferer_id: str
    position: tuple[float, float]
    tx_power_dbm: float
    band_ref: str
    active_intervals: tuple[tuple[float, float], ...]


@dataclass
class _TruthFile:
    ground_truth: tuple[GroundTruth, ...]


@dataclass
class KpiBatch:
    series: dict[str, dict[str, KpiSeries]]  # metric -> cell -> series
    ground_truth: list[GroundTruth] = field(default_factory=list)

    def cells(self) -> list[str]:
        any_metric = next(iter(self.series.values()))
        return sorted(any_metric)

    def get(self, metric: str, cell_id: str) -> KpiSeries:
        return self.series[metric][cell_id]


def interference_at_cell_dbm(interferer: Interferer, site: Site, sector: Sector,
                             fc_ghz: float, environment: str = "UMa") -> float:
    """Interferer power coupled into one sector's receiver, dBm.

    NLOS pathloss from interferer to site (conservative), plus the sector
    antenna gain toward the interferer. Different band: -inf sentinel,
    no contribution.
    """
    if interferer.band_ref != sector.band_ref:
        return -math.inf
    dx = interferer.position[0] - site.position[0]
    dy = interferer.position[1] - site.position[1]
    d2d = max(math.hypot(dx, dy), propagation.D2D_MIN_M)
    # Uplink into the BTS antenna: BS height on the receive side, the
    # interferer plays the terminal role.
    h_ut = min(max(interferer.height_m, propagation.H_UT_MIN_M), propagation.H_UT_MAX_M)
    pl = float(propagation.pathloss_db_clamped(
        d2d, fc_ghz, site.height_m, h_ut, environment, "NLOS"))
    pattern = AntennaPattern(sector.beamwidth_3db_deg, sector.front_to_back_db)
    gain = sector.antenna_gain_dbi - float(
        pattern.attenuation_db(bearing_deg(dx, dy) - sector.azimuth_deg))
    return interferer.tx_power_dbm - pl + gain


def _cell_baseline_dbm(scenario: Scenario, band) -> float:
    if scenario.twin.rtwp_baseline_dbm is not None:
        return scenario.twin.rtwp_baseline_dbm
    return noise_floor_dbm(band.bandwidth_mhz, scenario.twin.bts_noise_figure_db)


def synthesize_kpi(scenario: Scenario, duration_s: float, dt_s: float,
                   seed: int | None = None) -> KpiBatch:
    """Generate the RTWP/RSSI batch for every sector of the scenario.

    Deterministic for a fixed (scenario, seed); per-cell RNG streams are
    keyed by cell id so generation order (or parallel scheduling) cannot
    change the result.
    """
    if dt_s <= 0 or duration_s < dt_s:
        raise InputError("duration_s must be >= dt_s and dt_s > 0")
    if not scenario.sites:
        raise InputError("scenario has no sectors")
    seed = scenario.seed if seed is None else seed
    cfg = scenario.twin
    t = dt_s * np.arange(int(duration_s // dt_s))

    series: dict[str, dict[str, KpiSeries]] = {m: {} for m in METRICS}
    for site, sector in scenario.sectors():
        band = scenario.band_by_id(sector.band_ref)
        baseline_dbm = _cell_baseline_dbm(scenario, band)
        base_lin = 10.0 ** (baseline_dbm / 10.0)

        rng = propagation.keyed_rng(seed, sector.id, propagation._STREAM_TWIN)
        jitter = cfg.load_jitter_db * rng.standard_normal(t.size)
        meas_rtwp = cfg.measurement_noise_db * rng.standard_normal(t.size)
        meas_rssi = cfg.measurement_noise_db * rng.standard_normal(t.size)

        diurnal = cfg.load_amplitude_db * np.sin(2.0 * np.pi * t / DAY_S)
        if cfg.load_offset_db is None:
            load_lin = np.zeros(t.size)
        else:
            load_dbm = baseline_dbm + cfg.load_offset_db + diurnal + jitter
            load_lin = 10.0 ** (load_dbm / 10.0)

        intf_lin = np.zeros(t.size)
        for intf in scenario.interferers:
            if intf.band_ref != sector.band_ref:
                continue
            c_dbm = interference_at_cell_dbm(intf, site, sector,
                                             band.center_freq_ghz,
                                             scenario.environment)
            # Interferer.active_at over the whole axis: half-open [a, b)
            active = np.zeros(t.size, dtype=bool)
            for a, b in intf.active_intervals:
                active |= (t >= a) & (t < b)
            intf_lin += active * 10.0 ** (c_dbm / 10.0)

        rtwp = 10.0 * np.log10(base_lin + load_lin + intf_lin) + meas_rtwp

        traffic_dbm = cfg.serving_traffic_dbm + diurnal
        rssi = 10.0 * np.log10(base_lin + load_lin + intf_lin
                               + 10.0 ** (traffic_dbm / 10.0)) + meas_rssi

        series["RTWP"][sector.id] = KpiSeries(sector.id, "RTWP", 0.0, dt_s, rtwp)
        series["RSSI"][sector.id] = KpiSeries(sector.id, "RSSI", 0.0, dt_s, rssi)

    truth = [GroundTruth(i.id, i.position, i.tx_power_dbm, i.band_ref,
                         i.active_intervals)
             for i in scenario.interferers]
    return KpiBatch(series=series, ground_truth=truth)


def excess_over_baseline_db(series: KpiSeries, baseline_window: int) -> np.ndarray:
    """Samples relative to the median of the leading baseline window."""
    n = series.samples.size
    if not (0 < baseline_window < n):
        raise InputError(
            f"baseline_window {baseline_window} must lie in (0, {n})")
    return series.samples - float(np.median(series.samples[:baseline_window]))


def batch_excess(batch: KpiBatch, baseline_window: int,
                 metric: str = "RTWP") -> dict[str, np.ndarray]:
    if metric not in batch.series:
        raise InputError(f"no {metric} series in the KPI batch "
                         f"(it has {', '.join(batch.series)})")
    return {cell: excess_over_baseline_db(batch.get(metric, cell), baseline_window)
            for cell in batch.cells()}


# ---------------------------------------------------------------------------
# Wire format between the physical and twin sides


_CSV_HEADER = ("timestamp_s", "cell_id", "metric", "value_dbm")
_BLOCK_BYTES = 1 << 20      # bounds the reader's per-block arrays to a few MB
_NL, _COMMA, _QUOTE = ord("\n"), ord(","), ord('"')


def write_kpi_csv(batch: KpiBatch, path) -> None:
    """CSV export: timestamp_s,cell_id,metric,value_dbm (fixed ordering).

    Rows run timestep by timestep; within a timestep, metrics in METRICS
    order and cells sorted. Timestamps print as %.1f, values as %.4f.
    Raises InputError for a timestamp that is not a multiple of 0.1 s,
    which %.1f would round onto an uneven or repeated time axis.
    """
    cells = batch.cells()
    metrics = [m for m in METRICS if m in batch.series]
    timestamps = batch.get(metrics[0], cells[0]).timestamps
    tenths = 10.0 * timestamps
    off = np.flatnonzero(np.abs(tenths - np.round(tenths)) > 1e-6)
    if off.size:
        raise InputError(f"KPI timestamps are written to 0.1 s; t={timestamps[off[0]]:g} s "
                         f"is not a multiple of 0.1 s (check the step)")
    values = np.stack([batch.get(m, c).samples for m in metrics for c in cells],
                      axis=1)
    # one timestep's rows, each still missing the timestamp in front
    rows = [f",{c},{m},".replace("%", "%%") + "%.4f\n"
            for m in metrics for c in cells]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + "\n")
        for ts, row in zip(timestamps.tolist(), values):
            stamp = f"{ts:.1f}"
            fh.write((stamp + stamp.join(rows)) % tuple(row.tolist()))


def read_kpi_csv(path) -> KpiBatch:
    """Parse a KPI CSV back into a batch (no ground truth on this side).

    The columns may come in any order and the rows in any order; CRLF
    line ends and blank lines are accepted. The file is parsed in blocks
    of about _BLOCK_BYTES. Raises InputError for a bad header, a row
    without exactly four fields, a quoted field, an empty cell_id, a
    non-numeric or non-finite number, a metric outside METRICS, a
    duplicate (timestamp, cell, metric) row, and series that are
    unevenly spaced, do not share one time axis, or do not cover the
    same cells in every metric.
    """
    keys: dict[tuple[str, str], int] = {}     # (cell, metric) -> id, file order
    blocks = []                                # (key ids, timestamps, values)
    with open(path, "rb") as fh:
        cols = _kpi_csv_columns(fh.readline(), path)
        line_no = 2
        for block in _line_blocks(fh):
            n_lines = block.count(b"\n")
            where = f"{path}, lines {line_no}-{line_no + n_lines - 1}"
            blocks.append(_parse_block(block.replace(b"\r\n", b"\n"),
                                       cols, keys, where))
            line_no += n_lines
    if not keys:
        raise InputError(f"no KPI rows in {path}")
    return _assemble(list(keys), blocks, path)


def _kpi_csv_columns(header: bytes, path) -> list[int]:
    """Column index of each _CSV_HEADER name in the file's header."""
    names = header.decode("utf-8", "replace").rstrip("\r\n").split(",")
    if sorted(names) != sorted(_CSV_HEADER):
        raise InputError(f"unexpected KPI CSV header in {path}: {names}")
    return [names.index(n) for n in _CSV_HEADER]


def _line_blocks(fh):
    """The rest of a binary file in blocks of about _BLOCK_BYTES, each
    ending at a line end."""
    tail = b""
    while chunk := fh.read(_BLOCK_BYTES):
        head, nl, tail = (tail + chunk).rpartition(b"\n")
        if nl:
            yield head + nl
    if tail:
        yield tail + b"\n"


def _row_ids(rows: np.ndarray):
    """Ids of the rows of a 2-D uint8 array, equal exactly when the rows
    are, and the index of the first row with each id."""
    n, width = rows.shape
    words = np.zeros((n, -(-width // 8)), dtype=np.uint64)
    words.view(np.uint8)[:, :width] = rows
    order = np.lexsort(words.T)     # stable: equal rows keep file order
    words = words[order]
    new = np.ones(n, dtype=bool)
    new[1:] = np.any(words[1:] != words[:-1], axis=1)
    ids = np.empty(n, dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids, order[new]


def _key_ids(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, keys, where: str):
    """Id in ``keys`` of each row's (cell, metric), the bytes
    buf[lo[i, 0]:hi[i, 0]] and buf[lo[i, 1]:hi[i, 1]].

    Rows whose two fields have the same lengths are compared as raw
    bytes, so no key is padded to the longest one and the arrays stay
    the size of the key text. ``keys`` gains the new pairs in order of
    first appearance.
    """
    length = hi - lo
    shape = length[:, 0] * (int(length[:, 1].max()) + 1) + length[:, 1]
    local = np.empty(lo.shape[0], dtype=np.int64)
    names, firsts = [], []
    for s in np.unique(shape):
        rows = np.flatnonzero(shape == s)
        cell_len, metric_len = length[rows[0]].tolist()
        key = buf[np.concatenate((lo[rows, :1] + np.arange(cell_len),
                                  lo[rows, 1:] + np.arange(metric_len)), axis=1)]
        ids, first = _row_ids(key)
        local[rows] = len(names) + ids
        try:
            names += [(key[f, :cell_len].tobytes().decode(),
                       key[f, cell_len:].tobytes().decode()) for f in first]
        except UnicodeDecodeError as exc:
            raise InputError(f"KPI CSV cell or metric is not UTF-8 ({where})") from exc
        firsts += rows[first].tolist()
    lut = np.empty(len(names), dtype=np.int32)
    for u in np.argsort(firsts):
        lut[u] = keys.setdefault(names[u], len(keys))
    return lut[local]


def _parse_block(block: bytes, cols, keys, where: str):
    """(key ids, timestamps, values) of one block of whole LF-ended lines.

    Key ids index ``keys``, which gains the block's new (cell, metric)
    pairs in order of first appearance.
    """
    buf = np.frombuffer(block, dtype=np.uint8)
    if np.any(buf == _QUOTE):
        raise InputError(f"quoted KPI CSV fields are not supported ({where})")
    ends = np.flatnonzero(buf == _NL)
    starts = np.concatenate(([0], ends[:-1] + 1))
    filled = ends > starts                      # blank lines are skipped
    starts, ends = starts[filled], ends[filled]
    n = starts.size
    if n == 0:
        return np.empty(0, dtype=np.int32), np.empty(0), np.empty(0)
    commas = np.flatnonzero(buf == _COMMA)
    # 3n commas in all, the i-th three inside line i: three on every line
    if (commas.size != 3 * n or np.any(commas[0::3] < starts)
            or np.any(commas[2::3] > ends)):
        raise InputError(f"KPI CSV rows must have exactly 4 fields ({where})")
    # field k of row i is buf[sep[i, k] + 1:sep[i, k + 1]]
    sep = np.column_stack((starts - 1, commas.reshape(n, 3), ends))
    t_col, cell_col, metric_col, v_col = cols
    lo = sep[:, [cell_col, metric_col]] + 1
    hi = sep[:, [cell_col + 1, metric_col + 1]]
    if np.any(hi[:, 0] == lo[:, 0]):
        raise InputError(f"empty KPI CSV cell_id ({where})")
    ids = _key_ids(buf, lo, hi, keys, where)
    try:
        num = np.loadtxt(io.BytesIO(block), delimiter=",", usecols=(t_col, v_col),
                         comments=None, ndmin=2)
    except ValueError as exc:
        raise InputError(f"bad KPI CSV number ({where}): {exc}") from exc
    if num.shape[0] != n:
        raise InputError(f"stray line break in KPI CSV ({where})")
    return ids, num[:, 0], num[:, 1]


def _assemble(keys, blocks, path) -> KpiBatch:
    """Group the parsed rows into series and check that they form a batch.

    Empties ``blocks`` once joined and replaces each column by its sorted
    copy in turn, so the rows are held about once, not three times over.
    """
    ids, stamps, values = (np.concatenate(col) for col in zip(*blocks))
    blocks.clear()
    for cell, metric in keys:
        if metric not in METRICS:
            raise InputError(f"unknown metric {metric!r} for cell {cell!r} in "
                             f"{path}; expected one of {METRICS}")
    bad = np.flatnonzero(~(np.isfinite(stamps) & np.isfinite(values)))
    if bad.size:
        i = bad[0]
        cell, metric = keys[ids[i]]
        raise InputError(f"non-finite KPI row in {path}: {cell} {metric} at "
                         f"t={stamps[i]}, value {values[i]}")
    order = np.lexsort((stamps, ids))
    ids = ids[order]
    stamps = stamps[order]
    values = values[order]
    dup = np.flatnonzero((ids[1:] == ids[:-1]) & (stamps[1:] == stamps[:-1]))
    if dup.size:
        cell, metric = keys[ids[dup[0]]]
        raise InputError(f"duplicate KPI row in {path}: {cell} {metric} at "
                         f"t={stamps[dup[0]]}")

    bounds = np.searchsorted(ids, np.arange(len(keys) + 1))
    lengths = np.diff(bounds)
    if np.any(lengths != lengths[0]):
        k = int(np.argmax(lengths != lengths[0]))
        raise InputError(f"KPI series differ in length in {path}: "
                         f"{keys[0]} has {lengths[0]} samples, {keys[k]} {lengths[k]}")
    stamps = stamps.reshape(len(keys), -1)
    differ = stamps != stamps[0]
    if np.any(differ):
        k, i = np.unravel_index(np.argmax(differ), differ.shape)
        raise InputError(f"KPI series do not share one time axis in {path}: "
                         f"sample {i} of {keys[k]} is at t={stamps[k, i]}, "
                         f"of {keys[0]} at t={stamps[0, i]}")
    axis = stamps[0]
    dt = float(axis[1] - axis[0]) if axis.size > 1 else 1.0
    # decimal timestamps parse to within half an ulp, so a step of an even
    # grid matches dt to a few ulps of the largest timestamp
    tol = 8 * np.spacing(np.abs(axis).max())
    uneven = np.flatnonzero(np.abs(np.diff(axis) - dt) > tol)
    if uneven.size:
        raise InputError(f"KPI timestamps in {path} are not evenly spaced: step "
                         f"{dt:g} s, then t={axis[uneven[0]]} -> {axis[uneven[0] + 1]}")

    values = values.reshape(len(keys), -1)
    series: dict[str, dict[str, KpiSeries]] = {}
    for (cell, metric), samples in zip(keys, values):
        series.setdefault(metric, {})[cell] = KpiSeries(
            cell, metric, float(axis[0]), dt, samples)
    cell_sets = {metric: set(by_cell) for metric, by_cell in series.items()}
    first_metric = next(iter(cell_sets))
    for metric, cells in cell_sets.items():
        if cells != cell_sets[first_metric]:
            raise InputError(f"{metric} and {first_metric} cover different cells in "
                             f"{path}: {sorted(cells ^ cell_sets[first_metric])}")
    return KpiBatch(series=series)


def write_ground_truth(batch: KpiBatch, path) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(_TruthFile(tuple(batch.ground_truth))), fh, indent=2)
        fh.write("\n")


def read_ground_truth(path) -> list[GroundTruth]:
    """The sealed ground truth; InputError if unreadable or wrongly shaped."""
    data = read_json_object(path, "ground-truth", InputError)
    return list(from_json(_TruthFile, data, path, InputError).ground_truth)
