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

import json
import math
from array import array
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _csvtext, propagation
from ._csvtext import (_COMMA, _NEWLINE, _fixed_numbers, _fixed_text,
                       _line_blocks, _lines, _text_table)
from .errors import InputError
from .planning import noise_floor_dbm
from .scenario import Scenario, from_json, read_json_object

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


def coupling_dbm(scenario: Scenario) -> np.ndarray:
    """Interferer power coupled into each sector's receiver, dBm.

    Shape (interferers, sectors), sectors in scenario.sectors() order.
    NLOS pathloss from interferer to site (conservative), plus the sector
    antenna gain toward the interferer; a sector on another band gets the
    -inf sentinel, no contribution. Distance, bearing and pathloss are
    computed once per site, the pattern once per sector.
    """
    sectors = [sec for _, sec in scenario.sectors()]
    site_of = np.repeat(np.arange(len(scenario.sites)),
                        [len(site.sectors) for site in scenario.sites])
    xy = np.array([site.position for site in scenario.sites],
                  dtype=float).reshape(-1, 2)
    h_bs = np.array([site.height_m for site in scenario.sites], dtype=float)
    band = np.array([sec.band_ref for sec in sectors])
    azimuth = np.array([sec.azimuth_deg for sec in sectors], dtype=float)
    gain_dbi = np.array([sec.antenna_gain_dbi for sec in sectors], dtype=float)
    pattern = propagation.AntennaPattern(
        np.array([sec.beamwidth_3db_deg for sec in sectors], dtype=float),
        np.array([sec.front_to_back_db for sec in sectors], dtype=float))
    out = np.full((len(scenario.interferers), len(sectors)), -np.inf)
    for i, intf in enumerate(scenario.interferers):
        co_band = band == intf.band_ref
        dx = intf.position[0] - xy[:, 0]
        dy = intf.position[1] - xy[:, 1]
        d2d = np.maximum(np.hypot(dx, dy), propagation.D2D_MIN_M)
        # Uplink into the BTS antenna: BS height on the receive side, the
        # interferer plays the terminal role.
        h_ut = min(max(intf.height_m, propagation.H_UT_MIN_M), propagation.H_UT_MAX_M)
        pl = propagation.pathloss_db_clamped(
            d2d, scenario.band_by_id(intf.band_ref).center_freq_ghz, h_bs, h_ut,
            scenario.environment, "NLOS")[site_of]
        gain = gain_dbi - pattern.attenuation_db(propagation.bearing_deg(dx, dy)[site_of] - azimuth)
        out[i, co_band] = (intf.tx_power_dbm - pl + gain)[co_band]
    return out


def cell_baseline_dbm(scenario: Scenario, band) -> float:
    """A sector's RTWP without load or interference: the configured
    baseline, or else the band's thermal noise floor."""
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
    if not 0 < dt_s <= duration_s < math.inf:         # false for NaN too
        raise InputError(f"duration_s and dt_s must be finite with 0 < dt_s "
                         f"<= duration_s, got {duration_s} and {dt_s}")
    if not scenario.sites:
        raise InputError("scenario has no sectors")
    seed = scenario.seed if seed is None else seed
    cfg = scenario.twin
    t = dt_s * np.arange(int(duration_s // dt_s))
    diurnal = cfg.load_amplitude_db * np.sin(2.0 * np.pi * t / DAY_S)
    traffic_lin = 10.0 ** ((cfg.serving_traffic_dbm + diurnal) / 10.0)
    coupling = coupling_dbm(scenario)
    # Interferer.active_at over the whole axis: half-open [a, b)
    active = np.zeros((len(scenario.interferers), t.size), dtype=bool)
    for on, intf in zip(active, scenario.interferers):
        for a, b in intf.active_intervals:
            on |= (t >= a) & (t < b)

    series: dict[str, dict[str, KpiSeries]] = {m: {} for m in METRICS}
    for k, (_, sector) in enumerate(scenario.sectors()):
        band = scenario.band_by_id(sector.band_ref)
        baseline_dbm = cell_baseline_dbm(scenario, band)
        base_lin = 10.0 ** (baseline_dbm / 10.0)

        rng = propagation.keyed_rng(seed, sector.id, propagation._STREAM_TWIN)
        jitter = cfg.load_jitter_db * rng.standard_normal(t.size)
        meas_rtwp = cfg.measurement_noise_db * rng.standard_normal(t.size)
        meas_rssi = cfg.measurement_noise_db * rng.standard_normal(t.size)

        if cfg.load_offset_db is None:
            load_lin = np.zeros(t.size)
        else:
            load_dbm = baseline_dbm + cfg.load_offset_db + diurnal + jitter
            load_lin = 10.0 ** (load_dbm / 10.0)

        intf_lin = np.zeros(t.size)
        for c_dbm, on in zip(coupling[:, k].tolist(), active):
            intf_lin += on * 10.0 ** (c_dbm / 10.0)     # 0 mW off-band

        power_lin = base_lin + load_lin + intf_lin
        rtwp = 10.0 * np.log10(power_lin) + meas_rtwp
        rssi = 10.0 * np.log10(power_lin + traffic_lin) + meas_rssi

        series["RTWP"][sector.id] = KpiSeries(sector.id, "RTWP", 0.0, dt_s, rtwp)
        series["RSSI"][sector.id] = KpiSeries(sector.id, "RSSI", 0.0, dt_s, rssi)

    truth = [GroundTruth(i.id, i.position, i.tx_power_dbm, i.band_ref,
                         i.active_intervals)
             for i in scenario.interferers]
    return KpiBatch(series=series, ground_truth=truth)


def excess_matrix(batch: KpiBatch, baseline_window: int,
                  metric: str = "RTWP") -> np.ndarray:
    """The metric's series as one (cells x T) array in batch.cells() order,
    each row relative to the median of its leading baseline window."""
    if metric not in batch.series:
        raise InputError(f"no {metric} series in the KPI batch "
                         f"(it has {', '.join(batch.series)})")
    series = [batch.get(metric, cell).samples for cell in batch.cells()]
    if len({s.size for s in series}) > 1:
        raise InputError("series length mismatch")
    x = np.array(series, dtype=float)
    n = x.shape[1]
    if not (0 < baseline_window < n):
        raise InputError(
            f"baseline_window {baseline_window} must lie in (0, {n})")
    x -= np.median(x[:, :baseline_window], axis=1, keepdims=True)
    return x


def batch_excess(batch: KpiBatch, baseline_window: int,
                 metric: str = "RTWP") -> dict[str, np.ndarray]:
    """excess_matrix's rows by cell id."""
    return dict(zip(batch.cells(), excess_matrix(batch, baseline_window, metric)))


# ---------------------------------------------------------------------------
# Wire format between the physical and twin sides


_CSV_HEADER = ("timestamp_s", "cell_id", "metric", "value_dbm")
_HEADER_LINE = ",".join(_CSV_HEADER).encode() + b"\n"


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
    keys = [(c, m) for m in metrics for c in cells]
    values = np.stack([batch.get(m, c).samples for c, m in keys], axis=1).ravel()
    keys = _text_table([f",{cell},{metric}," for cell, metric in keys])
    # a row is its key text and about 20 bytes of stamp, value and LF; the
    # step only sizes the blocks, not what they hold
    step = max(1, _csvtext._TEXT_BLOCK_BYTES // (keys.itemsize + 20))
    with open(path, "wb") as fh:
        fh.write(_HEADER_LINE)
        for i in range(0, values.size, step):
            fh.write(_kpi_rows(timestamps[i // len(keys):], keys, values[i:i + step], i))


def _kpi_rows(axis, keys, values, row) -> bytes:
    """The KPI CSV lines of rows row, row + 1, ... of a file whose rows run
    timestep by timestep, each timestep's in keys order: row i is the
    sample values[i - row], at the timestamp axis[i // K - row // K], of
    the series whose text ",cell,metric," is keys[i % K], K = len(keys)."""
    off = row % len(keys)
    span = -(-(off + values.size) // len(keys))     # timesteps the rows touch
    rows = slice(off, off + values.size)
    return _lines((np.repeat(_fixed_text(axis[:span], 1), len(keys))[rows],
                   np.tile(keys, span)[rows], _fixed_text(values, 4)))


def read_kpi_csv(path) -> KpiBatch:
    """Parse a KPI CSV back into a batch (no ground truth on this side).

    The columns may come in any order and the rows in any order; CRLF
    line ends and blank lines are accepted. Raises InputError for a file
    that cannot be read, a bad header, a row without exactly four
    fields, a quoted field, a bare CR, an empty cell_id, a number
    float() does not read or that has an underscore, a non-finite
    number, a metric outside METRICS, a duplicate (timestamp, cell,
    metric) row, and series that are unevenly spaced, do not share one
    time axis, or do not cover the same cells in every metric; an error
    in one row names its line.

    A file that is, byte for byte, what write_kpi_csv writes for the
    batch it holds is read by _read_own; any other file is read from the
    start again by the general reader (_read_general). Both give the
    same batch, and the same error text, for every file.
    """
    try:
        batch = _read_own(path)
        return _read_general(path) if batch is None else batch
    except OSError as exc:
        raise InputError(f"cannot read KPI CSV file {path}: {exc}") from exc


def _read_general(path) -> KpiBatch:
    """read_kpi_csv for rows and columns in any order, one row at a time."""
    ids_of: dict[tuple[bytes, bytes], int] = {}    # (cell, metric) -> id, file order
    keys = []                                       # the decoded (cell, metric) of each id
    ids, stamps, values = array("i"), array("d"), array("d")

    def bad_row(what: str) -> InputError:
        return InputError(f"{what} ({path}, line {line_no})")

    with open(path, "rb") as fh:
        t_col, cell_col, metric_col, v_col = _kpi_csv_columns(fh.readline(), path)
        for line_no, line in enumerate(fh, 2):
            line = line.removesuffix(b"\n").removesuffix(b"\r")
            if not line:
                continue
            if b'"' in line:
                raise bad_row("quoted KPI CSV fields are not supported")
            fields = line.split(b",")
            if len(fields) != 4:
                raise bad_row("KPI CSV rows must have exactly 4 fields")
            if b"\r" in line:
                raise bad_row("stray line break in KPI CSV")
            key = fields[cell_col], fields[metric_col]
            k = ids_of.get(key)
            if k is None:
                if not key[0]:
                    raise bad_row("empty KPI CSV cell_id")
                try:
                    keys.append((key[0].decode(), key[1].decode()))
                except UnicodeDecodeError:
                    raise bad_row("KPI CSV cell or metric is not UTF-8") from None
                k = ids_of[key] = len(ids_of)
            t, v = fields[t_col], fields[v_col]
            try:
                if b"_" in t or b"_" in v:      # float() would read 1_0.5 as 10.5
                    raise ValueError
                t, v = float(t), float(v)
            except ValueError:
                raise bad_row(f"bad KPI CSV number in {line.decode(errors='replace')!r}") \
                    from None
            ids.append(k)
            stamps.append(t)
            values.append(v)
    if not keys:
        raise InputError(f"no KPI rows in {path}")
    return _assemble(keys, np.frombuffer(ids, dtype=np.intc), np.frombuffer(stamps),
                     np.frombuffer(values), path)


def _read_own(path) -> KpiBatch | None:
    """read_kpi_csv for a file that write_kpi_csv writes for the batch it
    holds, or None for any other file.

    The rows of the first timestep give the keys, which must be ones the
    general reader takes: distinct, UTF-8, with a cell, and without a CR
    or a quote. Then, block by block, each row's value and the timestamp
    of each timestep that starts in the block are parsed in the writer's
    forms (_fixed_numbers), and the block must equal _kpi_rows of them:
    the first block that differs ends the read. When every block is
    equal, the general reader would parse the same numbers from the same
    rows and pass every check before _check_metrics and _batch, which
    both share.
    """
    with open(path, "rb") as fh:
        if fh.readline() != _HEADER_LINE:
            return None
        lines, head = [], []    # the lines read, the fields of the first timestep's rows
        for line in fh:
            lines.append(line)
            fields = line.split(b",")
            if len(fields) != 4 or b"\r" in line or b'"' in line:
                return None
            if head and fields[0] != head[0][0]:
                break
            head.append(fields)
        try:
            keys = [(cell.decode(), metric.decode()) for _, cell, metric, _ in head]
        except UnicodeDecodeError:
            return None
        if not keys or len(set(keys)) != len(keys) or not all(cell for cell, _ in keys):
            return None
        key_text = _text_table([f",{cell},{metric}," for cell, metric in keys])
        axis, values, rows = [], [], 0
        for block in _line_blocks(fh, b"".join(lines)):
            # 16 bytes before the block and 8 after it for _fixed_numbers' word reads
            buf = np.zeros(len(block) + 24, dtype=np.uint8)
            buf[16:-8] = np.frombuffer(block, dtype=np.uint8)
            ends = np.flatnonzero(buf == _NEWLINE)
            commas = np.flatnonzero(buf == _COMMA)
            if commas.size != 3 * ends.size or not block.endswith(b"\n"):
                return None
            first = np.arange(-rows % len(keys), ends.size, len(keys))    # open a timestep
            axis += _fixed_numbers(buf, np.append(15, ends)[first] + 1, commas[3 * first],
                                   1).tolist()
            v = _fixed_numbers(buf, commas[2::3] + 1, ends, 4)
            if _kpi_rows(axis[rows // len(keys):], key_text, v, rows) != block:
                return None
            values.append(v)
            rows += ends.size
        axis = np.array(axis)
        if rows % len(keys) or np.any(axis[1:] <= axis[:-1]):
            return None
        values = np.concatenate(values)     # drops the blocks before the transposed copy
    _check_metrics(keys, path)
    return _batch(keys, axis, values.reshape(-1, len(keys)).T.copy(), path)


def _kpi_csv_columns(header: bytes, path) -> list[int]:
    """Column index of each _CSV_HEADER name in the file's header."""
    names = header.decode("utf-8", "replace").rstrip("\r\n").split(",")
    if sorted(names) != sorted(_CSV_HEADER):
        raise InputError(f"unexpected KPI CSV header in {path}: {names}")
    return [names.index(n) for n in _CSV_HEADER]


def _assemble(keys, ids, stamps, values, path) -> KpiBatch:
    """Group the parsed rows, row i being series keys[ids[i]] at stamps[i]
    with value values[i], into series and check that they form a batch."""
    _check_metrics(keys, path)
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
    return _batch(keys, stamps[0], values.reshape(len(keys), -1), path)


def _check_metrics(keys, path) -> None:
    for cell, metric in keys:
        if metric not in METRICS:
            raise InputError(f"unknown metric {metric!r} for cell {cell!r} in "
                             f"{path}; expected one of {METRICS}")


def _batch(keys, axis, values, path) -> KpiBatch:
    """The batch of series keys[k] = (cell, metric) with samples
    values[k] at the rising timestamps axis. Raises InputError if the
    axis is not evenly spaced or the metrics cover different cells."""
    dt = float(axis[1] - axis[0]) if axis.size > 1 else 1.0
    # decimal timestamps parse to within half an ulp, so a step of an even
    # grid matches dt to a few ulps of the largest timestamp
    tol = 8 * np.spacing(np.abs(axis).max())
    uneven = np.flatnonzero(np.abs(np.diff(axis) - dt) > tol)
    if uneven.size:
        raise InputError(f"KPI timestamps in {path} are not evenly spaced: step "
                         f"{dt:g} s, then t={axis[uneven[0]]} -> {axis[uneven[0] + 1]}")
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
