"""Network data model and scenario file handling.

A scenario is the single source of truth for both the simulation side and
the twin side: sites with sector antennas, declared frequency bands,
external interferers and the service area. Scenarios are loaded from a
versioned JSON file, validated against the invariants below and treated
as immutable afterwards (all types are frozen dataclasses), so they can
be shared read-only across parallel workers.

Conventions: positions are local planar coordinates in meters (no
geodetic CRS), powers in dBm, frequencies in GHz, bandwidths in MHz.
Azimuths are degrees clockwise from the +y axis ("north").
"""

import dataclasses
import functools
import json
import math
import sys
import typing
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import InputError, ScenarioParseError, ScenarioValidationError
from .propagation import (FC_MAX_GHZ, FC_MIN_GHZ, H_BS_MAX_M, H_BS_MIN_M, H_UT_MAX_M,
                          H_UT_MIN_M, noise_floor_dbm)

SCHEMA_VERSION = 1

ENVIRONMENTS = ("UMa", "UMi")
DUPLEX_MODES = ("TDD", "FDD")

# Positions may sit slightly outside the declared area: interferers just
# outside the cluster must be expressible. Margin is this fraction of the
# area diagonal.
OUT_OF_AREA_MARGIN_FRACTION = 0.10


@dataclass(frozen=True)
class Rect:
    min_x: float
    min_y: float
    max_x: float
    max_y: float

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def diagonal(self) -> float:
        return (self.width ** 2 + self.height ** 2) ** 0.5

    def contains(self, x: float, y: float, margin: float = 0.0) -> bool:
        return (self.min_x - margin <= x <= self.max_x + margin
                and self.min_y - margin <= y <= self.max_y + margin)


@dataclass(frozen=True)
class Band:
    id: str
    center_freq_ghz: float
    bandwidth_mhz: float
    duplex: str = "TDD"
    throughput_cap_mbps: Optional[float] = None


@dataclass(frozen=True)
class Sector:
    id: str
    azimuth_deg: float
    band_ref: str
    tx_power_dbm: float
    antenna_gain_dbi: float = 17.0
    beamwidth_3db_deg: float = 65.0
    front_to_back_db: float = 25.0


@dataclass(frozen=True)
class Site:
    id: str
    position: tuple[float, float]
    height_m: float
    sectors: tuple[Sector, ...]


@dataclass(frozen=True)
class Interferer:
    id: str
    position: tuple[float, float]
    height_m: float
    tx_power_dbm: float
    band_ref: str
    # Half-open [start_s, end_s) activity windows, sorted, non-overlapping.
    active_intervals: tuple[tuple[float, float], ...] = ()

    def active_at(self, t_s: float) -> bool:
        return any(a <= t_s < b for a, b in self.active_intervals)


@dataclass(frozen=True)
class UserTerminalProfile:
    height_m: float = 1.5
    noise_figure_db: float = 7.0
    body_loss_db: float = 0.0


@dataclass(frozen=True)
class TwinConfig:
    """Knobs for the synthetic OSS feed (see the twin module)."""
    rtwp_baseline_dbm: Optional[float] = None  # None: thermal floor per band
    bts_noise_figure_db: float = 5.0
    load_offset_db: Optional[float] = -10.0    # load power relative to baseline; None disables
    load_amplitude_db: float = 1.0
    load_jitter_db: float = 1.0
    measurement_noise_db: float = 0.5
    serving_traffic_dbm: float = -95.0


@dataclass(frozen=True)
class Scenario:
    name: str
    area: Rect
    environment: str
    sites: tuple[Site, ...]
    interferers: tuple[Interferer, ...]
    bands: tuple[Band, ...]
    grid_resolution_m: float
    seed: int
    ut_profile: UserTerminalProfile = UserTerminalProfile()
    twin: TwinConfig = TwinConfig()
    link_budget: Optional[dict[str, float]] = None
    schema_version: int = SCHEMA_VERSION

    def sectors(self) -> Iterator[tuple[Site, Sector]]:
        for site in self.sites:
            for sector in site.sectors:
                yield site, sector

    def band_by_id(self, band_id: str) -> Band:
        for band in self.bands:
            if band.id == band_id:
                return band
        raise KeyError(band_id)

    def sector_by_id(self, sector_id: str) -> tuple[Site, Sector]:
        for site, sector in self.sectors():
            if sector.id == sector_id:
                return site, sector
        raise KeyError(sector_id)

    @property
    def sector_ids(self) -> list[str]:
        return [sec.id for _, sec in self.sectors()]

    def require_sectors(self, ids, what: str) -> None:
        """InputError naming the first of ids, in their order, that is no sector id."""
        _require(ids, set(self.sector_ids), what)

    def require_bands(self, ids, what: str) -> None:
        """InputError naming the first of ids, in their order, that is no band id."""
        _require(ids, {b.id for b in self.bands}, what)


def _require(ids, known: set[str], what: str) -> None:
    for i in ids:
        if i not in known:
            raise InputError(f"{what} {i!r} not in scenario")


def cell_baseline_dbm(scenario: Scenario, band: Band) -> float:
    """A sector's RTWP without load or interference: the configured
    baseline, or else the band's thermal noise floor."""
    if scenario.twin.rtwp_baseline_dbm is not None:
        return scenario.twin.rtwp_baseline_dbm
    return noise_floor_dbm(band.bandwidth_mhz, scenario.twin.bts_noise_figure_db)


@dataclass(frozen=True)
class Violation:
    code: str
    path: str
    message: str


def validate(scenario: Scenario) -> list[Violation]:
    """Check every scenario invariant; violations are values, not errors."""
    v: list[Violation] = []

    def bad(code, path, message):
        v.append(Violation(code, path, message))

    def in_range(code, path, value, lo, hi, unit):
        # None is an unset optional field
        if value is not None and not (lo <= value <= hi):
            bad(code, path, f"{path.rsplit('.', 1)[1]} must lie in [{lo:g}, {hi:g}] {unit}")

    def positive(code, path, *values, message=None):
        # finite and > 0, so a NaN, which fails every comparison, is bad too
        if not all(0 < x < math.inf for x in values):
            bad(code, path, message or f"{path.rsplit('.', 1)[-1]} must be > 0")

    positive("AREA_EMPTY", "area", scenario.area.width, scenario.area.height,
             message="area must have positive width and height")
    positive("GRID_RESOLUTION", "grid_resolution_m", scenario.grid_resolution_m)
    if scenario.environment not in ENVIRONMENTS:
        bad("ENVIRONMENT", "environment", f"environment must be one of {ENVIRONMENTS}")
    if not scenario.sites:
        bad("NO_SITES", "sites", "at least one site is required")
    if not (0 <= scenario.seed < 2 ** 64):
        bad("SEED_RANGE", "seed", "seed must be an unsigned 64-bit integer")
    if scenario.schema_version != SCHEMA_VERSION:     # load_scenario refuses its file
        bad("SCHEMA_VERSION", "schema_version", f"schema_version must be {SCHEMA_VERSION}")

    band_ids = [b.id for b in scenario.bands]
    if len(set(band_ids)) != len(band_ids):
        bad("DUPLICATE_ID", "bands", "band ids must be unique")
    for i, band in enumerate(scenario.bands):
        path = f"bands[{i}]"
        in_range("FREQ_RANGE", f"{path}.center_freq_ghz", band.center_freq_ghz,
                 FC_MIN_GHZ, FC_MAX_GHZ, "GHz")
        positive("BANDWIDTH_RANGE", f"{path}.bandwidth_mhz", band.bandwidth_mhz)
        if band.duplex not in DUPLEX_MODES:
            bad("DUPLEX_MODE", f"{path}.duplex", f"duplex must be one of {DUPLEX_MODES}")
        if band.throughput_cap_mbps is not None:
            positive("THROUGHPUT_CAP", f"{path}.throughput_cap_mbps", band.throughput_cap_mbps)

    margin = OUT_OF_AREA_MARGIN_FRACTION * scenario.area.diagonal
    site_ids = [s.id for s in scenario.sites]
    if len(set(site_ids)) != len(site_ids):
        bad("DUPLICATE_ID", "sites", "site ids must be unique")
    all_sector_ids = scenario.sector_ids
    if len(set(all_sector_ids)) != len(all_sector_ids):
        bad("DUPLICATE_ID", "sites[*].sectors", "sector ids must be unique")

    for i, site in enumerate(scenario.sites):
        path = f"sites[{i}]"
        in_range("HEIGHT_RANGE", f"{path}.height_m", site.height_m, H_BS_MIN_M, H_BS_MAX_M, "m")
        if not scenario.area.contains(*site.position, margin=margin):
            bad("OUT_OF_AREA", f"{path}.position",
                "site position lies outside area plus margin")
        for j, sector in enumerate(site.sectors):
            spath = f"{path}.sectors[{j}]"
            # a lone surrogate, which JSON can hold, has no UTF-8 encoding
            if not sector.id or any(c in ',"\r\n' or "\ud800" <= c <= "\udfff"
                                    for c in sector.id):
                bad("SECTOR_ID", f"{spath}.id", "sector id must be non-empty, without a "
                    "comma, quote, CR, LF or lone surrogate, which the CSV outputs "
                    "cannot carry")
            if sector.band_ref not in band_ids:
                bad("UNKNOWN_BAND", f"{spath}.band_ref",
                    f"sector references undeclared band {sector.band_ref!r}")
            if not (0.0 <= sector.azimuth_deg < 360.0):
                bad("AZIMUTH_RANGE", f"{spath}.azimuth_deg", "azimuth_deg must lie in [0, 360)")
            in_range("TX_POWER_RANGE", f"{spath}.tx_power_dbm", sector.tx_power_dbm,
                     -30.0, 60.0, "dBm")
            in_range("GAIN_RANGE", f"{spath}.antenna_gain_dbi", sector.antenna_gain_dbi,
                     -30.0, 60.0, "dBi")
            if not (0.0 < sector.beamwidth_3db_deg <= 360.0):
                bad("BEAMWIDTH_RANGE", f"{spath}.beamwidth_3db_deg",
                    "beamwidth_3db_deg must lie in (0, 360]")
            positive("FRONT_TO_BACK", f"{spath}.front_to_back_db", sector.front_to_back_db)

    intf_ids = [x.id for x in scenario.interferers]
    if len(set(intf_ids)) != len(intf_ids):
        bad("DUPLICATE_ID", "interferers", "interferer ids must be unique")
    for i, intf in enumerate(scenario.interferers):
        path = f"interferers[{i}]"
        if intf.band_ref not in band_ids:
            bad("UNKNOWN_BAND", f"{path}.band_ref",
                f"interferer references undeclared band {intf.band_ref!r}")
        positive("HEIGHT_RANGE", f"{path}.height_m", intf.height_m,
                 message="interferer height_m must be > 0")
        in_range("TX_POWER_RANGE", f"{path}.tx_power_dbm", intf.tx_power_dbm,
                 -30.0, 60.0, "dBm")
        if not scenario.area.contains(*intf.position, margin=margin):
            bad("OUT_OF_AREA", f"{path}.position",
                "interferer position lies outside area plus margin")
        prev_end = -sys.float_info.max      # with float_info.max below: bounds are finite
        for k, (a, b) in enumerate(intf.active_intervals):
            if not prev_end <= a < b <= sys.float_info.max:
                bad("INTERVALS_INVALID", f"{path}.active_intervals[{k}]",
                    "active intervals must be sorted, non-overlapping [start, end) pairs")
                break
            prev_end = b

    # the level bounds keep every dB sum, and the JSON written from it, finite
    ut, tw = scenario.ut_profile, scenario.twin
    in_range("UT_HEIGHT_RANGE", "ut_profile.height_m", ut.height_m, H_UT_MIN_M, H_UT_MAX_M, "m")
    in_range("LEVEL_RANGE", "ut_profile.noise_figure_db", ut.noise_figure_db, 0, 30, "dB")
    in_range("LEVEL_RANGE", "ut_profile.body_loss_db", ut.body_loss_db, 0, 30, "dB")
    in_range("LEVEL_RANGE", "twin.bts_noise_figure_db", tw.bts_noise_figure_db, 0, 30, "dB")
    in_range("LEVEL_RANGE", "twin.load_amplitude_db", tw.load_amplitude_db, 0, 30, "dB")
    in_range("LEVEL_RANGE", "twin.load_jitter_db", tw.load_jitter_db, 0, 30, "dB")
    in_range("LEVEL_RANGE", "twin.measurement_noise_db", tw.measurement_noise_db, 0, 30, "dB")
    in_range("LEVEL_RANGE", "twin.load_offset_db", tw.load_offset_db, -60, 60, "dB")
    in_range("LEVEL_RANGE", "twin.rtwp_baseline_dbm", tw.rtwp_baseline_dbm, -200, 0, "dBm")
    in_range("LEVEL_RANGE", "twin.serving_traffic_dbm", tw.serving_traffic_dbm, -200, 0, "dBm")
    budget = scenario.link_budget or {}
    limits = {"tx_power_dbm": (-30, 60, "dBm"), "tx_antenna_gain_dbi": (-30, 60, "dBi"),
              "rx_antenna_gain_dbi": (-30, 60, "dBi"), "cable_loss_db": (0, 60, "dB"),
              "penetration_loss_db": (0, 60, "dB"), "interference_margin_db": (0, 60, "dB"),
              "shadow_margin_db": (0, 60, "dB"), "required_sinr_db": (-30, 60, "dB")}
    for key, (lo, hi, unit) in limits.items():
        in_range("LINK_BUDGET", f"link_budget.{key}", budget.get(key), lo, hi, unit)
    # the UT profile sets the noise figure and body loss, each band its bandwidth
    for key in sorted(budget.keys() - limits.keys()):
        bad("LINK_BUDGET", f"link_budget.{key}",
            f"unknown key; link_budget takes only {', '.join(limits)}")

    return v


# ---------------------------------------------------------------------------
# JSON (de)serialization

# Fields a scenario file may leave out although the dataclass requires
# them. Every other default is the dataclass's own.
FILE_DEFAULTS = {
    Scenario: {"name": "unnamed", "interferers": (), "grid_resolution_m": 50.0,
               "seed": 0},
    Site: {"height_m": 25.0, "sectors": ()},
    Sector: {"azimuth_deg": 0.0, "tx_power_dbm": 43.0},
    Interferer: {"height_m": 1.5, "tx_power_dbm": 20.0},
}


class _Mismatch(Exception):
    """A JSON value that does not fit its annotation."""


def _expect(ok, what, value, where):
    if not ok:
        raise _Mismatch(f"{where}: expected {what}, got {value!r:.40}")
    return value


def _finite(value) -> bool:
    """A JSON int or float (not a bool) that a float holds finitely."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


@functools.cache
def _fields(cls):
    """cls's field annotations, and the fields a file has to give."""
    hints, fields = typing.get_type_hints(cls), dataclasses.fields(cls)
    required = {f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING}
    return ({f.name: hints[f.name] for f in fields},
            required - FILE_DEFAULTS.get(cls, {}).keys())


def _read(tp, value, where):
    """A parsed JSON value as annotation tp, checked all the way down;
    where is its field path, for the error message."""
    if tp is float:
        return float(_expect(_finite(value), "a finite number", value, where))
    if tp is int or tp is str:
        return _expect(type(value) is tp, "an integer" if tp is int else "a string",
                       value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:                  # Optional[X]
        return None if value is None else _read(args[0], value, where)
    if origin is dict or dataclasses.is_dataclass(tp):
        _expect(type(value) is dict, "an object", value, where)
        prefix = where and where + "."
        if origin is dict:                      # dict[str, X]
            return {k: _read(args[1], v, prefix + k) for k, v in value.items()}
        types, required = _fields(tp)
        if not value.keys() <= types.keys():
            raise _Mismatch(f"{prefix}{min(value.keys() - types.keys())}: unknown field")
        if not required <= value.keys():
            raise _Mismatch(f"{prefix}{min(required - value.keys())}: "
                            "missing required field")
        return tp(**FILE_DEFAULTS.get(tp, {}) | {
            k: _read(types[k], v, prefix + k) for k, v in value.items()})
    if origin is not tuple:
        raise TypeError(f"no JSON reader for {tp}")
    _expect(type(value) is list, "an array", value, where)
    items = [args[0]] * len(value) if args[-1] is Ellipsis else args
    _expect(len(items) == len(value), f"an array of {len(items)}", value, where)
    return tuple(_read(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(items, value)))


def from_json(cls, obj, path, error: type[Exception]):
    """Dataclass cls built from a parsed JSON object, each field checked
    against its annotation. An unknown key, a missing required field or a
    mistyped value raises error naming the file and the field path."""
    try:
        return _read(cls, obj, "")
    except _Mismatch as exc:
        raise error(f"{path}: {exc}") from None


def _finite_float(text) -> float:
    value = float(text)                 # NaN and Infinity arrive here too
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def read_json_object(path, what: str, error: type[Exception]) -> dict:
    """The JSON object in a file, or error naming the path and the fault."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=_finite_float,
                             parse_float=_finite_float)
    except OSError as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc
    except ValueError as exc:           # bad syntax, not UTF-8, or non-finite
        raise error(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{what} file {path} must contain a JSON object")
    return data


def write_json(path, data) -> None:
    """data as rfplan writes every JSON file: indented, keys sorted, one final
    LF. The text is built before the file is opened, so a NaN or an infinity,
    which JSON cannot hold, raises ValueError and leaves no file."""
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_scenario(path) -> Scenario:
    """Load, default-fill and validate a scenario JSON file.

    Raises ScenarioParseError on malformed input and
    ScenarioValidationError naming the first violated invariant.
    """
    data = read_json_object(path, "scenario", ScenarioParseError)
    scenario = from_json(Scenario, data, path, ScenarioParseError)
    if scenario.schema_version != SCHEMA_VERSION:
        raise ScenarioParseError(
            f"{path}: unsupported schema_version {scenario.schema_version} "
            f"(expected {SCHEMA_VERSION})")
    violations = validate(scenario)
    if violations:
        error = ScenarioValidationError(violations)
        error.args = (f"{path}: {error}",)      # name the file, as parse errors do
        raise error
    return scenario


def save_scenario(scenario: Scenario, path) -> None:
    write_json(path, dataclasses.asdict(scenario))
