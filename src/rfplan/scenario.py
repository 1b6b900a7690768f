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

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Iterator, Optional

from .errors import ScenarioParseError, ScenarioValidationError

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
    link_budget: Optional[dict] = None
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

    if scenario.area.width <= 0 or scenario.area.height <= 0:
        bad("AREA_EMPTY", "area", "area must have positive width and height")
    if scenario.grid_resolution_m <= 0:
        bad("GRID_RESOLUTION", "grid_resolution_m", "grid_resolution_m must be > 0")
    if scenario.environment not in ENVIRONMENTS:
        bad("ENVIRONMENT", "environment", f"environment must be one of {ENVIRONMENTS}")
    if not scenario.sites:
        bad("NO_SITES", "sites", "at least one site is required")
    if not (0 <= scenario.seed < 2 ** 64):
        bad("SEED_RANGE", "seed", "seed must be an unsigned 64-bit integer")

    band_ids = [b.id for b in scenario.bands]
    if len(set(band_ids)) != len(band_ids):
        bad("DUPLICATE_ID", "bands", "band ids must be unique")
    for i, band in enumerate(scenario.bands):
        path = f"bands[{i}]"
        if not (0.5 <= band.center_freq_ghz <= 100.0):
            bad("FREQ_RANGE", f"{path}.center_freq_ghz",
                "center_freq_ghz must lie in [0.5, 100] GHz")
        if band.bandwidth_mhz <= 0:
            bad("BANDWIDTH_RANGE", f"{path}.bandwidth_mhz", "bandwidth_mhz must be > 0")
        if band.duplex not in DUPLEX_MODES:
            bad("DUPLEX_MODE", f"{path}.duplex", f"duplex must be one of {DUPLEX_MODES}")

    margin = OUT_OF_AREA_MARGIN_FRACTION * scenario.area.diagonal
    site_ids = [s.id for s in scenario.sites]
    if len(set(site_ids)) != len(site_ids):
        bad("DUPLICATE_ID", "sites", "site ids must be unique")
    all_sector_ids = scenario.sector_ids
    if len(set(all_sector_ids)) != len(all_sector_ids):
        bad("DUPLICATE_ID", "sites[*].sectors", "sector ids must be unique")

    for i, site in enumerate(scenario.sites):
        path = f"sites[{i}]"
        if not (1.0 <= site.height_m <= 150.0):
            bad("HEIGHT_RANGE", f"{path}.height_m", "site height_m must lie in [1, 150] m")
        if not scenario.area.contains(*site.position, margin=margin):
            bad("OUT_OF_AREA", f"{path}.position",
                "site position lies outside area plus margin")
        for j, sector in enumerate(site.sectors):
            spath = f"{path}.sectors[{j}]"
            if sector.band_ref not in band_ids:
                bad("UNKNOWN_BAND", f"{spath}.band_ref",
                    f"sector references undeclared band {sector.band_ref!r}")
            if not (0.0 <= sector.azimuth_deg < 360.0):
                bad("AZIMUTH_RANGE", f"{spath}.azimuth_deg", "azimuth_deg must lie in [0, 360)")
            if not (-30.0 <= sector.tx_power_dbm <= 60.0):
                bad("TX_POWER_RANGE", f"{spath}.tx_power_dbm",
                    "tx_power_dbm must lie in [-30, 60] dBm")
            if not (0.0 < sector.beamwidth_3db_deg <= 360.0):
                bad("BEAMWIDTH_RANGE", f"{spath}.beamwidth_3db_deg",
                    "beamwidth_3db_deg must lie in (0, 360]")
            if sector.front_to_back_db <= 0:
                bad("FRONT_TO_BACK", f"{spath}.front_to_back_db",
                    "front_to_back_db must be > 0")

    intf_ids = [x.id for x in scenario.interferers]
    if len(set(intf_ids)) != len(intf_ids):
        bad("DUPLICATE_ID", "interferers", "interferer ids must be unique")
    for i, intf in enumerate(scenario.interferers):
        path = f"interferers[{i}]"
        if intf.band_ref not in band_ids:
            bad("UNKNOWN_BAND", f"{path}.band_ref",
                f"interferer references undeclared band {intf.band_ref!r}")
        if intf.height_m <= 0:
            bad("HEIGHT_RANGE", f"{path}.height_m", "interferer height_m must be > 0")
        if not (-30.0 <= intf.tx_power_dbm <= 60.0):
            bad("TX_POWER_RANGE", f"{path}.tx_power_dbm",
                "tx_power_dbm must lie in [-30, 60] dBm")
        if not scenario.area.contains(*intf.position, margin=margin):
            bad("OUT_OF_AREA", f"{path}.position",
                "interferer position lies outside area plus margin")
        prev_end = None
        for k, (a, b) in enumerate(intf.active_intervals):
            if b <= a or (prev_end is not None and a < prev_end):
                bad("INTERVALS_INVALID", f"{path}.active_intervals[{k}]",
                    "active intervals must be sorted, non-overlapping [start, end) pairs")
                break
            prev_end = b

    if not (1.0 <= scenario.ut_profile.height_m <= 22.5):
        bad("UT_HEIGHT_RANGE", "ut_profile.height_m",
            "UT height_m must lie in [1, 22.5] m")
    if scenario.ut_profile.body_loss_db < 0:
        bad("BODY_LOSS", "ut_profile.body_loss_db", "body_loss_db must be >= 0")

    return v


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ScenarioParseError(f"missing required field {path}.{key}")
    return obj[key]


def _from_dict(data: dict) -> Scenario:
    try:
        version = data.get("schema_version", SCHEMA_VERSION)
        area_d = _require(data, "area", "$")
        area = Rect(float(area_d["min_x"]), float(area_d["min_y"]),
                    float(area_d["max_x"]), float(area_d["max_y"]))
        bands = tuple(
            Band(id=str(_require(b, "id", f"bands[{i}]")),
                 center_freq_ghz=float(_require(b, "center_freq_ghz", f"bands[{i}]")),
                 bandwidth_mhz=float(_require(b, "bandwidth_mhz", f"bands[{i}]")),
                 duplex=str(b.get("duplex", "TDD")),
                 throughput_cap_mbps=(None if b.get("throughput_cap_mbps") is None
                                      else float(b["throughput_cap_mbps"])))
            for i, b in enumerate(_require(data, "bands", "$")))
        sites = []
        for i, s in enumerate(_require(data, "sites", "$")):
            sectors = tuple(
                Sector(id=str(_require(sec, "id", f"sites[{i}].sectors[{j}]")),
                       azimuth_deg=float(sec.get("azimuth_deg", 0.0)),
                       band_ref=str(_require(sec, "band_ref", f"sites[{i}].sectors[{j}]")),
                       tx_power_dbm=float(sec.get("tx_power_dbm", 43.0)),
                       antenna_gain_dbi=float(sec.get("antenna_gain_dbi", 17.0)),
                       beamwidth_3db_deg=float(sec.get("beamwidth_3db_deg", 65.0)),
                       front_to_back_db=float(sec.get("front_to_back_db", 25.0)))
                for j, sec in enumerate(s.get("sectors", [])))
            sites.append(Site(id=str(_require(s, "id", f"sites[{i}]")),
                              position=tuple(float(c) for c in _require(s, "position", f"sites[{i}]")),
                              height_m=float(s.get("height_m", 25.0)),
                              sectors=sectors))
        interferers = tuple(
            Interferer(id=str(_require(x, "id", f"interferers[{i}]")),
                       position=tuple(float(c) for c in _require(x, "position", f"interferers[{i}]")),
                       height_m=float(x.get("height_m", 1.5)),
                       tx_power_dbm=float(x.get("tx_power_dbm", 20.0)),
                       band_ref=str(_require(x, "band_ref", f"interferers[{i}]")),
                       active_intervals=tuple((float(a), float(b))
                                              for a, b in x.get("active_intervals", [])))
            for i, x in enumerate(data.get("interferers", [])))
        ut = data.get("ut_profile", {})
        ut_profile = UserTerminalProfile(
            height_m=float(ut.get("height_m", 1.5)),
            noise_figure_db=float(ut.get("noise_figure_db", 7.0)),
            body_loss_db=float(ut.get("body_loss_db", 0.0)))
        tw = data.get("twin", {})
        twin = TwinConfig(
            rtwp_baseline_dbm=(None if tw.get("rtwp_baseline_dbm") is None
                               else float(tw["rtwp_baseline_dbm"])),
            bts_noise_figure_db=float(tw.get("bts_noise_figure_db", 5.0)),
            load_offset_db=(None if tw.get("load_offset_db", -10.0) is None
                            else float(tw.get("load_offset_db", -10.0))),
            load_amplitude_db=float(tw.get("load_amplitude_db", 1.0)),
            load_jitter_db=float(tw.get("load_jitter_db", 1.0)),
            measurement_noise_db=float(tw.get("measurement_noise_db", 0.5)),
            serving_traffic_dbm=float(tw.get("serving_traffic_dbm", -95.0)))
        return Scenario(
            name=str(data.get("name", "unnamed")),
            area=area,
            environment=str(_require(data, "environment", "$")),
            sites=tuple(sites),
            interferers=interferers,
            bands=bands,
            grid_resolution_m=float(data.get("grid_resolution_m", 50.0)),
            seed=int(data.get("seed", 0)),
            ut_profile=ut_profile,
            twin=twin,
            link_budget=data.get("link_budget"),
            schema_version=int(version))
    except ScenarioParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioParseError(f"malformed scenario file: {exc}") from exc


def to_dict(scenario: Scenario) -> dict:
    d = asdict(scenario)
    d["area"] = {"min_x": scenario.area.min_x, "min_y": scenario.area.min_y,
                 "max_x": scenario.area.max_x, "max_y": scenario.area.max_y}
    return d


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


def load_scenario(path) -> Scenario:
    """Load, default-fill and validate a scenario JSON file.

    Raises ScenarioParseError on malformed input and
    ScenarioValidationError naming the first violated invariant.
    """
    data = read_json_object(path, "scenario", ScenarioParseError)
    if int(data.get("schema_version", SCHEMA_VERSION)) != SCHEMA_VERSION:
        raise ScenarioParseError(
            f"unsupported schema_version {data.get('schema_version')} (expected {SCHEMA_VERSION})")
    scenario = _from_dict(data)
    violations = validate(scenario)
    if violations:
        raise ScenarioValidationError(violations)
    return scenario


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")
