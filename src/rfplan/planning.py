"""Link budget, maximum allowed pathloss, cell radius and site count.

The dimensioning chain: receiver sensitivity from the thermal-noise
budget, MAPL from the power balance, cell radius by inverting the
monotone pathloss curve, and the hexagonal site count for a target area.
NLOS is the default planning condition (conservative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleError
from .propagation import D2D_MAX_M, D2D_MIN_M, pathloss_db_array

THERMAL_NOISE_DBM_HZ = -174.0


@dataclass(frozen=True)
class LinkBudget:
    tx_power_dbm: float
    tx_antenna_gain_dbi: float = 17.0
    rx_antenna_gain_dbi: float = 0.0
    cable_loss_db: float = 0.0
    penetration_loss_db: float = 0.0
    body_loss_db: float = 0.0
    interference_margin_db: float = 0.0
    shadow_margin_db: float = 0.0
    noise_figure_db: float = 7.0
    required_sinr_db: float = 0.0
    bandwidth_mhz: float = 100.0

    def __post_init__(self):
        for name in ("cable_loss_db", "penetration_loss_db", "body_loss_db",
                     "interference_margin_db", "shadow_margin_db"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.bandwidth_mhz <= 0:
            raise ValueError("bandwidth_mhz must be > 0")


@dataclass(frozen=True)
class PlanResult:
    band_id: str
    center_freq_ghz: float
    mapl_db: float
    cell_radius_m: float
    site_count: int


def noise_floor_dbm(bandwidth_mhz: float, noise_figure_db: float) -> float:
    return THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(bandwidth_mhz * 1e6) + noise_figure_db


def receiver_sensitivity_dbm(budget: LinkBudget) -> float:
    """Thermal floor + noise figure + required SINR, dBm."""
    return noise_floor_dbm(budget.bandwidth_mhz, budget.noise_figure_db) \
        + budget.required_sinr_db


def max_allowed_pathloss_db(budget: LinkBudget) -> float:
    """Power balance: tx + gains - losses - margins - sensitivity."""
    return (budget.tx_power_dbm
            + budget.tx_antenna_gain_dbi + budget.rx_antenna_gain_dbi
            - budget.cable_loss_db - budget.penetration_loss_db - budget.body_loss_db
            - budget.interference_margin_db - budget.shadow_margin_db
            - receiver_sensitivity_dbm(budget))


def cell_radius_m(mapl_db: float, environment: str = "UMa", condition: str = "NLOS",
                  fc_ghz: float = 3.5, h_bs_m: float = 25.0,
                  h_ut_m: float = 1.5) -> float:
    """Largest ground distance whose pathloss stays within the MAPL.

    Bisection over the monotone pathloss curve, in log-distance, down to a
    1 mm bracket, so the returned radius is well inside 0.1 m resolution
    everywhere in the envelope. The search is capped at the model's 10 km
    validity limit.
    """
    def pl(d):
        return float(pathloss_db_array(d, fc_ghz, h_bs_m, h_ut_m,
                                       environment, condition))

    if pl(D2D_MIN_M) > mapl_db:
        raise InfeasibleError(
            f"MAPL {mapl_db:.2f} dB below pathloss at {D2D_MIN_M} m "
            f"({pl(D2D_MIN_M):.2f} dB); budget cannot close")
    if pl(D2D_MAX_M) <= mapl_db:
        return D2D_MAX_M

    lo, hi = math.log10(D2D_MIN_M), math.log10(D2D_MAX_M)
    while (10 ** hi - 10 ** lo) > 1e-3:
        mid = 0.5 * (lo + hi)
        if pl(10 ** mid) <= mapl_db:
            lo = mid
        else:
            hi = mid
    return 10 ** lo


def hexagon_area_m2(circumradius_m: float) -> float:
    return 1.5 * math.sqrt(3.0) * circumradius_m ** 2


def required_site_count(area_m2: float, radius_m: float) -> int:
    """Sites needed to tile the area with hexagons of the given circumradius."""
    if area_m2 <= 0 or radius_m <= 0:
        raise ValueError("area_m2 and radius_m must be positive")
    return max(1, math.ceil(area_m2 / hexagon_area_m2(radius_m)))


def budget_from_config(config: dict | None, bandwidth_mhz: float,
                       ut_profile) -> LinkBudget:
    """Build a LinkBudget from the scenario's optional link_budget section,
    the band's bandwidth and the UT profile's noise figure and body loss;
    TypeError for an unknown key or one of those three, which the section
    does not set."""
    return LinkBudget(**{"tx_power_dbm": 43.0, **(config or {})},
                      bandwidth_mhz=bandwidth_mhz,
                      noise_figure_db=ut_profile.noise_figure_db,
                      body_loss_db=ut_profile.body_loss_db)


def plan_scenario(scenario, condition: str = "NLOS",
                  band_ids: list[str] | None = None) -> list[PlanResult]:
    """Per-band MAPL, cell radius and required site count for a scenario.

    Each band uses its own bandwidth in the sensitivity term; antenna
    height is the mean site height, UT height from the scenario profile.
    """
    h_bs = sum(s.height_m for s in scenario.sites) / len(scenario.sites)
    area_m2 = scenario.area.width * scenario.area.height
    results = []
    for band in scenario.bands:
        if band_ids is not None and band.id not in band_ids:
            continue
        budget = budget_from_config(scenario.link_budget, band.bandwidth_mhz,
                                    scenario.ut_profile)
        mapl = max_allowed_pathloss_db(budget)
        radius = cell_radius_m(mapl, scenario.environment, condition,
                               band.center_freq_ghz, h_bs,
                               scenario.ut_profile.height_m)
        results.append(PlanResult(
            band_id=band.id, center_freq_ghz=band.center_freq_ghz,
            mapl_db=mapl, cell_radius_m=radius,
            site_count=required_site_count(area_m2, radius)))
    return results
