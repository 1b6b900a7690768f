"""Interferer position estimation from per-cell interference evidence.

Two estimators: a linear-power weighted centroid of the affected cells
(cheap, always available) and a pathloss-inversion least squares for
position and transmit power (needs at least 3 non-collinear sensors).
Both are deterministic: the LSQ profiles the power out over a fixed
lattice of its search box, then polishes the best lattice point once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import least_squares

from . import propagation
from .errors import InputError
from .scenario import cell_baseline_dbm

SOURCE_HEIGHT_M = 1.5          # forward-model interferer height, a valid UT height
SEARCH_POINTS = 121            # LSQ lattice points per axis of the search box
SEARCH_MARGIN_M = 500.0        # box padding around the sensors when no area is given


@dataclass
class LocalizationEstimate:
    position: tuple[float, float]
    residual: float
    cells_used: tuple[str, ...]
    tx_power_dbm: float | None = None
    fallback: bool = False           # the cells fix no LSQ position: this is the centroid


@dataclass
class LocalizationErrorReport:
    distance_m: float
    within_radius: bool
    radius_m: float


def weighted_centroid(affected) -> LocalizationEstimate:
    """Excess-power-weighted mean of affected-cell positions.

    affected: iterable of (cell_id, (x, y), mean_excess_db). Weights are
    linear power (10^(excess/10)); dB weighting would over-weight weak
    cells relative to physical superposition.
    """
    affected = list(affected)
    if not affected:
        raise InputError("weighted_centroid needs at least one affected cell")
    pos = np.array([p for _, p, _ in affected], dtype=float)
    w = 10.0 ** (np.array([e for _, _, e in affected], dtype=float) / 10.0)
    est = (w[:, None] * pos).sum(axis=0) / w.sum()
    rms = math.sqrt(float((w * ((pos - est) ** 2).sum(axis=1)).sum() / w.sum()))
    return LocalizationEstimate(position=(float(est[0]), float(est[1])), residual=rms,
                                cells_used=tuple(c for c, _, _ in affected))


def _collinear(pos: np.ndarray) -> bool:
    centered = pos - pos.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    return sv[1] <= 1e-9 * max(sv[0], 1.0)


def pathloss_lsq(observations, fc_ghz: float, environment: str = "UMa",
                 sectors=None, area=None) -> LocalizationEstimate | None:
    """Invert observed interference powers through the pathloss model.

    observations: iterable of (cell_id, (x, y), h_bs_m, power_dbm) where
    power_dbm is the interference power seen at that cell. Solves
    min sum_i (U_i(x, y, P) - power_i)^2 over (x, y, P), U being
    propagation.uplink_dbm into `sectors` (its meaning, one site row per
    observation; None: omni). U is P plus a gain, so at each point of a
    lattice over the box the best P is the mean of (power - gain); one
    least_squares polishes the lowest-cost point (the first on a tie) inside
    the box: the Rect `area`, or the sensors' bounds padded by SEARCH_MARGIN_M.
    None when the sensors cannot fix a position: fewer than 3, or collinear.
    """
    obs = list(observations)
    ids = [o[0] for o in obs]
    pos = np.array([o[1] for o in obs], dtype=float)
    h_bs = np.array([o[2] for o in obs], dtype=float)
    power = np.array([o[3] for o in obs], dtype=float)
    if len(obs) < 3 or _collinear(pos):
        return None

    def uplink(x, y, p):
        return propagation.uplink_dbm((x, y, SOURCE_HEIGHT_M, p, fc_ghz), pos, h_bs,
                                      environment, sectors)

    lo, hi = ((pos.min(axis=0) - SEARCH_MARGIN_M, pos.max(axis=0) + SEARCH_MARGIN_M)
              if area is None else ((area.min_x, area.min_y), (area.max_x, area.max_y)))
    x, y = (a.reshape(-1, 1) for a in np.meshgrid(np.linspace(lo[0], hi[0], SEARCH_POINTS),
                                                  np.linspace(lo[1], hi[1], SEARCH_POINTS)))
    left = power - uplink(x, y, 0.0)
    p = left.mean(axis=1)
    k = int(np.argmin(np.square(left - p[:, None]).sum(axis=1)))
    best = least_squares(lambda theta: uplink(*theta) - power, x0=(x[k, 0], y[k, 0], p[k]),
                         bounds=([*lo, -np.inf], [*hi, np.inf]))
    rms = math.sqrt(2.0 * best.cost / len(obs))
    return LocalizationEstimate(position=(float(best.x[0]), float(best.x[1])), residual=rms,
                                cells_used=tuple(ids), tx_power_dbm=float(best.x[2]))


def excess_to_power_dbm(mean_excess_db: float, baseline_dbm: float) -> float | None:
    """Interference power implied by a dB rise over a known baseline.

    None when the excess is non-positive (no resolvable contribution).
    """
    if mean_excess_db <= 0:
        return None
    lin = 10.0 ** (baseline_dbm / 10.0) * (10.0 ** (mean_excess_db / 10.0) - 1.0)
    return 10.0 * math.log10(lin)


def estimate_interferer(scenario, detection, baseline_dbm: float | None = None,
                        method: str = "both"):
    """Run the estimators on a detection result against a scenario.

    Returns a dict with one LocalizationEstimate per requested method, keyed
    by its name. Each cell's excess is read against baseline_dbm, or if None
    its own band's cell_baseline_dbm; the LSQ fits the implied powers at the
    first affected cell's frequency, through the cells' own sector receivers
    over scenario.area. When pathloss_lsq fixes no position, the PathlossLSQ
    entry is the WeightedCentroid estimate with fallback set.
    """
    if method not in ("both", "WeightedCentroid", "PathlossLSQ"):
        raise InputError(f"method must be both, WeightedCentroid or PathlossLSQ, not {method!r}")
    if not detection.affected_cells:
        raise InputError("no affected cells to localize")
    scenario.require_sectors(detection.affected_cells, "affected cell")
    rows = []           # (cell, site, sector, excess dB, implied power dBm or None) per cell
    for cell in detection.affected_cells:
        site, sector = scenario.sector_by_id(cell)
        base = (cell_baseline_dbm(scenario, scenario.band_by_id(sector.band_ref))
                if baseline_dbm is None else baseline_dbm)
        excess = detection.evidence[cell]["mean_excess_db"]
        rows.append((cell, site, sector, excess, excess_to_power_dbm(excess, base)))
    centroid = weighted_centroid((c, site.position, e) for c, site, _, e, _ in rows)
    out = {"WeightedCentroid": centroid} if method != "PathlossLSQ" else {}
    if method != "WeightedCentroid":
        lsq = [r for r in rows if r[4] is not None]
        obs = [(c, site.position, site.height_m, p) for c, site, _, _, p in lsq]
        receivers = propagation.sector_receivers(np.arange(len(lsq)), [r[2] for r in lsq])
        fc_ghz = scenario.band_by_id(rows[0][2].band_ref).center_freq_ghz
        out["PathlossLSQ"] = (pathloss_lsq(obs, fc_ghz, scenario.environment, receivers,
                                           scenario.area) or replace(centroid, fallback=True))
    return out


def validate_localization(estimate: LocalizationEstimate, truth_position,
                          radius_m: float) -> LocalizationErrorReport:
    """Euclidean error against ground truth (simulation side only)."""
    d = math.hypot(estimate.position[0] - truth_position[0],
                   estimate.position[1] - truth_position[1])
    return LocalizationErrorReport(distance_m=d, within_radius=d <= radius_m,
                                   radius_m=radius_m)
