"""Interferer position estimation from per-cell interference evidence.

Two estimators: a linear-power weighted centroid of the affected cells
(cheap, always available) and a pathloss-inversion nonlinear least
squares that jointly solves for position and transmit power (needs at
least 3 non-collinear sensors). Both are deterministic; the LSQ runs a
fixed multi-start grid and keeps the lowest-residual solution, ties to
the lower start index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import least_squares

from . import propagation
from .errors import InputError

SOURCE_HEIGHT_M = 1.5          # forward-model interferer height, a valid UT height
TX_POWER_GUESS_DBM = 20.0      # LSQ start for the interferer's power


@dataclass
class LocalizationEstimate:
    position: tuple[float, float]
    method: str                      # "WeightedCentroid" | "PathlossLSQ"
    residual: float
    cells_used: tuple[str, ...]
    tx_power_dbm: float | None = None
    fallback: bool = False           # LSQ degraded to the centroid


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
    return LocalizationEstimate(
        position=(float(est[0]), float(est[1])),
        method="WeightedCentroid", residual=rms,
        cells_used=tuple(c for c, _, _ in affected))


def _collinear(pos: np.ndarray) -> bool:
    centered = pos - pos.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    return sv.size < 2 or sv[1] <= 1e-9 * max(sv[0], 1.0)


def pathloss_lsq(observations, fc_ghz: float,
                 environment: str = "UMa") -> LocalizationEstimate:
    """Invert observed interference powers through the pathloss model.

    observations: iterable of (cell_id, (x, y), h_bs_m, power_dbm) where
    power_dbm is the interference power seen at that cell. Solves
    min sum_i (P - PL(d_i) - power_i)^2 over (x, y, P) with an
    omnidirectional NLOS forward model (interferer orientation unknown).

    Collinear or too-few sensors degrade to the weighted centroid with
    the fallback flag set.
    """
    obs = list(observations)
    if len(obs) < 3:
        raise InputError("pathloss_lsq needs at least 3 cells")
    ids = [o[0] for o in obs]
    pos = np.array([o[1] for o in obs], dtype=float)
    h_bs = np.array([o[2] for o in obs], dtype=float)
    power = np.array([o[3] for o in obs], dtype=float)
    centroid = weighted_centroid(
        (i, tuple(p), float(v)) for i, p, v in zip(ids, pos, power))
    if _collinear(pos):
        return replace(centroid, method="PathlossLSQ", fallback=True)

    def residuals(theta):
        x, y, p = theta
        d = np.hypot(pos[:, 0] - x, pos[:, 1] - y)
        pl = propagation.pathloss_db_clamped(d, fc_ghz, h_bs, SOURCE_HEIGHT_M,
                                             environment, "NLOS")
        return (p - pl) - power

    # Multi-start: a fixed 5 x 5 grid over the sensor hull plus the weighted
    # centroid; deterministic best-of with ties to the lower start index.
    xs = np.linspace(pos[:, 0].min(), pos[:, 0].max(), 5)
    ys = np.linspace(pos[:, 1].min(), pos[:, 1].max(), 5)
    starts = [centroid.position] + [(x0, y0) for y0 in ys for x0 in xs]

    best = None
    for x0, y0 in starts:
        sol = least_squares(residuals, x0=[x0, y0, TX_POWER_GUESS_DBM],
                            method="lm", max_nfev=200)
        if best is None or sol.cost < best.cost:
            best = sol
    rms = math.sqrt(2.0 * best.cost / len(obs))
    return LocalizationEstimate(
        position=(float(best.x[0]), float(best.x[1])),
        method="PathlossLSQ", residual=rms, cells_used=tuple(ids),
        tx_power_dbm=float(best.x[2]))


def excess_to_power_dbm(mean_excess_db: float, baseline_dbm: float) -> float | None:
    """Interference power implied by a dB rise over a known baseline.

    None when the excess is non-positive (no resolvable contribution).
    """
    if mean_excess_db <= 0:
        return None
    lin = 10.0 ** (baseline_dbm / 10.0) * (10.0 ** (mean_excess_db / 10.0) - 1.0)
    return 10.0 * math.log10(lin)


def estimate_interferer(scenario, detection, baseline_dbm: float,
                        method: str = "both"):
    """Run the estimators on a detection result against a scenario.

    Returns a dict with one LocalizationEstimate per requested method.
    The forward-model frequency comes from the affected sectors' band.
    """
    if not detection.affected_cells:
        raise InputError("no affected cells to localize")
    rows = []
    for cell in detection.affected_cells:
        site, sector = scenario.sector_by_id(cell)
        excess = detection.evidence[cell]["mean_excess_db"]
        rows.append((cell, site.position, site.height_m, excess,
                     scenario.band_by_id(sector.band_ref).center_freq_ghz))
    out = {}
    if method in ("both", "WeightedCentroid"):
        out["WeightedCentroid"] = weighted_centroid(
            (c, p, e) for c, p, _, e, _ in rows)
    if method in ("both", "PathlossLSQ"):
        obs = []
        for cell, p, h, e, _ in rows:
            power = excess_to_power_dbm(e, baseline_dbm)
            if power is not None:
                obs.append((cell, p, h, power))
        fc = rows[0][4]
        if len(obs) >= 3:
            out["PathlossLSQ"] = pathloss_lsq(obs, fc, scenario.environment)
        else:
            wc = out.get("WeightedCentroid") or weighted_centroid(
                (c, p, e) for c, p, _, e, _ in rows)
            out["PathlossLSQ"] = replace(wc, method="PathlossLSQ", fallback=True)
    return out


def validate_localization(estimate: LocalizationEstimate,
                          truth_position, radius_m: float = 200.0
                          ) -> LocalizationErrorReport:
    """Euclidean error against ground truth (simulation side only)."""
    d = math.hypot(estimate.position[0] - truth_position[0],
                   estimate.position[1] - truth_position[1])
    return LocalizationErrorReport(distance_m=d, within_radius=d <= radius_m,
                                   radius_m=radius_m)
