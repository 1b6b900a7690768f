"""Control-entity side of the loop: frequency reassignment + verification.

Given a detection result, recommend moving each affected sector off the
interfered band onto the declared alternative with the fewest co-channel
neighbors nearby, apply the change to a copy of the scenario (value
semantics), and verify the what-if by re-simulating both scenarios with
the same seed so the comparison isolates the configuration change;
compare does the comparison for a caller that has built the grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import mean

import numpy as np

from .coverage import CoverageGrid, compute_grids
from .errors import InputError
from .scenario import Scenario


@dataclass(frozen=True)
class Recommendation:
    changes: tuple[tuple[str, str, str], ...]  # (sector id, old band, new band)
    rationale: str
    expected_effect_db: float = 0.0


@dataclass
class VerificationVerdict:
    pre_mean_sinr_db: float
    post_mean_sinr_db: float
    delta_db: float
    improved: bool
    residual_affected: tuple[str, ...]
    affected_pixel_count: int


def _mean_nn_intersite_m(sites) -> float:
    if len(sites) < 2:
        return 500.0
    return mean(min(math.dist(a.position, b.position)
                    for b in sites if b.id != a.id) for a in sites)


def recommend(scenario: Scenario, detection) -> Recommendation:
    """Reassign affected sectors to the cleanest declared alternative band.

    Candidate bands are the declared ones no interferer transmits on.
    Cost of a candidate for a sector = number of co-channel sectors
    within the neighbor radius, ~2x the hexagon circumradius implied by
    the inter-site spacing (already-decided reassignments count);
    ties break in band declaration order. With no candidates the result
    is an explicit no-op, not an error.
    """
    if not detection.anomaly_flag:
        return Recommendation(changes=(), rationale="no anomaly detected")

    blocked = {i.band_ref for i in scenario.interferers}
    candidates = [b.id for b in scenario.bands if b.id not in blocked]
    if not candidates:
        return Recommendation(
            changes=(), rationale="no clean spectrum: every declared band "
            "overlaps an interferer")

    neighbor_radius_m = 2.0 * _mean_nn_intersite_m(scenario.sites) / math.sqrt(3.0)

    site_of = {sec.id: site for site, sec in scenario.sectors()}
    assigned = {sec.id: sec.band_ref for _, sec in scenario.sectors()}

    changes = []
    for sector_id in sorted(detection.affected_cells):
        if sector_id not in site_of:
            raise InputError(f"affected cell {sector_id!r} not in scenario")
        pos = site_of[sector_id].position
        old = assigned[sector_id]

        def cost(band_id):
            return sum(
                1 for other_id, other_band in assigned.items()
                if other_id != sector_id and other_band == band_id
                and math.dist(site_of[other_id].position, pos) <= neighbor_radius_m)

        best = min(candidates, key=lambda b: (cost(b), candidates.index(b)))
        changes.append((sector_id, old, best))
        assigned[sector_id] = best

    expected = mean(detection.evidence[c]["mean_excess_db"]
                    for c in detection.affected_cells)
    return Recommendation(
        changes=tuple(changes),
        rationale=f"move {len(changes)} affected sector(s) off the interfered "
                  f"band; least-loaded alternatives within "
                  f"{neighbor_radius_m:.0f} m",
        expected_effect_db=expected)


def apply(scenario: Scenario, rec: Recommendation) -> Scenario:
    """Return a new scenario with the recommended band changes applied."""
    band_ids = {b.id for b in scenario.bands}
    sector_ids = set(scenario.sector_ids)
    new_band = {}
    for sector_id, _old, new in rec.changes:
        if sector_id not in sector_ids:
            raise InputError(f"unknown sector {sector_id!r} in recommendation")
        if new not in band_ids:
            raise InputError(f"unknown band {new!r} in recommendation")
        new_band[sector_id] = new

    sites = tuple(
        replace(site, sectors=tuple(
            replace(sec, band_ref=new_band.get(sec.id, sec.band_ref))
            for sec in site.sectors))
        for site in scenario.sites)
    return replace(scenario, sites=sites)


def verify(pre_scenario: Scenario, post_scenario: Scenario,
           affected_sectors, n_workers: int = 1) -> VerificationVerdict:
    """Simulate both scenarios (interferers on) and compare them.

    Both grids come from one compute_grids call. When the scenarios share
    area, resolution, seed, environment and UT profile, as apply() keeps
    them, the post grid costs only the fields of the sectors whose band
    changed, plus a second fold; every other field is computed once.
    """
    grid_pre, grid_post = compute_grids((pre_scenario, post_scenario),
                                        n_workers=n_workers)
    return compare(grid_pre, grid_post, affected_sectors)


def compare(grid_pre: CoverageGrid, grid_post: CoverageGrid,
            affected_sectors) -> VerificationVerdict:
    """Compare mean SINR over the pixels the affected sectors served before
    the change, for a caller that already has both grids."""
    affected = sorted(affected_sectors)
    mask = grid_pre.serving_mask(affected)
    if not np.any(mask):
        raise InputError("affected sectors serve no pixels in the pre grid")

    pre_mean = float(np.mean(grid_pre.sinr_db[mask]))
    post_mean = float(np.mean(grid_post.sinr_db[mask]))

    residual = []
    for sec in affected:
        m = grid_pre.serving_mask([sec])
        if np.any(m) and float(np.mean(grid_post.sinr_db[m])
                               - np.mean(grid_pre.sinr_db[m])) <= 0:
            residual.append(sec)

    return VerificationVerdict(
        pre_mean_sinr_db=pre_mean, post_mean_sinr_db=post_mean,
        delta_db=post_mean - pre_mean, improved=post_mean > pre_mean,
        residual_affected=tuple(residual),
        affected_pixel_count=int(np.sum(mask)))
