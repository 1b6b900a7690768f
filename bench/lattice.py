"""Seeded hexagonal-lattice scenarios built from the public dataclasses.

A lattice of ``rings`` hexagonal rings around a centre site (1, 7, 19,
37, 61 ... sites), three sectors per site at 0/120/240 degrees with the
``Sector`` defaults (17 dBi, 65 degree beamwidth, 25 dB front-to-back),
every sector on the first band. One jammer sits inside the triangle formed by
the centre site and its first two neighbours, at the triangle's centroid
plus a seeded jitter, so the three sites nearest to it are always that
triangle.
"""

from __future__ import annotations

import math
import random

from rfplan.scenario import (Band, Interferer, Rect, Scenario, Sector, Site,
                             TwinConfig, validate)

BANDS = (Band("n78", 3.5, 10.0, "TDD", 500.0),
         Band("n78b", 3.7, 10.0, "TDD", 500.0))
ISD_M = 500.0                       # inter-site distance
GRID_RESOLUTION_M = 25.0
JAMMER_DBM = 18.0                   # the bundled demo's jammer power
JAMMER_ACTIVE_S = ((900.0, 7200.0),)
JITTER_M = 50.0                     # jammer offset per axis, uniform in +-JITTER_M
RTWP_BASELINE_DBM = -102.0


def hex_positions(rings: int, isd_m: float):
    """Site positions relative to the centre, by ring, then by angle."""
    cells = [(q, r) for q in range(-rings, rings + 1)
             for r in range(-rings, rings + 1) if abs(q + r) <= rings]
    xy = [(isd_m * (q + r / 2.0), isd_m * r * math.sqrt(3) / 2.0) for q, r in cells]
    return sorted(xy, key=lambda p: (round(math.hypot(*p) / isd_m, 6),
                                     round(math.atan2(p[1], p[0]) % math.tau, 6)))


def hex_lattice(*, rings: int, area_m: float, seed: int, name: str) -> Scenario:
    """A square ``area_m`` service area with the lattice at its centre."""
    c = area_m / 2.0
    pos = hex_positions(rings, ISD_M)
    sites = tuple(
        Site(id=f"S{i:02d}", position=(c + x, c + y), height_m=25.0,
             sectors=tuple(Sector(id=f"S{i:02d}_{k + 1}", azimuth_deg=120.0 * k,
                                  band_ref=BANDS[0].id, tx_power_dbm=40.0)
                           for k in range(3)))
        for i, (x, y) in enumerate(pos))
    # triangle: the centre site and its first two ring-1 neighbours
    tri = [sites[0].position, sites[1].position, sites[2].position]
    rng = random.Random(seed)
    jam = (sum(p[0] for p in tri) / 3.0 + rng.uniform(-JITTER_M, JITTER_M),
           sum(p[1] for p in tri) / 3.0 + rng.uniform(-JITTER_M, JITTER_M))
    scenario = Scenario(
        name=name, area=Rect(0.0, 0.0, area_m, area_m), environment="UMa",
        sites=sites,
        interferers=(Interferer("JAM1", jam, 1.5, JAMMER_DBM, BANDS[0].id,
                                JAMMER_ACTIVE_S),),
        bands=BANDS, grid_resolution_m=GRID_RESOLUTION_M, seed=seed,
        twin=TwinConfig(rtwp_baseline_dbm=RTWP_BASELINE_DBM))
    violations = validate(scenario)
    if violations:
        raise ValueError(f"generated scenario is invalid: {violations}")
    return scenario


def nearest_sites(scenario: Scenario, point, n: int):
    return sorted(scenario.sites, key=lambda s: (math.dist(s.position, point), s.id))[:n]
