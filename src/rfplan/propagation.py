"""TR 38.901 urban pathloss, LOS probability, sector pattern and fading.

Closed-form UMa/UMi pathloss (Table 7.4.1-1 style dual-slope models with
the NLOS lower-bounding max), the matching LOS probability curves, a link's
bearing and sector pattern, the power an interferer couples into each
sector's receiver, a receiver's thermal noise floor and reproducible shadow
fading. Everything here is a pure function or read-only state, so pixel
evaluation can be data-parallel and still bit-identical at any worker count.

Out-of-envelope queries raise DomainError instead of extrapolating:
silent extrapolation corrupts planning numbers downstream.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError

if TYPE_CHECKING:
    from .scenario import Scenario

SPEED_OF_LIGHT = 299_792_458.0
THERMAL_NOISE_DBM_HZ = -174.0

# Validity envelope enforced on public queries.
D2D_MIN_M = 1.0
D2D_MAX_M = 10_000.0
FC_MIN_GHZ = 0.5
FC_MAX_GHZ = 100.0
H_BS_MIN_M = 1.0
H_BS_MAX_M = 150.0
H_UT_MIN_M = 1.0
H_UT_MAX_M = 22.5

# Default log-normal shadow fading std per (environment, condition), dB.
DEFAULT_SIGMA_SF_DB = {
    ("UMa", "LOS"): 4.0,
    ("UMa", "NLOS"): 6.0,
    ("UMi", "LOS"): 4.0,
    ("UMi", "NLOS"): 7.82,
}


@dataclass(frozen=True)
class PathlossQuery:
    d2d_m: float
    fc_ghz: float
    h_bs_m: float
    h_ut_m: float
    environment: str = "UMa"
    condition: str = "NLOS"


def _check_envelope(d2d_m, fc_ghz, h_bs_m, h_ut_m, environment, condition):
    d2d = np.asarray(d2d_m, dtype=float)
    if np.any(d2d < D2D_MIN_M) or np.any(d2d > D2D_MAX_M):
        raise DomainError(
            f"d2d_m outside [{D2D_MIN_M}, {D2D_MAX_M}] m (got "
            f"{float(np.min(d2d))}..{float(np.max(d2d))})")
    if not (FC_MIN_GHZ <= fc_ghz <= FC_MAX_GHZ):
        raise DomainError(f"fc_ghz {fc_ghz} outside [{FC_MIN_GHZ}, {FC_MAX_GHZ}] GHz")
    if not (H_UT_MIN_M <= h_ut_m <= H_UT_MAX_M):
        raise DomainError(f"h_ut_m {h_ut_m} outside [{H_UT_MIN_M}, {H_UT_MAX_M}] m")
    if not (H_BS_MIN_M <= h_bs_m <= H_BS_MAX_M):
        raise DomainError(f"h_bs_m {h_bs_m} outside [{H_BS_MIN_M:g}, {H_BS_MAX_M:g}] m")
    if condition not in ("LOS", "NLOS"):
        raise DomainError(f"unknown condition {condition!r}")


def noise_floor_dbm(bandwidth_mhz: float, noise_figure_db: float) -> float:
    return THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(bandwidth_mhz * 1e6) + noise_figure_db


def breakpoint_distance_m(fc_ghz: float, h_bs_m, h_ut_m: float):
    """Dual-slope breakpoint d'_BP with the 1 m effective-height offset,
    per BS height when h_bs_m is an array."""
    h_bs_eff = np.maximum(h_bs_m - 1.0, 0.0)
    h_ut_eff = max(h_ut_m - 1.0, 0.0)
    return 4.0 * h_bs_eff * h_ut_eff * (fc_ghz * 1e9) / SPEED_OF_LIGHT


def _pathloss_pair(d2d, fc_ghz, h_bs_m, h_ut_m, environment):
    """(LOS, NLOS) pathloss over an array of ground distances, vectorized
    over BS height too. The LOS model is dual-slope; the NLOS value is
    lower-bounded by the LOS one at the same geometry. Only the
    environment is checked: DomainError unless it is UMa or UMi."""
    if environment not in ("UMa", "UMi"):
        raise DomainError(f"unknown environment {environment!r}")
    log_d3d = np.log10(np.sqrt(d2d ** 2 + (h_bs_m - h_ut_m) ** 2))
    dbp = breakpoint_distance_m(fc_ghz, h_bs_m, h_ut_m)
    lf = 20.0 * np.log10(fc_ghz)
    # a zero breakpoint (an antenna at 1 m) has the first slope only: no
    # distance lies past it, and its second-slope term, log10(0) for
    # h_bs = h_ut, is not formed
    one_slope = dbp <= 0
    bp2 = np.where(one_slope, 1.0, dbp ** 2 + (h_bs_m - h_ut_m) ** 2)
    if environment == "UMa":
        pl1 = 28.0 + 22.0 * log_d3d + lf
        pl2 = 28.0 + 40.0 * log_d3d + lf - 9.0 * np.log10(bp2)
    else:  # UMi street canyon
        pl1 = 32.4 + 21.0 * log_d3d + lf
        pl2 = 32.4 + 40.0 * log_d3d + lf - 9.5 * np.log10(bp2)
    los = np.where(d2d <= np.where(one_slope, np.inf, dbp), pl1, pl2)
    del pl1, pl2
    if environment == "UMa":
        nlos = 13.54 + 39.08 * log_d3d + lf - 0.6 * (h_ut_m - 1.5)
    else:
        nlos = 22.4 + 35.3 * log_d3d + 21.3 * np.log10(fc_ghz) - 0.3 * (h_ut_m - 1.5)
    return los, np.maximum(los, nlos)


def pathloss_db(query: PathlossQuery):
    """Pathloss in dB for a validated single query."""
    return float(pathloss_db_array(*astuple(query)))


def pathloss_db_array(d2d_m, fc_ghz, h_bs_m, h_ut_m, environment, condition):
    """Vectorized pathloss over an array of ground distances."""
    _check_envelope(d2d_m, fc_ghz, h_bs_m, h_ut_m, environment, condition)
    return _pathloss_pair(np.asarray(d2d_m, dtype=float), fc_ghz, h_bs_m, h_ut_m,
                          environment)[condition == "NLOS"]


def pathloss_db_clamped(d2d_m, fc_ghz, h_bs_m, h_ut_m, environment, condition):
    """Internal helper: clamp distance into the envelope instead of erroring.

    Used by grid and inversion code where the receive point can fall
    arbitrarily close to (or far from) a transmitter; public queries go
    through pathloss_db which reports instead of clamping. h_bs_m may be
    an array, one height per receiver, broadcast against d2d_m.
    """
    if condition not in ("LOS", "NLOS"):
        raise DomainError(f"unknown condition {condition!r}")
    return pathloss_los_nlos_db_clamped(d2d_m, fc_ghz, h_bs_m, h_ut_m,
                                        environment)[condition == "NLOS"]


def pathloss_los_nlos_db_clamped(d2d_m, fc_ghz, h_bs_m, h_ut_m, environment):
    """(LOS, NLOS) pathloss_db_clamped pair from one geometry evaluation."""
    d2d = np.clip(np.asarray(d2d_m, dtype=float), D2D_MIN_M, D2D_MAX_M)
    return _pathloss_pair(d2d, fc_ghz, h_bs_m, h_ut_m, environment)


def free_space_pathloss_db(d_m, fc_ghz):
    """Free-space pathloss, used only as a sanity cross-check."""
    d = np.asarray(d_m, dtype=float)
    return 20.0 * np.log10(4.0 * np.pi * d * fc_ghz * 1e9 / SPEED_OF_LIGHT)


def los_probability(d2d_m, h_ut_m: float = 1.5, environment: str = "UMa"):
    """LOS probability at ground distance d2d; 1.0 within 18 m.

    UMa includes the high-UT correction term, which vanishes for
    h_ut <= 13 m (the usual case here).
    """
    d2d = np.asarray(d2d_m, dtype=float)
    if np.any(d2d < 0):
        raise DomainError("d2d_m must be >= 0")
    scale = {"UMi": 36.0, "UMa": 63.0}.get(environment)
    if scale is None:
        raise DomainError(f"unknown environment {environment!r}")
    # 18/d + exp(-d/scale) * (1 - 18/d), one map at a time in place: the
    # same operations as the spelled-out expression, so the same bits
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = 18.0 / d2d
        p = np.negative(d2d, out=np.empty(d2d.shape))
        p /= scale
        np.exp(p, out=p)
        p *= 1.0 - ratio
        p += ratio
        if environment == "UMa" and h_ut_m > 13.0:
            c = ((min(h_ut_m, 23.0) - 13.0) / 10.0) ** 1.5
            # p * (1 + c * 1.25 * (d/100)**3 * exp(-d/150))
            g = np.divide(d2d, 100.0, out=np.empty(d2d.shape))
            g **= 3
            g *= c * 1.25
            e = np.negative(d2d, out=np.empty(d2d.shape))
            e /= 150.0
            g *= np.exp(e, out=e)
            g += 1.0
            p *= g
    p[d2d <= 18.0] = 1.0
    np.clip(p, 0.0, 1.0, out=p)
    return float(p) if np.isscalar(d2d_m) else p


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


def uplink_dbm(source, site_xy, site_h_m, environment: str, sectors=None):
    """Power a source couples into each uplink receiver, dBm.

    source is (x, y, height_m, tx_power_dbm, fc_ghz), the terminal end of
    an NLOS link to each site (one row of site_xy, one height of site_h_m);
    its height is clamped into the UT envelope. sectors = (site_of,
    azimuth_deg, gain_dbi, pattern) gives one receiver per sector, its gain
    less its pattern toward the source; None gives one omni 0 dBi per site.
    x and y may be (N, 1) arrays of candidate positions: one row each.
    """
    x, y, height_m, tx_power_dbm, fc_ghz = source
    dx = x - site_xy[:, 0]
    dy = y - site_xy[:, 1]
    h_ut = min(max(height_m, H_UT_MIN_M), H_UT_MAX_M)
    rx = tx_power_dbm - pathloss_db_clamped(np.hypot(dx, dy), fc_ghz, site_h_m, h_ut,
                                            environment, "NLOS")
    if sectors is None:
        return rx
    site_of, azimuth_deg, gain_dbi, pattern = sectors
    return rx[..., site_of] + (gain_dbi - pattern.attenuation_db(
        bearing_deg(dx, dy)[..., site_of] - azimuth_deg))


def sector_receivers(site_of, sectors):
    """uplink_dbm's sectors tuple: sectors[i] receives at site row site_of[i]."""
    az, gain, bw, ftb = (np.array([getattr(sec, name) for sec in sectors], dtype=float)
                         for name in ("azimuth_deg", "antenna_gain_dbi",
                                      "beamwidth_3db_deg", "front_to_back_db"))
    return np.asarray(site_of), az, gain, AntennaPattern(bw, ftb)


def coupling_dbm(scenario: Scenario) -> np.ndarray:
    """Interferer power coupled into each sector's receiver, dBm.

    Shape (interferers, sectors), sectors in scenario.sectors() order: one
    uplink_dbm call per interferer; a sector on another band gets the -inf
    sentinel, no contribution.
    """
    sectors = [sec for _, sec in scenario.sectors()]
    xy = np.array([site.position for site in scenario.sites], dtype=float).reshape(-1, 2)
    h_bs = np.array([site.height_m for site in scenario.sites], dtype=float)
    band = np.array([sec.band_ref for sec in sectors])
    receivers = sector_receivers(
        np.repeat(np.arange(len(scenario.sites)), [len(site.sectors) for site in scenario.sites]),
        sectors)
    out = np.full((len(scenario.interferers), len(sectors)), -np.inf)
    for i, intf in enumerate(scenario.interferers):
        co_band = band == intf.band_ref
        source = (*intf.position, intf.height_m, intf.tx_power_dbm,
                  scenario.band_by_id(intf.band_ref).center_freq_ghz)
        out[i, co_band] = uplink_dbm(source, xy, h_bs, scenario.environment, receivers)[co_band]
    return out


# ---------------------------------------------------------------------------
# Seeded per-cell random fields

_STREAM_SHADOW = 1
_STREAM_LOS = 2
_STREAM_TWIN = 3


def _key64(name: str) -> int:
    """Stable 64-bit key for a string id (platform-independent)."""
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")


def keyed_rng(seed: int, name: str, stream: int) -> np.random.Generator:
    """RNG stream keyed by (seed, id, purpose): schedule-independent draws."""
    return np.random.default_rng([int(seed), _key64(name), int(stream)])


def link_draws(seed: int, tx_id: str, p_los, environment: str):
    """One transmitter's per-pixel (LOS mask, shadow fading in dB).

    The condition is a uniform draw against the LOS probability p_los, and
    the shadow fading a unit normal scaled by DEFAULT_SIGMA_SF_DB for each
    pixel's condition, from streams keyed by (seed, tx_id): coverage maps
    are stable and reproducible whatever order transmitters are drawn in.
    """
    p_los = np.asarray(p_los)
    los = keyed_rng(seed, tx_id, _STREAM_LOS).random(p_los.size)
    los = los.reshape(p_los.shape) < p_los
    shadow = keyed_rng(seed, tx_id, _STREAM_SHADOW).standard_normal(p_los.size)
    shadow = shadow.reshape(p_los.shape)
    shadow *= np.where(los, DEFAULT_SIGMA_SF_DB[(environment, "LOS")],
                       DEFAULT_SIGMA_SF_DB[(environment, "NLOS")])
    return los, shadow
