"""TR 38.901 urban pathloss, LOS probability and seeded shadow fading.

Closed-form UMa/UMi pathloss (Table 7.4.1-1 style dual-slope models with
the NLOS lower-bounding max), the matching LOS probability curves and a
reproducible log-normal shadow-fading field. Everything here is either a
pure function or read-only state, so pixel evaluation can be
data-parallel and still bit-identical regardless of worker count.

Out-of-envelope queries raise DomainError instead of extrapolating:
silent extrapolation corrupts planning numbers downstream.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass

import numpy as np

from .errors import DomainError

SPEED_OF_LIGHT = 299_792_458.0

# Validity envelope enforced on public queries.
D2D_MIN_M = 1.0
D2D_MAX_M = 10_000.0
FC_MIN_GHZ = 0.5
FC_MAX_GHZ = 100.0
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
    if not (1.0 <= h_bs_m <= 150.0):
        raise DomainError(f"h_bs_m {h_bs_m} outside [1, 150] m")
    if environment not in ("UMa", "UMi"):
        raise DomainError(f"unknown environment {environment!r}")
    if condition not in ("LOS", "NLOS"):
        raise DomainError(f"unknown condition {condition!r}")


def breakpoint_distance_m(fc_ghz: float, h_bs_m: float, h_ut_m: float) -> float:
    """Dual-slope breakpoint d'_BP with the 1 m effective-height offset."""
    h_bs_eff = max(h_bs_m - 1.0, 0.0)
    h_ut_eff = max(h_ut_m - 1.0, 0.0)
    return 4.0 * h_bs_eff * h_ut_eff * (fc_ghz * 1e9) / SPEED_OF_LIGHT


def _los_pathloss(d2d, d3d, fc_ghz, h_bs_m, h_ut_m, environment):
    """LOS dual-slope pathloss, vectorized over distance."""
    dbp = breakpoint_distance_m(fc_ghz, h_bs_m, h_ut_m)
    lf = 20.0 * np.log10(fc_ghz)
    dh2 = (h_bs_m - h_ut_m) ** 2
    if environment == "UMa":
        pl1 = 28.0 + 22.0 * np.log10(d3d) + lf
        pl2 = 28.0 + 40.0 * np.log10(d3d) + lf - 9.0 * np.log10(dbp ** 2 + dh2)
    else:  # UMi street canyon
        pl1 = 32.4 + 21.0 * np.log10(d3d) + lf
        pl2 = 32.4 + 40.0 * np.log10(d3d) + lf - 9.5 * np.log10(dbp ** 2 + dh2)
    if dbp <= 0:
        return pl1
    return np.where(d2d <= dbp, pl1, pl2)


def _nlos_pathloss(d2d, d3d, fc_ghz, h_bs_m, h_ut_m, environment):
    """NLOS pathloss, lower-bounded by the LOS value at the same geometry."""
    los = _los_pathloss(d2d, d3d, fc_ghz, h_bs_m, h_ut_m, environment)
    lf = 20.0 * np.log10(fc_ghz)
    if environment == "UMa":
        nlos = 13.54 + 39.08 * np.log10(d3d) + lf - 0.6 * (h_ut_m - 1.5)
    else:
        nlos = 22.4 + 35.3 * np.log10(d3d) + 21.3 * np.log10(fc_ghz) - 0.3 * (h_ut_m - 1.5)
    return np.maximum(los, nlos)


def _pathloss(d2d, fc_ghz, h_bs_m, h_ut_m, environment, condition):
    """Unchecked pathloss over an array of ground distances."""
    d3d = np.sqrt(d2d ** 2 + (h_bs_m - h_ut_m) ** 2)
    if condition == "LOS":
        return _los_pathloss(d2d, d3d, fc_ghz, h_bs_m, h_ut_m, environment)
    return _nlos_pathloss(d2d, d3d, fc_ghz, h_bs_m, h_ut_m, environment)


def pathloss_db(query: PathlossQuery):
    """Pathloss in dB for a validated single query."""
    return float(pathloss_db_array(*astuple(query)))


def pathloss_db_array(d2d_m, fc_ghz, h_bs_m, h_ut_m, environment, condition):
    """Vectorized pathloss over an array of ground distances."""
    _check_envelope(d2d_m, fc_ghz, h_bs_m, h_ut_m, environment, condition)
    return _pathloss(np.asarray(d2d_m, dtype=float), fc_ghz, h_bs_m, h_ut_m,
                     environment, condition)


def pathloss_db_clamped(d2d_m, fc_ghz, h_bs_m, h_ut_m, environment, condition):
    """Internal helper: clamp distance into the envelope instead of erroring.

    Used by grid and inversion code where the receive point can fall
    arbitrarily close to (or far from) a transmitter; public queries go
    through pathloss_db which reports instead of clamping.
    """
    d2d = np.clip(np.asarray(d2d_m, dtype=float), D2D_MIN_M, D2D_MAX_M)
    return _pathloss(d2d, fc_ghz, h_bs_m, h_ut_m, environment, condition)


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
    with np.errstate(divide="ignore", invalid="ignore"):
        if environment == "UMi":
            p_far = 18.0 / d2d + np.exp(-d2d / 36.0) * (1.0 - 18.0 / d2d)
        elif environment == "UMa":
            p_far = 18.0 / d2d + np.exp(-d2d / 63.0) * (1.0 - 18.0 / d2d)
            if h_ut_m > 13.0:
                c = ((min(h_ut_m, 23.0) - 13.0) / 10.0) ** 1.5
                p_far = p_far * (1.0 + c * 1.25 * (d2d / 100.0) ** 3
                                 * np.exp(-d2d / 150.0))
        else:
            raise DomainError(f"unknown environment {environment!r}")
    p = np.where(d2d <= 18.0, 1.0, p_far)
    p = np.clip(p, 0.0, 1.0)
    return float(p) if np.isscalar(d2d_m) else p


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


@dataclass(frozen=True)
class ShadowFadingField:
    """Reproducible log-normal shadow fading, independent per pixel.

    Samples are deterministic given (seed, cell id, pixel index); callers
    scale them by DEFAULT_SIGMA_SF_DB for the pixel's condition.
    """
    seed: int

    def standard_samples(self, cell_id: str, n: int) -> np.ndarray:
        """Unit-variance stream for one cell."""
        return keyed_rng(self.seed, cell_id, _STREAM_SHADOW).standard_normal(n)


def los_condition_mask(seed: int, cell_id: str, p_los: np.ndarray) -> np.ndarray:
    """Freeze the per-pixel LOS/NLOS condition for one transmitter.

    Drawn once against the LOS probability with a stream keyed by
    (seed, cell id), so coverage maps are stable and reproducible.
    """
    u = keyed_rng(seed, cell_id, _STREAM_LOS).random(np.asarray(p_los).size)
    return u.reshape(np.asarray(p_los).shape) < p_los
