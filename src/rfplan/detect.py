"""KPI anomaly detection: cluster the cells on their excess over baseline.

Pipeline: the excess series, one row per cell of a (cells x T) matrix
-> four features per cell: mean, std and max excess and the Pearson r
with the seed cell, the one with the highest mean excess (ties to the
smaller id) -> z-score -> K-means (Lloyd with k-means++ seeding, fully
deterministic given a seed) -> the high-excess cluster, gated by an
absolute dB threshold so a quiet network never alarms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .twin import KpiBatch, excess_matrix

KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6               # centroid shift, z-score units


@dataclass
class ClusterResult:
    k: int
    centroids: np.ndarray
    inertia: float
    iterations: int
    converged: bool


@dataclass
class DetectionResult:
    affected_cells: tuple[str, ...]
    anomaly_flag: bool
    evidence: dict[str, dict[str, float]]
    threshold_db: float
    cluster: ClusterResult | None = None


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson r; defined as 0 when either series is constant."""
    if a.size != b.size:
        raise InputError("series length mismatch")
    sa, sb = np.std(a), np.std(b)
    if sa == 0 or sb == 0:
        return 0.0
    return float(np.mean((a - np.mean(a)) * (b - np.mean(b))) / (sa * sb))


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = [x[int(rng.integers(n))]]
    for _ in range(1, k):
        d2 = np.min(
            ((x[:, None, :] - np.stack(centers)[None, :, :]) ** 2).sum(-1), axis=1)
        total = d2.sum()
        if total == 0:
            # all remaining mass on existing centers: take lowest free index
            centers.append(x[len(centers) % n])
            continue
        r = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(d2), r))
        centers.append(x[min(idx, n - 1)])
    return np.stack(centers)


def kmeans(x: np.ndarray, k: int, seed: int = 0):
    """Lloyd iterations with k-means++ seeding; deterministic given seed.

    Ties in assignment go to the lower cluster index; an emptied cluster
    is reseeded with the point farthest from its current centroid.
    Returns (labels, centroids, inertia, iterations, converged, history).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if not (1 <= k <= n):
        raise InputError(f"k={k} must lie in [1, {n}]")
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(x, k, rng)

    history: list[float] = []
    converged = False
    for it in range(1, KMEANS_MAX_ITER + 1):
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
        labels = np.argmin(d2, axis=1)          # argmin: ties to lower index
        for c in range(k):
            if not np.any(labels == c):
                # reseed from the worst-fitting point, but never drain a
                # singleton cluster or the repair loops forever
                counts = np.bincount(labels, minlength=k)
                dist_own = d2[np.arange(n), labels].astype(float)
                dist_own[counts[labels] <= 1] = -np.inf
                labels[int(np.argmax(dist_own))] = c
        new_centroids = np.stack([x[labels == c].mean(axis=0) for c in range(k)])
        d2 = ((x[:, None, :] - new_centroids[None, :, :]) ** 2).sum(-1)
        history.append(float(d2[np.arange(n), labels].sum()))
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < KMEANS_TOL:
            converged = True
            break
    inertia = history[-1]
    return labels, centroids, inertia, it, converged, history


def _zscore(x: np.ndarray) -> np.ndarray:
    """Z-score each column across rows; a zero-variance column -> zeros."""
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    z = np.zeros_like(x)
    nz = sd > 0
    z[:, nz] = (x[:, nz] - mu[nz]) / sd[nz]
    return z


def run_detection(batch: KpiBatch, baseline_window: int, k: int = 2,
                  seed: int = 0, threshold_db: float = 3.0,
                  metric: str = "RTWP") -> DetectionResult:
    """The module's pipeline on the batch's metric. The affected cells are
    the members of the cluster whose centroid has the largest mean-excess
    coordinate with a raw mean excess above threshold_db."""
    cells = batch.cells()
    if len(cells) < 2:
        raise InputError("need at least 2 cells to build features")
    x = excess_matrix(batch, baseline_window, metric)
    mean, std, peak = x.mean(axis=1), x.std(axis=1), x.max(axis=1)
    top = int(np.argmax(mean))                  # cells are sorted by id
    x -= mean[:, None]                          # in place: two (cells x T) arrays at most
    # pearson's rule: r is 0 where either series is constant, so a
    # constant seed cell gives every cell the same 0
    corr = np.zeros_like(mean)
    np.divide((x * x[top]).mean(axis=1), std * std[top], out=corr,
              where=(std != 0) & (std[top] != 0))
    labels, centroids, inertia, it, converged, _ = kmeans(
        _zscore(np.stack([mean, std, peak, corr], axis=1)), k, seed=seed)

    high = int(np.argmax(centroids[:, 0]))
    affected = tuple(c for c, l, m in zip(cells, labels, mean)
                     if l == high and m > threshold_db)
    evidence = {c: {"mean_excess_db": m, "corr_with_seed": r, "cluster": l}
                for c, m, r, l in zip(cells, mean.tolist(), corr.tolist(),
                                      labels.tolist())}
    return DetectionResult(
        affected_cells=affected, anomaly_flag=bool(affected), evidence=evidence,
        threshold_db=threshold_db,
        cluster=ClusterResult(k=k, centroids=centroids, inertia=inertia,
                              iterations=it, converged=converged))
