"""KPI anomaly detection: clean/normalize, cluster, flag affected cells.

Pipeline: excess-over-baseline series per cell -> summary features
(level statistics plus correlation with the strongest cell) -> z-score
-> K-means (Lloyd with k-means++ seeding, fully deterministic given a
seed) -> the high-excess cluster, gated by an absolute dB threshold so
a quiet network never alarms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .twin import KpiBatch, batch_excess

KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6               # centroid shift, z-score units


@dataclass(frozen=True)
class FeatureVector:
    cell_id: str
    mean_excess_db: float
    std_excess_db: float
    max_excess_db: float
    corr_with_seed: float

    def as_array(self) -> np.ndarray:
        return np.array([self.mean_excess_db, self.std_excess_db,
                         self.max_excess_db, self.corr_with_seed])


@dataclass
class ClusterResult:
    k: int
    assignments: dict[str, int]
    labels: np.ndarray
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


def normalize_features(batch: KpiBatch, baseline_window: int,
                       metric: str = "RTWP") -> list[FeatureVector]:
    """Per-cell summary features on the excess series (raw, not z-scored).

    The correlation reference ("seed cell") is the cell with the highest
    mean excess, ties to the lexicographically smaller id.
    """
    cells = batch.cells()
    if len(cells) < 2:
        raise InputError("need at least 2 cells to build features")
    excess = batch_excess(batch, baseline_window, metric)
    means = {c: float(np.mean(excess[c])) for c in cells}
    seed_cell = min(cells, key=lambda c: (-means[c], c))
    features = []
    for cell in cells:
        e = excess[cell]
        features.append(FeatureVector(
            cell_id=cell,
            mean_excess_db=means[cell],
            std_excess_db=float(np.std(e)),
            max_excess_db=float(np.max(e)),
            # the seed cell correlates 1.0 with itself unless its series is
            # constant, in which case every cell gets the same 0
            corr_with_seed=pearson(e, excess[seed_cell])))
    return features


def feature_matrix(features: list[FeatureVector]) -> np.ndarray:
    """Z-score each feature dimension across cells; zero-variance -> zeros."""
    x = np.stack([f.as_array() for f in features])
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    z = np.zeros_like(x)
    nz = sd > 0
    z[:, nz] = (x[:, nz] - mu[nz]) / sd[nz]
    return z


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


def cluster_cells(features: list[FeatureVector], k: int = 2,
                  seed: int = 0) -> ClusterResult:
    z = feature_matrix(features)
    labels, centroids, inertia, it, converged, _ = kmeans(z, k, seed=seed)
    return ClusterResult(
        k=k,
        assignments={f.cell_id: int(l) for f, l in zip(features, labels)},
        labels=labels, centroids=centroids, inertia=inertia,
        iterations=it, converged=converged)


def detect_affected(features: list[FeatureVector], clusters: ClusterResult,
                    threshold_db: float = 3.0) -> DetectionResult:
    """Affected set = high-excess cluster members above the dB threshold.

    The high cluster is the one whose centroid has the largest
    mean-excess coordinate; the absolute threshold on the raw mean excess
    keeps a quiet network from alarming on normalization artifacts.
    """
    high = int(np.argmax(clusters.centroids[:, 0]))
    affected = tuple(sorted(
        f.cell_id for f in features
        if clusters.assignments[f.cell_id] == high
        and f.mean_excess_db > threshold_db))
    evidence = {f.cell_id: {"mean_excess_db": f.mean_excess_db,
                            "corr_with_seed": f.corr_with_seed,
                            "cluster": clusters.assignments[f.cell_id]}
                for f in features}
    return DetectionResult(affected_cells=affected, anomaly_flag=bool(affected),
                           evidence=evidence, threshold_db=threshold_db,
                           cluster=clusters)


def correlation_matrix(batch: KpiBatch, baseline_window: int,
                       metric: str = "RTWP"):
    """Symmetric Pearson matrix of per-cell excess series (1 on the diagonal)."""
    cells = batch.cells()
    if len(cells) < 2:
        raise InputError("need at least 2 cells")
    excess = batch_excess(batch, baseline_window, metric)
    lengths = {excess[c].size for c in cells}
    if len(lengths) != 1:
        raise InputError("series length mismatch across cells")
    x = np.stack([excess[c] for c in cells])
    # pearson's rule: a constant series correlates 0 with every other one
    live = np.std(x, axis=1) > 0
    r = np.eye(len(cells))
    if np.count_nonzero(live) > 1:
        r[np.ix_(live, live)] = np.corrcoef(x[live])
    np.fill_diagonal(r, 1.0)
    return cells, r


def run_detection(batch: KpiBatch, baseline_window: int, k: int = 2,
                  seed: int = 0, threshold_db: float = 3.0,
                  metric: str = "RTWP") -> DetectionResult:
    """The full pipeline: features -> K-means -> affected set."""
    features = normalize_features(batch, baseline_window, metric)
    clusters = cluster_cells(features, k=k, seed=seed)
    return detect_affected(features, clusters, threshold_db)
