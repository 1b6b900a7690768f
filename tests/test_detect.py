"""Feature extraction, hand-rolled K-means and the affected-cell gate."""

import dataclasses
import math

import numpy as np
import pytest

from rfplan.detect import (cluster_cells, detect_affected, feature_matrix,
                           kmeans, normalize_features, pearson, run_detection)
from rfplan.errors import InputError
from rfplan.twin import KpiBatch, KpiSeries, batch_excess, synthesize_kpi


def batch_from_arrays(arrays: dict) -> KpiBatch:
    series = {"RTWP": {cell: KpiSeries(cell, "RTWP", 0.0, 60.0,
                                       np.asarray(v, dtype=float))
                       for cell, v in arrays.items()}}
    return KpiBatch(series=series)


def flat_batch(n_cells=6, n=40, level=-102.0):
    return batch_from_arrays({f"c{i}": np.full(n, level)
                              for i in range(n_cells)})


def step_batch(n_cells=6, n=40, step_cell="c0", step_db=10.0):
    arrays = {}
    for i in range(n_cells):
        v = np.full(n, -102.0)
        if f"c{i}" == step_cell:
            v[n // 2:] += step_db
        arrays[f"c{i}"] = v
    return batch_from_arrays(arrays)


# --- pearson ---------------------------------------------------------------

def test_pearson_self_and_negation():
    x = np.array([1.0, 3.0, 2.0, 5.0])
    assert pearson(x, x) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)


def test_pearson_constant_series_defined_zero():
    x = np.array([1.0, 2.0, 3.0])
    c = np.ones(3)
    assert pearson(x, c) == 0.0
    with pytest.raises(InputError):
        pearson(x, np.ones(4))


# --- features --------------------------------------------------------------

def test_features_identical_series_zscore_zero():
    feats = normalize_features(flat_batch(), baseline_window=10)
    z = feature_matrix(feats)
    assert np.all(z == 0.0)


def test_step_cell_dominates_features():
    feats = normalize_features(step_batch(), baseline_window=10)
    z = feature_matrix(feats)
    cells = [f.cell_id for f in feats]
    assert cells[int(np.argmax(z[:, 0]))] == "c0"


def test_seed_cell_is_nearest_to_interferer(demo_scenario, demo_batch):
    feats = normalize_features(demo_batch, baseline_window=15)
    means = {f.cell_id: f.mean_excess_db for f in feats}
    seed_cell = max(means, key=means.get)
    # the seed cell carries corr 1.0 by construction
    by_id = {f.cell_id: f for f in feats}
    assert by_id[seed_cell].corr_with_seed == 1.0
    intf = demo_scenario.interferers[0]
    site, _ = demo_scenario.sector_by_id(seed_cell)
    dmin = min(math.dist(s.position, intf.position)
               for s in demo_scenario.sites)
    assert math.dist(site.position, intf.position) == pytest.approx(dmin)


# --- kmeans ----------------------------------------------------------------

def test_kmeans_separable_recovery():
    x = np.array([[0.0], [0.1], [10.0], [10.1]])
    labels, centroids, inertia, _, converged, _ = kmeans(x, 2, seed=0)
    assert converged
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]
    assert sorted(float(c) for c in centroids[:, 0]) == pytest.approx([0.05, 10.05])


def test_kmeans_k_equals_n():
    x = np.arange(5.0).reshape(-1, 1)
    labels, centroids, inertia, _, _, _ = kmeans(x, 5, seed=0)
    assert inertia == pytest.approx(0.0)
    assert len(set(labels.tolist())) == 5


def test_kmeans_inertia_monotone():
    rng = np.random.default_rng(11)
    for trial in range(10):
        x = rng.normal(size=(40, 3))
        *_, history = kmeans(x, 3, seed=trial)
        assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))


def test_kmeans_beats_random_assignment():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 4))
    _, _, inertia, _, _, _ = kmeans(x, 3, seed=0)
    for _ in range(100):
        labels = rng.integers(3, size=50)
        while len(set(labels.tolist())) < 3:
            labels = rng.integers(3, size=50)
        cents = np.stack([x[labels == c].mean(axis=0) for c in range(3)])
        rand_inertia = float(((x - cents[labels]) ** 2).sum())
        assert inertia <= rand_inertia + 1e-9


def test_kmeans_deterministic():
    x = np.random.default_rng(2).normal(size=(30, 2))
    a = kmeans(x, 3, seed=5)
    b = kmeans(x, 3, seed=5)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_kmeans_k_out_of_range():
    with pytest.raises(InputError):
        kmeans(np.zeros((3, 2)), 4)


# --- affected gate ---------------------------------------------------------

def test_flat_batch_never_alarms():
    batch = flat_batch()
    feats = normalize_features(batch, baseline_window=10)
    result = detect_affected(feats, cluster_cells(feats), threshold_db=3.0)
    assert result.affected_cells == ()
    assert result.anomaly_flag is False


def test_threshold_dominance(demo_batch):
    result = run_detection(demo_batch, baseline_window=15,
                           threshold_db=float("inf"))
    assert result.affected_cells == ()


def test_demo_affected_set(demo_scenario, demo_batch):
    result = run_detection(demo_batch, baseline_window=15)
    assert result.anomaly_flag
    affected = set(result.affected_cells)

    intf = demo_scenario.interferers[0]
    ranked = sorted(demo_scenario.sector_ids,
                    key=lambda c: math.dist(
                        demo_scenario.sector_by_id(c)[0].position,
                        intf.position))
    assert set(ranked[:3]) <= affected          # the 3 nearest cells
    assert affected <= set(ranked[:6])          # nothing past the 6th-nearest


def test_quiet_demo_stays_clear(quiet_scenario):
    batch = synthesize_kpi(quiet_scenario, 3600.0, 60.0)
    result = run_detection(batch, baseline_window=15)
    assert result.anomaly_flag is False


def test_affected_correlate_more(demo_scenario, demo_batch):
    result = run_detection(demo_batch, baseline_window=15)
    excess = batch_excess(demo_batch, 15)
    affected = list(result.affected_cells)
    others = [c for c in demo_batch.cells() if c not in affected]
    aa = np.mean([pearson(excess[a], excess[b]) for a in affected for b in affected
                  if a < b])
    au = np.mean([pearson(excess[a], excess[u]) for a in affected for u in others])
    assert aa > au
