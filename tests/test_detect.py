"""Feature extraction, hand-rolled K-means and the affected-cell gate."""

import dataclasses
import math

import numpy as np
import pytest

from rfplan.detect import kmeans, pearson, run_detection
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
    # every z-scored feature is 0, so both centroids sit at the origin
    result = run_detection(flat_batch(), baseline_window=10)
    assert np.all(result.cluster.centroids == 0.0)


def test_step_cell_dominates_features():
    evidence = run_detection(step_batch(), baseline_window=10).evidence
    assert max(evidence, key=lambda c: evidence[c]["mean_excess_db"]) == "c0"


def test_seed_cell_is_nearest_to_interferer(demo_scenario, demo_batch):
    evidence = run_detection(demo_batch, baseline_window=15).evidence
    seed_cell = max(evidence, key=lambda c: evidence[c]["mean_excess_db"])
    # the seed cell carries corr 1.0 by construction
    assert evidence[seed_cell]["corr_with_seed"] == 1.0
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
    result = run_detection(flat_batch(), baseline_window=10, threshold_db=3.0)
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


# --- reference -------------------------------------------------------------

def reference_detection(batch, baseline_window, k=2, seed=0, threshold_db=3.0):
    """The per-cell feature loop run_detection must match bit for bit:
    (affected cells, evidence, inertia)."""
    cells = batch.cells()
    excess = {}
    for cell in cells:
        s = batch.get("RTWP", cell).samples
        excess[cell] = s - float(np.median(s[:baseline_window]))
    means = {c: float(np.mean(excess[c])) for c in cells}
    seed_cell = min(cells, key=lambda c: (-means[c], c))
    corr = {c: pearson(excess[c], excess[seed_cell]) for c in cells}
    feats = np.array([[means[c], float(np.std(excess[c])), float(np.max(excess[c])),
                       corr[c]] for c in cells])
    mu, sd = feats.mean(axis=0), feats.std(axis=0)
    z = np.zeros_like(feats)
    nz = sd > 0
    z[:, nz] = (feats[:, nz] - mu[nz]) / sd[nz]
    labels, centroids, inertia, *_ = kmeans(z, k, seed=seed)
    high = int(np.argmax(centroids[:, 0]))
    affected = tuple(sorted(c for c, l in zip(cells, labels)
                            if l == high and means[c] > threshold_db))
    evidence = {c: {"mean_excess_db": means[c], "corr_with_seed": corr[c],
                    "cluster": int(labels[i])} for i, c in enumerate(cells)}
    return affected, evidence, inertia


def constant_seed_batch():
    """The top cell's series is constant, so every correlation with it is 0;
    the other cells fall 3 dB after their baseline window."""
    rng = np.random.default_rng(3)
    arrays = {}
    for i in range(1, 6):
        v = -102.0 + rng.normal(0.0, 0.5, 40)
        v[10:] -= 3.0
        arrays[f"c{i}"] = v
    arrays["c0"] = np.full(40, -96.0)
    return batch_from_arrays(arrays)


def assert_matches_reference(batch, window, seed=0):
    result = run_detection(batch, window, seed=seed)
    # repr tells apart every float bit pattern and Python from NumPy scalars
    assert repr((result.affected_cells, result.evidence, result.cluster.inertia)) \
        == repr(reference_detection(batch, window, seed=seed))
    return result


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_demo_detection_matches_per_cell_reference(demo_scenario, seed):
    batch = synthesize_kpi(dataclasses.replace(demo_scenario, seed=seed), 3600.0, 60.0)
    assert assert_matches_reference(batch, 15, seed).anomaly_flag


@pytest.mark.parametrize("make", [flat_batch, step_batch, constant_seed_batch])
def test_detection_matches_per_cell_reference(make):
    result = assert_matches_reference(make(), 10)
    if make is constant_seed_batch:
        evidence = result.evidence
        assert max(evidence, key=lambda c: evidence[c]["mean_excess_db"]) == "c0"
        assert all(e["corr_with_seed"] == 0.0 for e in evidence.values())
