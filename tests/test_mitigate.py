"""Frequency reassignment recommendations and what-if verification."""

import dataclasses
import itertools

import numpy as np
import pytest

from rfplan import propagation
from rfplan.coverage import compute_grids
from rfplan.detect import DetectionResult, run_detection
from rfplan.errors import InputError
from rfplan.mitigate import (Recommendation, VerificationVerdict, apply,
                             compare, recommend, verify)
from rfplan.twin import synthesize_kpi
from test_coverage import interleaved_scenario, reference_grid


def detection_for(cells, excess=6.0):
    return DetectionResult(
        affected_cells=tuple(cells), anomaly_flag=bool(cells),
        evidence={c: {"mean_excess_db": excess, "corr_with_seed": 1.0,
                      "cluster": 1} for c in cells},
        threshold_db=3.0)


def test_no_anomaly_is_noop(demo_scenario):
    rec = recommend(demo_scenario, detection_for([]))
    assert rec.changes == ()
    assert "no anomaly" in rec.rationale


def test_single_affected_single_alternative(demo_scenario):
    # restrict the declared bands to the interfered one plus one clean band
    sc = dataclasses.replace(demo_scenario,
                             bands=demo_scenario.bands[:2])   # n78 + n78b
    rec = recommend(sc, detection_for(["A1"]))
    assert rec.changes == (("A1", "n78", "n78b"),)


def test_no_clean_spectrum(demo_scenario):
    sc = dataclasses.replace(demo_scenario, bands=demo_scenario.bands[:1])
    rec = recommend(sc, detection_for(["A1"]))
    assert rec.changes == ()
    assert rec.rationale == "no clean spectrum: every declared band carries an affected cell"


def test_unknown_sector_rejected(demo_scenario):
    with pytest.raises(InputError):
        recommend(demo_scenario, detection_for(["nope"]))
    # also when no band is clean: the affected cells name the blocked bands
    one_band = dataclasses.replace(demo_scenario, bands=demo_scenario.bands[:1])
    with pytest.raises(InputError, match="'nope'"):
        recommend(one_band, detection_for(["A1", "nope"]))


def test_recommendation_blocks_the_detected_bands_not_the_truth(demo_scenario):
    """The interferers are the twin's sealed ground truth. With them gone
    from the network model, and the interfered band left the least loaded,
    the affected sectors still move off it."""
    sc = dataclasses.replace(demo_scenario, seed=1)
    det = run_detection(synthesize_kpi(sc, 3600.0, 60.0), baseline_window=15, seed=1)
    others = itertools.cycle(("n78b", "n257"))
    model = dataclasses.replace(sc, interferers=(), sites=tuple(
        dataclasses.replace(site, sectors=tuple(
            sec if sec.id in det.affected_cells
            else dataclasses.replace(sec, band_ref=next(others)) for sec in site.sectors))
        for site in sc.sites))
    rec = recommend(model, det)
    assert [sec for sec, _, _ in rec.changes] == sorted(det.affected_cells)
    assert all(old == "n78" != new for _, old, new in rec.changes)


def test_demo_recommendation_moves_all_affected(demo_scenario, demo_batch):
    det = run_detection(demo_batch, baseline_window=15)
    rec = recommend(demo_scenario, det)
    moved = {sec for sec, _, _ in rec.changes}
    assert moved == set(det.affected_cells)
    for _, old, new in rec.changes:
        assert old == "n78"
        assert new in ("n78b", "n257")


def test_recommendation_spreads_load(demo_scenario, demo_batch):
    # consecutive reassignments count against the candidate, so co-sited
    # sectors should not all pile onto one alternative
    det = run_detection(demo_batch, baseline_window=15)
    rec = recommend(demo_scenario, det)
    targets = [new for _, _, new in rec.changes]
    assert len(set(targets)) > 1


def test_apply_empty_is_identity(demo_scenario):
    assert apply(demo_scenario, Recommendation((), "noop")) == demo_scenario


def test_apply_single_change(demo_scenario):
    rec = Recommendation((("A1", "n78", "n257"),), "test")
    post = apply(demo_scenario, rec)
    assert post.sector_by_id("A1")[1].band_ref == "n257"
    others = [c for c in demo_scenario.sector_ids if c != "A1"]
    for c in others:
        assert post.sector_by_id(c)[1] == demo_scenario.sector_by_id(c)[1]
    assert demo_scenario.sector_by_id("A1")[1].band_ref == "n78"  # untouched


def test_apply_involution(demo_scenario):
    fwd = Recommendation((("A1", "n78", "n257"),), "fwd")
    back = Recommendation((("A1", "n257", "n78"),), "back")
    assert apply(apply(demo_scenario, fwd), back) == demo_scenario


def test_apply_rejects_unknowns(demo_scenario):
    with pytest.raises(InputError):
        apply(demo_scenario, Recommendation((("zz", "n78", "n257"),), "r"))
    with pytest.raises(InputError):
        apply(demo_scenario, Recommendation((("A1", "n78", "zz"),), "r"))


@pytest.mark.parametrize("changes, message", [
    ((("A1", "n257", "n78b"), ("A1", "n78", "n257")),
     "recommended sector 'A1' is on band 'n78', not 'n257'"),
    ((("A1", "n78", "n257"), ("A1", "n257", "n78b")),
     "recommended sector 'A1' is changed twice"),
    ((("A1", "n78", "n257"), ("B1", "n78", "n78b"), ("A1", "n78", "n78b")),
     "recommended sector 'A1' is changed twice"),
], ids=["wrong-old-band", "chained", "repeated"])
def test_apply_rejects_a_change_that_does_not_fit(demo_scenario, changes, message):
    """Each change moves a sector named once, off the band it is on."""
    with pytest.raises(InputError, match=f"^{message}$"):
        apply(demo_scenario, Recommendation(changes, "r"))


def test_verify_identity_scenario(demo_scenario):
    v = verify(demo_scenario, demo_scenario, ["A1", "A2"])
    assert v.delta_db == pytest.approx(0.0)
    assert not v.improved
    assert v.affected_pixel_count > 0


def test_verify_demo_loop(demo_scenario, demo_batch):
    det = run_detection(demo_batch, baseline_window=15)
    rec = recommend(demo_scenario, det)
    post = apply(demo_scenario, rec)
    v = verify(demo_scenario, post, det.affected_cells)
    assert v.improved
    assert v.delta_db > 3.0
    assert v.residual_affected == ()


def test_verify_draws_each_id_once(monkeypatch, demo_scenario, demo_batch):
    """A sector moved to another band keeps its id, so its LOS and shadow
    streams are drawn once for both grids of verify's shared pass."""
    det = run_detection(demo_batch, baseline_window=15)
    rec = recommend(demo_scenario, det)
    assert rec.changes
    drawn, keyed_rng = [], propagation.keyed_rng

    def counted(seed, name, stream):
        drawn.append((name, stream))
        return keyed_rng(seed, name, stream)

    monkeypatch.setattr(propagation, "keyed_rng", counted)
    verify(demo_scenario, apply(demo_scenario, rec), det.affected_cells)
    ids = demo_scenario.sector_ids + [i.id for i in demo_scenario.interferers]
    assert sorted(drawn) == sorted((i, s) for i in ids for s in (1, 2))


def reference_verify(pre_scenario, post_scenario, affected_sectors):
    """verify on two separately built reference grids."""
    affected = sorted(affected_sectors)
    grid_pre = reference_grid(pre_scenario, True)
    grid_post = reference_grid(post_scenario, True)
    mask = grid_pre.serving_mask(affected)
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


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("case", ["demo", "interleaved"])
def test_verify_matches_two_grid_reference(demo_scenario, demo_batch, case,
                                           workers):
    if case == "demo":
        det = run_detection(demo_batch, baseline_window=15)
        pre, affected = demo_scenario, det.affected_cells
        post = apply(pre, recommend(pre, det))
    else:
        pre, affected = interleaved_scenario(), ("c", "e")
        post = apply(pre, Recommendation((("c", "n78", "n77"),), "move c"))
    got = verify(pre, post, affected, n_workers=workers)
    assert got.affected_pixel_count > 0
    assert got == reference_verify(pre, post, affected)
    # compare on grids the caller built gives verify's verdict
    grids = compute_grids((pre, post), n_workers=workers)
    assert compare(*grids, affected) == got
