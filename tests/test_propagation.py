"""Pathloss closed forms, LOS probability and seeded shadow fading."""

from dataclasses import astuple

import numpy as np
import pytest

from rfplan.errors import DomainError
from rfplan.propagation import (DEFAULT_SIGMA_SF_DB, PathlossQuery,
                                breakpoint_distance_m, free_space_pathloss_db,
                                keyed_rng, link_draws, los_probability,
                                pathloss_db, pathloss_db_array,
                                pathloss_db_clamped, pathloss_los_nlos_db_clamped)


def test_uma_los_oracle():
    # 28 + 22*log10(sqrt(100^2 + 23.5^2)) + 20*log10(3.5), evaluated by hand
    q = PathlossQuery(100.0, 3.5, 25.0, 1.5, "UMa", "LOS")
    assert pathloss_db(q) == pytest.approx(83.14, abs=0.01)


def test_umi_los_oracle():
    # 32.4 + 21*log10(sqrt(100^2 + 8.5^2)) + 20*log10(3.5)
    q = PathlossQuery(100.0, 3.5, 10.0, 1.5, "UMi", "LOS")
    assert pathloss_db(q) == pytest.approx(85.31, abs=0.01)


def test_uma_los_close_to_free_space():
    q = PathlossQuery(100.0, 3.5, 25.0, 1.5, "UMa", "LOS")
    fs = float(free_space_pathloss_db(100.0, 3.5))
    assert abs(pathloss_db(q) - fs) < 2.0


def test_nlos_lower_bounded_by_los():
    # at a short 3D distance (low mast, close in) the NLOS branch falls
    # below LOS and the max rule returns the LOS value
    los = pathloss_db(PathlossQuery(2.0, 3.5, 2.0, 1.5, "UMa", "LOS"))
    nlos = pathloss_db(PathlossQuery(2.0, 3.5, 2.0, 1.5, "UMa", "NLOS"))
    assert nlos == pytest.approx(los)
    # far out the branches separate and NLOS is strictly larger
    far_los = pathloss_db(PathlossQuery(2000.0, 3.5, 25.0, 1.5, "UMa", "LOS"))
    far_nlos = pathloss_db(PathlossQuery(2000.0, 3.5, 25.0, 1.5, "UMa", "NLOS"))
    assert far_nlos > far_los


def test_dual_slope_continuity_at_breakpoint():
    dbp = breakpoint_distance_m(3.5, 25.0, 1.5)
    below = pathloss_db(PathlossQuery(dbp * 0.999, 3.5, 25.0, 1.5, "UMa", "LOS"))
    above = pathloss_db(PathlossQuery(dbp * 1.001, 3.5, 25.0, 1.5, "UMa", "LOS"))
    assert abs(above - below) < 0.1


def test_pathloss_monotone_in_distance():
    d = np.linspace(10.0, 5000.0, 400)
    for env in ("UMa", "UMi"):
        for cond in ("LOS", "NLOS"):
            pl = pathloss_db_array(d, 3.5, 25.0, 1.5, env, cond)
            assert np.all(np.diff(pl) > 0)


ENVELOPE_ERRORS = [
    PathlossQuery(0.5, 3.5, 25.0, 1.5),          # below 1 m
    PathlossQuery(20_000.0, 3.5, 25.0, 1.5),     # beyond 10 km
    PathlossQuery(100.0, 0.2, 25.0, 1.5),        # frequency too low
    PathlossQuery(100.0, 3.5, 25.0, 30.0),       # UT too high
    PathlossQuery(100.0, 3.5, 25.0, 1.5, "Rural"),
    PathlossQuery(100.0, 3.5, 25.0, 1.5, "UMa", "XLOS"),
]


def _pathloss_db_array(q):
    return pathloss_db_array(*astuple(q))


# both public entry points run the one envelope check
@pytest.mark.parametrize("entry, query", [
    pytest.param(entry, q, id=f"{prefix}query{i}")
    for prefix, entry in (("", pathloss_db), ("array-", _pathloss_db_array))
    for i, q in enumerate(ENVELOPE_ERRORS)])
def test_envelope_errors(entry, query):
    with pytest.raises(DomainError):
        entry(query)


def test_bs_height_envelope_names_its_bounds():
    with pytest.raises(DomainError) as exc:
        pathloss_db(PathlossQuery(100.0, 3.5, 150.5, 1.5))
    assert str(exc.value) == "h_bs_m 150.5 outside [1, 150] m"


def test_clamped_variant_does_not_error():
    v = float(pathloss_db_clamped(0.01, 3.5, 25.0, 1.5, "UMa", "NLOS"))
    assert v == float(pathloss_db_clamped(1.0, 3.5, 25.0, 1.5, "UMa", "NLOS"))


def test_clamped_variant_rejects_unknown_condition():
    with pytest.raises(DomainError):
        pathloss_db_clamped(100.0, 3.5, 25.0, 1.5, "UMa", "XLOS")


def test_clamped_variants_reject_unknown_environment():
    # the DomainError pathloss_db_array raises, not the UMi value
    with pytest.raises(DomainError) as want:
        pathloss_db_array(100.0, 3.5, 10.0, 1.5, "Rural", "NLOS")
    for call in (lambda: pathloss_db_clamped(100.0, 3.5, 10.0, 1.5, "Rural", "NLOS"),
                 lambda: pathloss_los_nlos_db_clamped(100.0, 3.5, 10.0, 1.5, "Rural")):
        with pytest.raises(DomainError) as got:
            call()
        assert str(got.value) == str(want.value) == "unknown environment 'Rural'"


def reference_pathloss(d2d_m, fc, h_bs, h_ut, env):
    """The spelled-out TR 38.901 Table 7.4.1-1 (LOS, NLOS) formulas, with
    distances clamped to [1 m, 10 km], that the pair must match bit for bit."""
    d2d = np.clip(d2d_m, 1.0, 10_000.0)
    log_d3d = np.log10(np.sqrt(d2d ** 2 + (h_bs - h_ut) ** 2))
    # breakpoint with 1 m effective-height offsets; 0 m means one slope
    dbp = 4.0 * (h_bs - 1.0) * (h_ut - 1.0) * (fc * 1e9) / 299_792_458.0
    bp2 = dbp ** 2 + (h_bs - h_ut) ** 2 if dbp > 0 else 1.0
    if env == "UMa":
        pl1 = 28.0 + 22.0 * log_d3d + 20.0 * np.log10(fc)
        pl2 = 28.0 + 40.0 * log_d3d + 20.0 * np.log10(fc) - 9.0 * np.log10(bp2)
        nlos = 13.54 + 39.08 * log_d3d + 20.0 * np.log10(fc) - 0.6 * (h_ut - 1.5)
    else:
        pl1 = 32.4 + 21.0 * log_d3d + 20.0 * np.log10(fc)
        pl2 = 32.4 + 40.0 * log_d3d + 20.0 * np.log10(fc) - 9.5 * np.log10(bp2)
        nlos = 22.4 + 35.3 * log_d3d + 21.3 * np.log10(fc) - 0.3 * (h_ut - 1.5)
    los = np.where((d2d <= dbp) | (dbp <= 0), pl1, pl2)
    return los, np.maximum(los, nlos)


@pytest.mark.parametrize("env, h_bs, h_ut", [("UMa", 25.0, 1.5), ("UMi", 10.0, 1.5),
                                          ("UMa", 25.0, 1.0), ("UMi", 1.0, 22.5)])
@pytest.mark.parametrize("fc", [0.7, 3.5, 28.0])
def test_los_nlos_pair_matches_per_condition_calls(env, h_bs, h_ut, fc):
    # distances outside the envelope are clamped; h_ut = 1 puts the
    # breakpoint at 0 m, so the LOS model is single-slope there
    d2d = np.concatenate([[0.01, 1.0, 17.9, 18.0], np.geomspace(2.0, 9999.0, 994),
                          [10_000.0, 12_500.0]]).reshape(20, 50)
    pair = pathloss_los_nlos_db_clamped(d2d, fc, h_bs, h_ut, env)
    inside = np.clip(d2d, 1.0, 10_000.0)
    for got, ref, cond in zip(pair, reference_pathloss(d2d, fc, h_bs, h_ut, env),
                              ("LOS", "NLOS")):
        for calls in (got, pathloss_db_clamped(d2d, fc, h_bs, h_ut, env, cond),
                      pathloss_db_array(inside, fc, h_bs, h_ut, env, cond)):
            assert (calls.dtype, calls.shape) == (ref.dtype, ref.shape)
            assert calls.tobytes() == ref.tobytes(), cond


def test_los_probability_near_field():
    assert los_probability(10.0, 1.5, "UMa") == 1.0
    assert los_probability(10.0, 1.5, "UMi") == 1.0


def test_los_probability_umi_oracle():
    # 18/36 + e^-1 * (1 - 18/36) evaluated independently
    assert los_probability(36.0, 1.5, "UMi") == pytest.approx(0.684, abs=0.001)


def test_los_probability_far_field():
    assert los_probability(10_000.0, 1.5, "UMi") < 0.01
    p = los_probability(np.array([20.0, 100.0, 1000.0]), 1.5, "UMa")
    assert np.all(np.diff(p) < 0)        # decays with distance


def reference_los_probability(d2d_m, h_ut_m, environment):
    """The spelled-out TR 38.901 Table 7.4.2-1 expression los_probability
    must match bit for bit."""
    d2d = np.asarray(d2d_m, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if environment == "UMi":
            p_far = 18.0 / d2d + np.exp(-d2d / 36.0) * (1.0 - 18.0 / d2d)
        else:
            p_far = 18.0 / d2d + np.exp(-d2d / 63.0) * (1.0 - 18.0 / d2d)
            if h_ut_m > 13.0:
                c = ((min(h_ut_m, 23.0) - 13.0) / 10.0) ** 1.5
                p_far = p_far * (1.0 + c * 1.25 * (d2d / 100.0) ** 3
                                 * np.exp(-d2d / 150.0))
    p = np.clip(np.where(d2d <= 18.0, 1.0, p_far), 0.0, 1.0)
    return float(p) if np.isscalar(d2d_m) else p


@pytest.mark.parametrize("environment,h_ut", [("UMa", 1.5), ("UMa", 13.0), ("UMa", 17.5),
                                              ("UMa", 30.0), ("UMi", 1.5), ("UMi", 22.5)])
def test_los_probability_matches_the_spelled_out_expression(environment, h_ut):
    rng = np.random.default_rng(5)
    d2d = np.concatenate(([0.0, 1e-300, 10.0, 18.0, np.nextafter(18.0, 19.0), 18.5],
                          rng.uniform(0.0, 18.0, 494), rng.uniform(18.0, 5000.0, 3000),
                          10.0 ** rng.uniform(3.0, 6.0, 500))).reshape(40, -1)
    got = los_probability(d2d, h_ut, environment)
    ref = reference_los_probability(d2d, h_ut, environment)
    assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
    assert got.tobytes() == ref.tobytes()
    assert np.all(got[d2d <= 18.0] == 1.0)
    for d in (0.0, 12.0, 18.0, 36.0, 250.0, 1234.5):
        p = los_probability(d, h_ut, environment)
        assert type(p) is float and p == reference_los_probability(d, h_ut, environment)


P_LOS = np.linspace(0.0, 1.0, 1200).reshape(30, 40)


@pytest.mark.parametrize("env", ["UMa", "UMi"])
def test_link_draws_are_the_keyed_streams(env):
    los, shadow = link_draws(7, "c1", P_LOS, env)
    ref_los = keyed_rng(7, "c1", 2).random(P_LOS.size).reshape(P_LOS.shape) < P_LOS
    ref_shadow = keyed_rng(7, "c1", 1).standard_normal(P_LOS.size).reshape(P_LOS.shape)
    ref_shadow = ref_shadow * np.where(ref_los, DEFAULT_SIGMA_SF_DB[(env, "LOS")],
                                       DEFAULT_SIGMA_SF_DB[(env, "NLOS")])
    assert (los.dtype, los.shape) == (np.bool_, P_LOS.shape)
    assert los.tobytes() == ref_los.tobytes()
    assert (shadow.dtype, shadow.shape) == (ref_shadow.dtype, ref_shadow.shape)
    assert shadow.tobytes() == ref_shadow.tobytes()
    assert 0 < np.count_nonzero(los) < los.size


def test_shadow_fading_deterministic():
    a = link_draws(7, "c1", P_LOS, "UMa")
    b = link_draws(7, "c1", P_LOS, "UMa")
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
    for other in (link_draws(8, "c1", P_LOS, "UMa"), link_draws(7, "c2", P_LOS, "UMa")):
        assert not np.array_equal(a[0], other[0])
        assert not np.array_equal(a[1], other[1])


def test_shadow_fading_sample_std():
    # all NLOS, then all LOS: the shadow map's std is its condition's sigma
    for p_los, cond in ((0.0, "NLOS"), (1.0, "LOS")):
        los, shadow = link_draws(3, "cell", np.full(10_000, p_los), "UMi")
        assert np.all(los == (cond == "LOS"))
        sigma = DEFAULT_SIGMA_SF_DB[("UMi", cond)]
        assert 0.95 < float(np.std(shadow)) / sigma < 1.05


def test_keyed_rng_streams_independent():
    a = keyed_rng(0, "cell", 1).standard_normal(10)
    b = keyed_rng(0, "cell", 2).standard_normal(10)
    c = keyed_rng(0, "other", 1).standard_normal(10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
