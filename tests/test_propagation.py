"""Pathloss closed forms, LOS probability and seeded shadow fading."""

from dataclasses import astuple

import numpy as np
import pytest

from rfplan.errors import DomainError
from rfplan.propagation import (PathlossQuery, ShadowFadingField,
                                breakpoint_distance_m, free_space_pathloss_db,
                                keyed_rng, los_probability, pathloss_db,
                                pathloss_db_array, pathloss_db_clamped)


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


def test_clamped_variant_does_not_error():
    v = float(pathloss_db_clamped(0.01, 3.5, 25.0, 1.5, "UMa", "NLOS"))
    assert v == float(pathloss_db_clamped(1.0, 3.5, 25.0, 1.5, "UMa", "NLOS"))


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


def test_shadow_fading_deterministic():
    a = ShadowFadingField(seed=7).standard_samples("c1", 1000)
    b = ShadowFadingField(seed=7).standard_samples("c1", 1000)
    assert np.array_equal(a, b)
    c = ShadowFadingField(seed=8).standard_samples("c1", 1000)
    assert not np.array_equal(a, c)


def test_shadow_fading_sample_std():
    s = ShadowFadingField(seed=3).standard_samples("cell", 10_000)
    assert 0.95 < float(np.std(s)) < 1.05


def test_keyed_rng_streams_independent():
    a = keyed_rng(0, "cell", 1).standard_normal(10)
    b = keyed_rng(0, "cell", 2).standard_normal(10)
    c = keyed_rng(0, "other", 1).standard_normal(10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
