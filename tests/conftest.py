"""Shared fixtures: the bundled demo scenario and derived artifacts.

The expensive pieces (coverage grids, KPI batches) are session-scoped;
everything downstream treats them as read-only.
"""

import dataclasses

import pytest

from rfplan import coverage, twin
from rfplan.cli import demo_scenario_path
from rfplan.scenario import Interferer, load_scenario


@pytest.fixture(scope="session")
def demo_scenario():
    return load_scenario(demo_scenario_path())


@pytest.fixture(scope="session")
def quiet_scenario(demo_scenario):
    """Demo scenario with every external interferer removed."""
    return dataclasses.replace(demo_scenario, interferers=())


@pytest.fixture(scope="session")
def two_band_scenario(demo_scenario):
    """The demo with sites E and G on n78b, widened to 40 MHz, no configured
    RTWP baseline (so n78 reads -99.0 dBm and n78b -92.98 dBm) and a second
    jammer on n78b, at seed 1: detection flags A1-A3, B3 and E1-E3."""
    def on_n78b(site):
        return dataclasses.replace(site, sectors=tuple(
            dataclasses.replace(sec, band_ref="n78b") for sec in site.sectors))
    jam2 = Interferer("JAM2", (3600.0, 5150.0), 1.5, 18.0, "n78b", ((900.0, 3600.0),))
    return dataclasses.replace(
        demo_scenario, seed=1,
        sites=tuple(on_n78b(s) if s.id in ("E", "G") else s for s in demo_scenario.sites),
        bands=tuple(dataclasses.replace(b, bandwidth_mhz=40.0) if b.id == "n78b" else b
                    for b in demo_scenario.bands),
        twin=dataclasses.replace(demo_scenario.twin, rtwp_baseline_dbm=None),
        interferers=demo_scenario.interferers + (jam2,))


@pytest.fixture(scope="session")
def demo_grid(demo_scenario):
    return coverage.compute_grid(demo_scenario, interferers_active=True)


@pytest.fixture(scope="session")
def demo_grid_off(demo_scenario):
    return coverage.compute_grid(demo_scenario, interferers_active=False)


@pytest.fixture(scope="session")
def demo_batch(demo_scenario):
    return twin.synthesize_kpi(demo_scenario, duration_s=3600.0, dt_s=60.0)
