"""Deterministic radio-network planning and digital-twin interference loop.

Plan coverage with TR 38.901 urban pathloss, synthesize per-cell
RTWP/RSSI KPI feeds, detect and localize external interferers via
K-means clustering and correlation, and close the loop with verified
frequency-reassignment recommendations.
"""

from .scenario import (Band, Interferer, Rect, Scenario, Sector, Site,
                       UserTerminalProfile, cell_baseline_dbm, load_scenario,
                       save_scenario, validate)
from .propagation import AntennaPattern, PathlossQuery, los_probability, pathloss_db
from .planning import (LinkBudget, PlanResult, cell_radius_m,
                       max_allowed_pathloss_db, receiver_sensitivity_dbm,
                       required_site_count)
from .coverage import (CoverageGrid, compute_grid, compute_grids, grid_summary,
                       throughput_mbps, write_grid_csv)
from .twin import (KpiBatch, KpiSeries, coupling_dbm, excess_matrix,
                   read_kpi_csv, synthesize_kpi, write_kpi_csv)
from .detect import ClusterResult, DetectionResult, kmeans, run_detection
from .localize import (LocalizationEstimate, pathloss_lsq,
                       validate_localization, weighted_centroid)
from .mitigate import (Recommendation, VerificationVerdict, apply, compare,
                       recommend, verify)
from .loop import LoopRecord, run_loop

__version__ = "0.1.0"
