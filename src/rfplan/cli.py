"""Command-line surface tying the planning / twin / detection loop together.

Subcommands mirror the loop: plan, simulate, twin, detect, recommend,
report, and demo (the whole loop on the bundled fixture). Every command
is file-in/file-out and deterministic given --seed. Exit codes: 0 ok,
1 input or validation error, 2 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import sys
from importlib import resources
from pathlib import Path

from . import coverage, detect, localize, mitigate, planning, report, twin
from .errors import InputError, RfplanError
from .scenario import _finite, load_scenario, read_json_object
from .twin import cell_baseline_dbm


class _Parser(argparse.ArgumentParser):
    # usage errors are input errors (exit 1), not internal errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _worker_count(text) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _finite_float(text) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return x


def demo_scenario_path() -> Path:
    return Path(resources.files("rfplan").joinpath("data/demo_scenario.json"))


def _load(args):
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    return scenario


def _on_scenario(cmd):
    """The subcommand run on the scenario file its arguments name."""
    return lambda args: cmd(args, _load(args))


def _read_detection(path) -> detect.DetectionResult:
    """The fields of a detection file that recommend reads, shape-checked."""
    doc = read_json_object(path, "detection", InputError)
    cells, anomaly = doc.get("affected_cells", []), doc.get("anomaly", False)
    evidence, threshold_db = doc.get("evidence", {}), doc.get("threshold_db", 3.0)
    if not (isinstance(cells, list) and all(isinstance(c, str) for c in cells)):
        raise InputError(f"{path}: affected_cells must be a list of cell ids")
    if not (isinstance(anomaly, bool) and _finite(threshold_db)
            and isinstance(evidence, dict)):
        raise InputError(f"{path}: anomaly must be true or false, threshold_db "
                         "a number and evidence an object")
    if anomaly and not (cells and all(
            isinstance(evidence.get(c), dict)
            and _finite(evidence[c].get("mean_excess_db")) for c in cells)):
        raise InputError(f"{path}: an anomaly needs affected cells, each with "
                         "a numeric evidence.mean_excess_db")
    return detect.DetectionResult(tuple(cells), anomaly, evidence,
                                  float(threshold_db))


def _read_metrics(path) -> dict:
    """A summary file's metrics: {band: {metric: number}}."""
    metrics = read_json_object(path, "summary", InputError).get("metrics", {})
    if not (isinstance(metrics, dict) and all(
            isinstance(m, dict) and all(_finite(v) for v in m.values())
            for m in metrics.values())):
        raise InputError(f"{path}: metrics must map bands to objects of numbers")
    return metrics


def _write_json(path, data, verbose=False):
    # NaN and Infinity are not JSON: fail before the file is opened
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    if verbose:
        print(f"wrote {path}")


def _out(args, default_name):
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    return Path(args.out) if args.out else out_dir / default_name


# ---------------------------------------------------------------------------
# subcommands


def cmd_plan(args, scenario) -> int:
    band_ids = [args.band] if args.band else None
    if band_ids and band_ids[0] not in {b.id for b in scenario.bands}:
        raise InputError(f"unknown band {args.band!r}")
    results = planning.plan_scenario(scenario, condition=args.condition,
                                     band_ids=band_ids)
    data = {
        "scenario": scenario.name,
        "condition": args.condition,
        "note": "demo link budget is an illustrative fixture",
        "bands": [dataclasses.asdict(r) for r in results],
    }
    path = _out(args, "plan.json")
    _write_json(path, data, args.verbose)
    for r in results:
        print(f"{r.band_id}: MAPL {r.mapl_db:.1f} dB, radius "
              f"{r.cell_radius_m:.1f} m, sites {r.site_count}")
    return 0


def cmd_simulate(args, scenario) -> int:
    grid = coverage.compute_grid(scenario,
                                 interferers_active=args.interference == "on",
                                 n_workers=args.workers)
    _write_simulation(args, scenario, grid, args.interference, "grid.csv")
    return 0


def _write_simulation(args, scenario, grid, interference, default_name) -> None:
    """simulate's outputs: the grid CSV, its summary file and one line."""
    summary = coverage.grid_summary(grid)       # fails before any file is written
    path = _out(args, default_name)
    coverage.write_grid_csv(grid, path)
    summary_doc = {
        "scenario": scenario.name,
        "interference": interference,
        "summary": summary,
        "metrics": report.sim_metrics(scenario, summary),
    }
    _write_json(Path(str(path) + ".summary.json"), summary_doc, args.verbose)
    ov = summary["overall"]
    print(f"grid {grid.shape[1]}x{grid.shape[0]} px, covered "
          f"{summary['covered_fraction']:.1%}, mean RSSI "
          f"{ov['rssi_dbm']['mean']:.1f} dBm, mean SINR "
          f"{ov['sinr_db']['mean']:.1f} dB")


def cmd_twin(args, scenario) -> int:
    batch = twin.synthesize_kpi(scenario, args.duration, args.dt)
    path = _out(args, "kpi.csv")
    twin.write_kpi_csv(batch, path)
    # ground truth goes to a separate sealed file; detection only reads it
    # behind an explicit --validate
    twin.write_ground_truth(batch, Path(str(path) + ".truth.json"))
    _write_json(Path(str(path) + ".summary.json"),
                {"scenario": scenario.name,
                 "metrics": report.twin_metrics(scenario, batch)},
                args.verbose)
    n = next(iter(batch.series["RTWP"].values())).samples.size
    print(f"{len(batch.cells())} cells x {n} samples -> {path}")
    return 0


def cmd_detect(args, scenario) -> int:
    batch = twin.read_kpi_csv(args.kpi_csv)
    cells = set(batch.cells())
    expected = set(scenario.sector_ids)
    if not cells <= expected:
        raise InputError(f"KPI cells not in scenario: {sorted(cells - expected)}")

    seed = args.seed if args.seed is not None else scenario.seed
    result = detect.run_detection(batch, args.baseline_window, k=args.k,
                                  seed=seed, threshold_db=args.threshold,
                                  metric=args.metric)
    doc = {
        "scenario": scenario.name,
        "metric": args.metric,
        "k": args.k,
        "baseline_window": args.baseline_window,
        "threshold_db": result.threshold_db,
        "anomaly": result.anomaly_flag,
        "affected_cells": list(result.affected_cells),
        "evidence": result.evidence,
    }
    if result.anomaly_flag:
        first_band = scenario.sector_by_id(result.affected_cells[0])[1].band_ref
        baseline = cell_baseline_dbm(scenario, scenario.band_by_id(first_band))
        estimates = localize.estimate_interferer(scenario, result, baseline)
        doc["localization"] = {
            name: {"position": list(est.position), "residual": est.residual,
                   "tx_power_dbm": est.tx_power_dbm, "fallback": est.fallback,
                   "cells_used": list(est.cells_used)}
            for name, est in estimates.items()}
        if args.validate:
            truth = twin.read_ground_truth(args.validate)
            doc["validation"] = {
                name: dataclasses.asdict(localize.validate_localization(
                    est, truth[0].position, args.validation_radius))
                for name, est in estimates.items()} if truth else {}

    path = _out(args, "detection.json")
    _write_json(path, doc, args.verbose)
    state = "ANOMALY" if result.anomaly_flag else "clear"
    print(f"{state}: affected={list(result.affected_cells)}")
    return 0


def cmd_recommend(args, scenario) -> int:
    result = _read_detection(args.detection_json)
    rec = mitigate.recommend(scenario, result)
    verdict = (mitigate.verify(scenario, mitigate.apply(scenario, rec),
                               result.affected_cells, n_workers=args.workers)
               if rec.changes else None)
    _write_recommendation(args, scenario, rec, verdict)
    return 0


def _write_recommendation(args, scenario, rec, verdict) -> None:
    """recommend's outputs: one line and the recommendation file; verdict
    is None when the recommendation changes nothing."""
    doc = {
        "scenario": scenario.name,
        "rationale": rec.rationale,
        "expected_effect_db": rec.expected_effect_db,
        "changes": {sec: new for sec, _old, new in rec.changes},
        "verification": None if verdict is None else dataclasses.asdict(verdict),
    }
    if verdict is None:
        print(f"no-op: {rec.rationale}")
    else:
        print(f"{len(rec.changes)} change(s); SINR "
              f"{verdict.pre_mean_sinr_db:.1f} -> {verdict.post_mean_sinr_db:.1f} dB "
              f"({'improved' if verdict.improved else 'NOT improved'})")
    _write_json(_out(args, "recommendation.json"), doc, args.verbose)


def cmd_report(args) -> int:
    rows, warnings = report.build_comparison(_read_metrics(args.sim_summary),
                                             _read_metrics(args.twin_summary))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(report.format_table(rows))
    _write_json(_out(args, "report.json"), report.rows_to_dict(rows, warnings),
                args.verbose)
    return 0


def cmd_demo(args) -> int:
    """The whole loop on the bundled scenario. Its output is that of plan,
    simulate (off, then on), twin, detect, recommend and report run one
    after another into one directory.

    Twin, detect and the recommendation never read a grid, so they run
    first, with their lines held back until the simulate section has
    printed. The off, on and mitigated grids then come from one field pass.
    """
    out_dir = Path(args.out_dir or "demo_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    ns = argparse.Namespace(**vars(args))
    ns.scenario = str(demo_scenario_path())
    ns.out_dir = str(out_dir)
    ns.out = None
    scenario = _load(ns)

    print("== plan ==")
    ns.band, ns.condition = None, "NLOS"
    cmd_plan(ns, scenario)

    held = io.StringIO()
    with contextlib.redirect_stdout(held):
        print("== twin ==")
        ns.out = str(out_dir / "kpi.csv")
        ns.duration, ns.dt = 3600.0, 60.0
        cmd_twin(ns, scenario)

        print("== detect ==")
        ns.kpi_csv = str(out_dir / "kpi.csv")
        ns.baseline_window, ns.k, ns.threshold, ns.metric = 15, 2, 3.0, "RTWP"
        ns.validate = str(out_dir / "kpi.csv.truth.json")
        ns.validation_radius = 500.0
        ns.out = str(out_dir / "detection.json")
        cmd_detect(ns, scenario)

    result = _read_detection(out_dir / "detection.json")   # as rfplan recommend does
    rec = mitigate.recommend(scenario, result)
    # without its interferers, the scenario gives simulate --interference off's grid
    scenarios = [dataclasses.replace(scenario, interferers=()), scenario]
    if rec.changes:
        scenarios.append(mitigate.apply(scenario, rec))
    grids = coverage.compute_grids(scenarios, n_workers=ns.workers)

    print("== simulate (interference off / on) ==")
    ns.out = None
    for mode, grid in zip(("off", "on"), grids):
        _write_simulation(ns, scenario, grid, mode, f"grid_{mode}.csv")
    sys.stdout.write(held.getvalue())

    print("== recommend ==")
    ns.out = str(out_dir / "recommendation.json")
    verdict = (mitigate.compare(grids[1], grids[2], result.affected_cells)
               if rec.changes else None)
    _write_recommendation(ns, scenario, rec, verdict)

    print("== report ==")
    ns.sim_summary = str(out_dir / "grid_on.csv.summary.json")
    ns.twin_summary = str(out_dir / "kpi.csv.summary.json")
    ns.out = str(out_dir / "report.json")
    cmd_report(ns)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rfplan",
                     description="Deterministic RF planning and digital-twin "
                                 "interference loop")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--out-dir", default=None,
                        help="directory for default output files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="link budget, cell radius, site count")
    p.add_argument("scenario")
    p.add_argument("--band", default=None)
    p.add_argument("--condition", choices=("LOS", "NLOS"), default="NLOS")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_on_scenario(cmd_plan))

    p = sub.add_parser("simulate", help="coverage grid CSV + summary")
    p.add_argument("scenario")
    p.add_argument("--interference", choices=("on", "off"), default="on")
    p.add_argument("--workers", type=_worker_count, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_on_scenario(cmd_simulate))

    p = sub.add_parser("twin", help="synthesize the KPI feed")
    p.add_argument("scenario")
    p.add_argument("--duration", type=float, default=3600.0)
    p.add_argument("--dt", type=float, default=60.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_on_scenario(cmd_twin))

    p = sub.add_parser("detect", help="cluster KPI series, flag + localize")
    p.add_argument("kpi_csv")
    p.add_argument("scenario")
    p.add_argument("--baseline-window", type=int, default=15)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--threshold", type=_finite_float, default=3.0)
    p.add_argument("--metric", choices=twin.METRICS, default="RTWP")
    p.add_argument("--validate", default=None,
                   help="sealed ground-truth file to score localization against")
    p.add_argument("--validation-radius", type=_finite_float, default=500.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_on_scenario(cmd_detect))

    p = sub.add_parser("recommend", help="frequency reassignment + verification")
    p.add_argument("detection_json")
    p.add_argument("scenario")
    p.add_argument("--workers", type=_worker_count, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_on_scenario(cmd_recommend))

    p = sub.add_parser("report", help="simulated vs twin comparison table")
    p.add_argument("sim_summary")
    p.add_argument("twin_summary")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("demo", help="run the whole loop on the bundled fixture")
    p.add_argument("--workers", type=_worker_count, default=1)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RfplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal errors
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
