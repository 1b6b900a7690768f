"""Command-line surface tying the planning / twin / detection loop together.

Subcommands mirror the loop: plan, simulate, twin, detect, recommend,
report, and demo (the whole loop on the bundled fixture: plan, then one
loop.run_loop record written by the other subcommands' writers). Every
command is file-in/file-out and deterministic given --seed. Exit codes:
0 ok, 1 input or validation error, 2 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from importlib import resources
from pathlib import Path

from . import coverage, detect, localize, loop, mitigate, planning, report, twin
from .errors import InputError, RfplanError, ScenarioValidationError
from .scenario import (_finite, from_json, load_scenario, read_json_object, validate,
                       write_json)


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
    if args.seed is not None:       # the override meets the file's rules
        scenario = dataclasses.replace(scenario, seed=args.seed)
        if violations := validate(scenario):
            raise ScenarioValidationError(violations)
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
    if len(set(cells)) < len(cells):
        raise InputError(f"{path}: affected_cells names a cell more than once")
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
    """A summary file's metrics: {band: {metric: number}}. A fault is named
    by its field path from the top of the file, as in metrics.n78.RTWP."""
    doc = {"metrics": read_json_object(path, "summary", InputError).get("metrics", {})}
    return from_json(dict[str, dict[str, dict[str, float]]], doc, path, InputError)["metrics"]


def _write_json(path, data, verbose=False):
    write_json(path, data)
    if verbose:
        print(f"wrote {path}")


def _write_all(path, writers) -> None:
    """Write the file at path and those beside it, {suffix: write(file)};
    if one fails, remove them all: a command leaves all its outputs or none."""
    files = [(Path(f"{path}{suffix}"), write) for suffix, write in writers.items()]
    try:
        for file, write in files:
            write(file)
    except BaseException:
        for file, _ in files:
            if file.is_file():
                file.unlink()
        raise


def _out(args, default_name):
    if args.out:
        return Path(args.out)
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)      # only when a file goes into it
    return out_dir / default_name


# ---------------------------------------------------------------------------
# subcommands


def cmd_plan(args, scenario) -> int:
    band_ids = None if args.band is None else [args.band]
    scenario.require_bands(band_ids or (), "band")
    results = planning.plan_scenario(scenario, condition=args.condition,
                                     band_ids=band_ids)
    data = {"scenario": scenario.name, "condition": args.condition,
            "note": "demo link budget is an illustrative fixture",
            "bands": [dataclasses.asdict(r) for r in results]}
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
    summary_doc = {"scenario": scenario.name, "interference": interference,
                   "summary": summary, "metrics": report.sim_metrics(scenario, summary)}
    path = _out(args, default_name)
    _write_all(path, {"": lambda p: coverage.write_grid_csv(grid, p),
                      ".summary.json": lambda p: _write_json(p, summary_doc, args.verbose)})
    ov = summary["overall"]
    print(f"grid {grid.shape[1]}x{grid.shape[0]} px, covered "
          f"{summary['covered_fraction']:.1%}, mean RSSI "
          f"{ov['rssi_dbm']['mean']:.1f} dBm, mean SINR "
          f"{ov['sinr_db']['mean']:.1f} dB")


def cmd_twin(args, scenario) -> int:
    print(_write_twin(args, scenario, twin.synthesize_kpi(scenario, args.duration, args.dt)))
    return 0


def _write_twin(args, scenario, batch) -> str:
    """twin's outputs: the KPI CSV, the sealed ground truth (detection reads
    it only behind an explicit --validate) and the summary file; -> its text."""
    summary_doc = {"scenario": scenario.name,
                   "metrics": report.twin_metrics(scenario, batch)}
    path = _out(args, "kpi.csv")
    _write_all(path, {"": lambda p: twin.write_kpi_csv(batch, p),
                      ".truth.json": lambda p: twin.write_ground_truth(scenario, p),
                      ".summary.json": lambda p: _write_json(p, summary_doc)})
    wrote = f"wrote {path}.summary.json\n" if args.verbose else ""
    return f"{wrote}{len(batch.cell_ids)} cells x {batch.timestamps.size} samples -> {path}"


def cmd_detect(args, scenario) -> int:
    batch = twin.read_kpi_csv(args.kpi_csv)
    scenario.require_sectors(batch.cell_ids, "KPI cell")
    result = detect.run_detection(batch, args.baseline_window, k=args.k,
                                  seed=scenario.seed, threshold_db=args.threshold,
                                  metric=args.metric)
    estimates = (localize.estimate_interferer(scenario, result)
                 if result.anomaly_flag else {})
    _write_detection(args, scenario, result, estimates)
    return 0


def _write_detection(args, scenario, result, estimates) -> None:
    """detect's outputs: the detection file, with the estimates and, under
    --validate, their scores, and one line."""
    doc = {"scenario": scenario.name, "metric": args.metric, "k": args.k,
           "baseline_window": args.baseline_window, "threshold_db": result.threshold_db,
           "anomaly": result.anomaly_flag, "affected_cells": list(result.affected_cells),
           "evidence": result.evidence}
    if result.anomaly_flag:
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
    doc = {"scenario": scenario.name, "rationale": rec.rationale,
           "expected_effect_db": rec.expected_effect_db,
           "changes": {sec: new for sec, _old, new in rec.changes},
           "verification": None if verdict is None else dataclasses.asdict(verdict)}
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
    """The whole loop on the bundled scenario: plan, twin's files, then one
    run_loop record on kpi.csv read back as detect reads it, written by the
    writers of simulate (off, then on), detect, recommend and report. The
    output is theirs run one after another into one directory."""
    out_dir = Path(args.out_dir or "demo_out")      # made by plan, the first to write
    made = out_dir.absolute()       # the demo's outputs as inputs: no name parses as a flag
    scenario_path = demo_scenario_path()
    parser = build_parser()
    flags = [f"--out-dir={out_dir}", *(["--verbose"] if args.verbose else []),
             *([] if args.seed is None else [f"--seed={args.seed}"])]

    def step(*argv):    # each output is the subcommand's default file in out_dir
        return parser.parse_args([*flags, *map(str, argv)])

    plan = step("plan", scenario_path)
    scenario = _load(plan)
    print("== plan ==")
    cmd_plan(plan, scenario)

    twin_args = step("twin", scenario_path)
    twin_text = _write_twin(twin_args, scenario, twin.synthesize_kpi(
        scenario, twin_args.duration, twin_args.dt))
    detect_args = step("detect", made / "kpi.csv", scenario_path,
                       f"--validate={made / 'kpi.csv.truth.json'}")
    record = loop.run_loop(scenario, twin.read_kpi_csv(detect_args.kpi_csv),
                           baseline_window=detect_args.baseline_window,
                           n_workers=args.workers)
    print("== simulate (interference off / on) ==")
    for mode, grid in zip(("off", "on"), record.grids):
        _write_simulation(step("simulate", scenario_path), scenario, grid, mode,
                          f"grid_{mode}.csv")
    print("== twin ==")
    print(twin_text)
    print("== detect ==")
    _write_detection(detect_args, scenario, record.detection, record.estimates)
    print("== recommend ==")
    _write_recommendation(step("recommend", made / "detection.json", scenario_path),
                          scenario, record.recommendation, record.verdict)
    print("== report ==")
    cmd_report(step("report", made / "grid_on.csv.summary.json",
                    made / "kpi.csv.summary.json"))
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
    except (RfplanError, OSError) as exc:   # an OSError here is an output it cannot write
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal errors
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
