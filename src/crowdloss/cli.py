"""Command-line orchestration: gradient checks, simulations, sweeps, demos, evaluation.

Every command is deterministic for a given (config, seeds) pair and writes
its CSVs once, after ordered aggregation. Exit codes: 0 success, 1
usage/config error, 2 acceptance-check failure, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import anchors as anchors_mod
from . import evalkit, svgplot
from .config import RunConfig, load_run_config, with_flags
from .errors import ConfigError, CrowdLossError, DivergenceError
from .gradcheck import run_gradcheck
from .simulator import (
    descend_variants,
    generate_scene,
    load_scene,
    nms_sensitivity_experiment,
    standard_variants,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_NUMERIC_ABORT = 3

SIMULATE_FIELDS = ("seed", "variant", "drift_rate", "mean_final_iou", "overlap_occupancy", "final_loss")
NMS_FIELDS = ("variant", "threshold", "kept", "false_positives", "misses", "miss_rate")
NMS_SUMMARY_FIELDS = ("variant", "min_misses", "max_misses", "spread", "variance")
ANCHOR_FIELDS = (
    "seed",
    "threshold",
    "retained_cells",
    "total_cells",
    "fallback",
    "selected_fraction",
    "uniform_fraction",
    "selected_negatives",
    "uniform_negatives",
    "weighted_location_loss",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve(cfg: RunConfig, args) -> tuple[RunConfig, Path]:
    run = with_flags(cfg.run, args.seeds, args.out)
    out_dir = Path(run.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return replace(cfg, run=run), out_dir


def _variant_configs(cfg: RunConfig, names) -> dict:
    available = standard_variants(cfg.composite)
    return {n: available[n] for n in names}


def cmd_gradcheck(cfg: RunConfig, out_dir: Path) -> int:
    gc = cfg.gradcheck
    outcome = run_gradcheck(
        cfg.sim,
        cfg.composite,
        cfg.couloss,
        num_scenes=gc.num_scenes,
        fd_step_fraction=gc.fd_step_fraction,
        kink_tolerance=gc.kink_tolerance,
        max_perturb_retries=gc.max_perturb_retries,
        seed_base=cfg.run.seeds[0],
    )
    passed = outcome.passed(gc.tolerance)
    lines = [
        f"scenes_checked {outcome.scenes_checked}",
        f"scenes_skipped_kinks {outcome.scenes_skipped}",
    ]
    for term in sorted(outcome.max_error):
        lines.append(
            f"term {term} max {outcome.max_error[term]!r} mean {outcome.mean_error[term]!r}"
        )
    lines.extend(outcome.kink_lines)
    lines.append(f"result {'PASS' if passed else 'FAIL'} tolerance {gc.tolerance!r}")
    report = out_dir / "gradcheck_report.txt"
    report.write_text("\n".join(lines) + "\n")
    print(f"gradcheck: {'PASS' if passed else 'FAIL'} "
          f"(max error {max(outcome.max_error.values()):.3g}, report {report})")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    """Descend every (seed, variant) as one batch. The first failed descent in
    that order decides: a divergence writes the rows of the seeds before its
    seed and exits 3, any other error is raised."""
    rows = []
    path = out_dir / "simulate.csv"
    variants = _variant_configs(cfg, cfg.run.variants)
    for seed, _, results in descend_variants(variants, cfg.run.seeds, cfg.sim, cfg.couloss):
        failed = [r for r in results.values() if isinstance(r, CrowdLossError)]
        if failed and isinstance(failed[0], DivergenceError):
            evalkit._write_csv(path, SIMULATE_FIELDS, rows)
            print(f"simulate: numerical abort after {len(rows)} rows: {failed[0]}", file=sys.stderr)
            return EXIT_NUMERIC_ABORT
        if failed:
            raise failed[0]
        for name, r in results.items():
            rows.append(
                (seed, name, r.drift_rate, r.mean_final_iou, r.overlap_occupancy, r.loss_curve[-1])
            )
    evalkit._write_csv(path, SIMULATE_FIELDS, rows)
    print(f"simulate: wrote {len(rows)} rows to {path}")
    return EXIT_OK


def cmd_nms_sweep(cfg: RunConfig, out_dir: Path) -> int:
    variants = _variant_configs(cfg, cfg.nms.variants)
    result = nms_sensitivity_experiment(
        variants, list(cfg.run.seeds), cfg.sim, cfg.couloss, thresholds=cfg.nms.thresholds, match_iou=cfg.nms.match_iou
    )
    path, summary = out_dir / "nms_sweep.csv", out_dir / "nms_summary.csv"
    rows = [(r.variant, r.threshold, r.kept, r.false_positives, r.misses, r.miss_rate) for r in result.rows]
    evalkit._write_csv(path, NMS_FIELDS, rows)
    spreads = [(v, lo, hi, hi - lo, result.miss_variance[v]) for v, (lo, hi) in result.miss_spread.items()]
    evalkit._write_csv(summary, NMS_SUMMARY_FIELDS, spreads)
    series = {}
    for r in result.rows:
        series.setdefault(r.variant, []).append((r.threshold, r.miss_rate))
    svgplot.write_line_plot(
        out_dir / "nms_sweep.svg",
        series,
        title="Miss rate vs NMS threshold",
        xlabel="NMS threshold",
        ylabel="miss rate",
    )
    print(f"nms-sweep: wrote {path} and {summary}")
    return EXIT_OK


def cmd_anchor_demo(cfg: RunConfig, out_dir: Path) -> int:
    a = cfg.anchors
    rows = []
    first_map = None
    first_tmap = None
    for seed in cfg.run.seeds:
        scene = load_scene(a.scene_file) if a.scene_file else generate_scene(cfg.sim, seed)
        pmap = a.probability_map(scene, seed)
        selected = anchors_mod.select_anchors(pmap, a.scales, a.ratios)
        stats = anchors_mod.negative_informativeness(selected, scene, a.negative_iou_threshold)
        tmap = anchors_mod.build_target_map(scene, (pmap.height, pmap.width), pmap.stride)
        loc_loss = cfg.composite.gamma * anchors_mod.location_branch_loss(
            pmap, tmap, cfg.composite
        )
        rows.append(
            (
                seed,
                selected.threshold,
                len(selected.cells),
                pmap.height * pmap.width,
                str(selected.fallback).lower(),
                stats.selected_fraction,
                stats.uniform_fraction,
                stats.selected_negatives,
                stats.uniform_negatives,
                loc_loss,
            )
        )
        if first_map is None:
            first_map, first_tmap = pmap, tmap
    stats_path = out_dir / "anchor_stats.csv"
    evalkit._write_csv(stats_path, ANCHOR_FIELDS, rows)
    anchors_mod.save_probability_map(first_map, out_dir / "probability_map.txt")
    anchors_mod.save_target_map(first_tmap, out_dir / "target_map.txt")
    print(f"anchor-demo: wrote {stats_path}, probability_map.txt, target_map.txt")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, out_dir: Path) -> int:
    e = cfg.eval
    if not e.detections or not e.scenes_dir:
        raise ConfigError("[eval] requires both 'detections' and 'scenes_dir'")
    if not os.path.isfile(e.detections):
        raise ConfigError(f"detections file not found: {e.detections}")
    if not os.path.isdir(e.scenes_dir):
        raise ConfigError(f"scenes directory not found: {e.scenes_dir}")
    dets = evalkit.load_detections(e.detections)
    gts_by_scene, ignored_by_scene = {}, {}
    for path in sorted(Path(e.scenes_dir).glob("*.txt")):
        selected = gts_by_scene[path.stem] = []
        ignored = ignored_by_scene[path.stem] = []
        for ped in load_scene(path).pedestrians:
            (selected if e.selects(ped.full, ped.visible) else ignored).append(ped.full)
    curve = evalkit.fppi_curve(dets, gts_by_scene, e.match_iou, ignored_by_scene)
    evalkit.save_curve(curve, out_dir / "curve.csv")
    mr2 = evalkit.log_average_miss_rate(curve)
    fppi_at = evalkit.fppi_at_miss_rate(curve, e.target_miss_rate)
    summary = out_dir / "eval_summary.txt"
    summary.write_text(
        f"log_average_miss_rate {mr2!r}\n"
        f"fppi_at_miss_rate_{e.target_miss_rate!r} {fppi_at!r}\n"
        f"scenes {len(gts_by_scene)}\n"
        f"ground_truths {sum(len(v) for v in gts_by_scene.values())}\n"
        f"detections {len(dets)}\n"
    )
    print(f"eval: MR^-2 = {mr2:.6f}, wrote curve.csv and {summary}")
    return EXIT_OK


COMMANDS = {
    "gradcheck": cmd_gradcheck,
    "simulate": cmd_simulate,
    "nms-sweep": cmd_nms_sweep,
    "anchor-demo": cmd_anchor_demo,
    "eval": cmd_eval,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="crowdloss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--seeds", default=None, help="comma-separated seed list")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg, out_dir = _resolve(load_run_config(args.config), args)
        return COMMANDS[args.command](cfg, out_dir)
    except DivergenceError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ABORT
    except (CrowdLossError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
