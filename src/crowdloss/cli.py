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

import numpy as np

from . import anchors as anchors_mod
from . import evalkit, svgplot
from .config import RunConfig, _coerce, load_run_config
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
    seeds = cfg.seeds
    if args.seeds:
        seeds = _coerce(args.seeds, (0,), "--seeds")
        if not seeds:
            raise ConfigError("--seeds list is empty")
    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return replace(cfg, seeds=seeds), out_dir


def _variant_configs(cfg: RunConfig, names) -> dict:
    available = standard_variants(cfg.composite)
    unknown = [n for n in names if n not in available]
    if unknown:
        raise ConfigError(f"unknown loss variant(s) {unknown}; choose from {sorted(available)}")
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
        seed_base=cfg.seeds[0],
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
    variants = _variant_configs(cfg, cfg.variants)
    for seed, _, results in descend_variants(variants, cfg.seeds, cfg.sim, cfg.couloss):
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


def cmd_nms_sweep(cfg: RunConfig, out_dir: Path, svg: bool) -> int:
    variants = _variant_configs(cfg, cfg.nms.variants)
    thresholds = cfg.nms.thresholds()
    try:
        result = nms_sensitivity_experiment(
            variants,
            list(cfg.seeds),
            cfg.sim,
            cfg.couloss,
            thresholds=thresholds,
            match_iou=cfg.nms.match_iou,
        )
    except DivergenceError as exc:
        print(f"nms-sweep: numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ABORT
    path, summary = out_dir / "nms_sweep.csv", out_dir / "nms_summary.csv"
    rows = [(r.variant, r.threshold, r.kept, r.false_positives, r.misses, r.miss_rate) for r in result.rows]
    evalkit._write_csv(path, NMS_FIELDS, rows)
    spreads = [(v, lo, hi, hi - lo, result.miss_variance[v]) for v, (lo, hi) in result.miss_spread.items()]
    evalkit._write_csv(summary, NMS_SUMMARY_FIELDS, spreads)
    if svg:
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


def _anchor_map(cfg: RunConfig, scene, seed: int):
    a = cfg.anchors
    if a.map_kind == "file":
        if not a.map_file:
            raise ConfigError("[anchors] map_kind=file requires map_file")
        return anchors_mod.load_probability_map(a.map_file)
    if a.map_kind == "bump":
        return anchors_mod.bump_probability_map(
            scene, a.stride, peak=a.peak, background=a.background, seed=seed
        )
    if a.map_kind == "indicator":
        return anchors_mod.indicator_probability_map(scene, a.stride)
    height, width = anchors_mod.scene_grid(scene, a.stride)  # flat
    return anchors_mod.ProbabilityMap(stride=a.stride, values=np.full((height, width), a.flat_value))


def cmd_anchor_demo(cfg: RunConfig, out_dir: Path) -> int:
    a = cfg.anchors
    rows = []
    first_map = None
    first_tmap = None
    for seed in cfg.seeds:
        scene = load_scene(a.scene_file) if a.scene_file else generate_scene(cfg.sim, seed)
        pmap = _anchor_map(cfg, scene, seed)
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
    subset = evalkit.SubsetFilter(
        min_height=e.min_height,
        max_height=e.max_height,
        min_visibility=e.min_visibility,
        max_visibility=e.max_visibility,
    )
    gts_by_scene = {}
    ignored_by_scene = {}
    for path in sorted(Path(e.scenes_dir).glob("*.txt")):
        scene = load_scene(path)
        sid = path.stem
        selected, ignored = [], []
        for ped in scene.pedestrians:
            (selected if subset.selects(ped.full, ped.visible) else ignored).append(ped.full)
        gts_by_scene[sid] = selected
        ignored_by_scene[sid] = ignored
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


def build_parser() -> _Parser:
    parser = _Parser(prog="crowdloss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_svg in (
        ("gradcheck", False),
        ("simulate", False),
        ("nms-sweep", True),
        ("anchor-demo", False),
        ("eval", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--seeds", default=None, help="comma-separated seed list")
        if needs_svg:
            p.add_argument("--svg", action="store_true", help="also write an SVG plot")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_run_config(args.config)
        cfg, out_dir = _resolve(cfg, args)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "nms-sweep":
            return cmd_nms_sweep(cfg, out_dir, args.svg)
        if args.command == "anchor-demo":
            return cmd_anchor_demo(cfg, out_dir)
        if args.command == "eval":
            return cmd_eval(cfg, out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except DivergenceError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ABORT
    except (ConfigError, CrowdLossError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
