import csv
import importlib.util
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from crowdloss import evalkit
from crowdloss.anchors import load_probability_map, load_target_map
from crowdloss.cli import _resolve, build_parser, main
from crowdloss.config import NmsSweepConfig, RunConfig, load_run_config
from crowdloss.errors import ConfigError, InvalidInputError
from crowdloss.evalkit import load_curve, load_detections
from crowdloss.geometry import BBox
from crowdloss.simulator import SimConfig, generate_scene, load_scene, save_scene

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
# the crowd-dense workload's config file
CROWD_DENSE = (
    "[sim]\npedestrian_count = 6\nproposals_per_gt = 8\nrecompute_assignments = false\n"
    "gradient_noise = 0.055\ndescent_steps = 50\n\n[composite]\nsmoothl1_weight = 7\n\n"
    "[run]\nvariants = baseline, couloss\n"
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_config(path, text):
    path.write_text(text)
    return str(path)


class TestConfigFile:
    def test_defaults_without_file(self):
        cfg = load_run_config(None)
        assert isinstance(cfg, RunConfig)
        assert cfg.sim.pedestrian_count == 2
        assert cfg.seeds == tuple(range(20))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_run_config("/nonexistent/run.cfg")

    def test_sections_parsed(self, tmp_path):
        path = write_config(
            tmp_path / "run.cfg",
            "[sim]\npedestrian_count = 3\nheight_range = 0.25, 0.4\n"
            "[couloss]\naggregation_mode = triplet-literal\n"
            "[composite]\nalpha = 0.5\ninclude_repulsion = false\n"
            "[run]\nseeds = 4, 5\nout = results\n",
        )
        cfg = load_run_config(path)
        assert cfg.sim.pedestrian_count == 3
        assert cfg.sim.height_range == (0.25, 0.4)
        assert cfg.couloss.aggregation_mode == "triplet-literal"
        assert cfg.composite.alpha == 0.5
        assert cfg.composite.include_repulsion is False
        assert cfg.seeds == (4, 5)
        assert cfg.out_dir == "results"

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", "[sim]\nwalrus = 1\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_sim_seed_is_unknown(self, tmp_path):
        # run_descent takes its seed from each command, so the config has none
        path = write_config(tmp_path / "run.cfg", "[sim]\nseed = 5\n")
        with pytest.raises(ConfigError, match="unknown key 'seed'"):
            load_run_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", "[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[sim]\npedestrian_count = lots\n", r"\[sim\] pedestrian_count"),
            # nan > 0 is false, so a nan noise level silently switched the noise off
            ("[sim]\ngradient_noise = nan\n", r"\[sim\] gradient_noise: expected a finite"),
            ("[sim]\nstep_size = nan\n", r"\[sim\] step_size: expected a finite"),
            ("[sim]\nheight_range = 0.3, inf\n", r"\[sim\] height_range: expected a finite"),
            ("[eval]\nmin_height = inf\n", r"\[eval\] min_height: expected a finite"),
            ("[nms]\nthreshold_step = 0\n", r"\[nms\].*threshold_step must be finite and > 0"),
            ("[nms]\nthreshold_step = -0.05\n", r"\[nms\].*threshold_step must be finite and > 0"),
            ("[nms]\nthreshold_min = 0.9\n", r"\[nms\].*threshold_min <= threshold_max"),
            ("[nms]\nthreshold_max = 1.0\n", r"\[nms\].*must lie in \(0, 1\)"),
            ("[nms]\nthreshold_min = 0.0\n", r"\[nms\].*must lie in \(0, 1\)"),
            ("[nms]\nvariants =\n", r"\[nms\].*variants must not be empty"),
            ("[run]\nvariants =\n", r"\[run\] variants must not be empty"),
            ("[gradcheck]\ntolerance = 0\n", r"\[gradcheck\].*tolerance must be finite and > 0"),
            ("[gradcheck]\nfd_step_fraction = 0\n", r"\[gradcheck\].*fd_step_fraction must be finite and > 0"),
            ("[gradcheck]\nkink_tolerance = -0.001\n", r"\[gradcheck\].*kink_tolerance must be finite and >= 0"),
            ("[gradcheck]\nnum_scenes = 0\n", r"\[gradcheck\].*num_scenes must be >= 1"),
            ("[gradcheck]\nmax_perturb_retries = 0\n", r"\[gradcheck\].*max_perturb_retries must be >= 1"),
            ("[anchors]\nstride = 0\n", r"\[anchors\].*stride must be finite and > 0"),
            ("[anchors]\nscales = -5\n", r"\[anchors\].*scales must be non-empty, each finite and > 0"),
            ("[anchors]\nscales =\n", r"\[anchors\].*scales must be non-empty"),
            ("[anchors]\nratios = 0\n", r"\[anchors\].*ratios must be non-empty, each finite and > 0"),
            ("[anchors]\nmap_kind = bogus\n", r"\[anchors\].*map_kind must be one of bump, indicator, flat, file"),
            ("[nms]\nmatch_iou = 1.5\n", r"\[nms\].*match_iou must be in \(0, 1\]"),
            ("[eval]\nmatch_iou = 0\n", r"\[eval\].*match_iou must be in \(0, 1\]"),
            ("[sim]\nstep_size = 5%\n", r"\[sim\] step_size: expected a number"),
        ],
        ids=[
            "not-a-number", "nan-noise", "nan-step", "inf-tuple", "inf-finite-default",
            "nms-step-zero", "nms-step-negative", "nms-min-above-max", "nms-threshold-one",
            "nms-threshold-zero", "nms-no-variants", "run-no-variants",
            "gradcheck-tolerance-zero", "gradcheck-step-zero", "gradcheck-kink-negative",
            "gradcheck-no-scenes", "gradcheck-no-retries", "anchors-stride-zero", "anchors-scale-negative",
            "anchors-no-scales", "anchors-ratio-zero", "anchors-map-kind", "nms-match-iou-above-one",
            "eval-match-iou-zero", "percent-sign",
        ],
    )
    def test_bad_value_rejected(self, tmp_path, text, message):
        path = write_config(tmp_path / "run.cfg", text)
        with pytest.raises(ConfigError, match=message):
            load_run_config(path)

    def test_values_are_literal(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", "[run]\nout = a%(b)s\n")
        assert load_run_config(path).out_dir == "a%(b)s"

    def test_attribute_name_is_no_section(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", "[__class__]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"unknown config section \[__class__\]"):
            load_run_config(path)

    def test_seeds_flag_follows_run_seeds(self, tmp_path):
        from_file = load_run_config(write_config(tmp_path / "run.cfg", "[run]\nseeds = 4, 5\n"))
        args = build_parser().parse_args(["simulate", "--seeds", " 4, 5", "--out", str(tmp_path / "out")])
        assert _resolve(RunConfig(), args)[0].seeds == from_file.seeds == (4, 5)

    def test_infinite_default_accepts_inf(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", "[eval]\nmax_height = inf\nmin_height = 5\n")
        cfg = load_run_config(path)
        assert cfg.eval.max_height == float("inf") and cfg.eval.min_height == 5.0

    def test_nms_threshold_grid(self):
        grid = NmsSweepConfig().thresholds()
        assert len(grid) == 11
        assert grid[0] == 0.3 and grid[-1] == 0.8


class TestExitCodes:
    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["simulate", "--config", "/nope.cfg", "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_seeds_exits_one(self, tmp_path, capsys):
        assert main(["simulate", "--seeds", "a,b", "--out", str(tmp_path)]) == 1

    def test_bad_seed_names_flag(self, tmp_path, capsys):
        assert main(["simulate", "--seeds", "1,x", "--out", str(tmp_path)]) == 1
        assert "--seeds" in capsys.readouterr().err

    def test_bad_variant_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", "[run]\nvariants = bogus\n")
        assert main(["simulate", "--config", cfg, "--seeds", "1", "--out", str(tmp_path)]) == 1

    def test_zero_nms_step_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", "[nms]\nthreshold_step = 0\n")
        assert main(["nms-sweep", "--config", cfg, "--seeds", "1", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid values in section [nms]") and err.count("\n") == 1


def fast_sim_section(**over):
    base = {
        "descent_steps": 40,
        "proposals_per_gt": 3,
        "distractor_count": 2,
    }
    base.update(over)
    return "[sim]\n" + "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n"


class TestSimulate:
    def test_rows_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", fast_sim_section())
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--seeds", "1,2", "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--seeds", "1,2", "--out", str(out2)]) == 0
        data1 = (out1 / "simulate.csv").read_bytes()
        data2 = (out2 / "simulate.csv").read_bytes()
        assert data1 == data2
        rows = read_csv(out1 / "simulate.csv")
        assert rows[0] == ["seed", "variant", "drift_rate", "mean_final_iou",
                           "overlap_occupancy", "final_loss"]
        assert len(rows) == 1 + 2 * 4  # header + 2 seeds x 4 variants
        assert {r[1] for r in rows[1:]} == {"baseline", "couloss", "only_att", "only_rep"}

    def test_zero_weight_couloss_matches_baseline(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.cfg",
            fast_sim_section() + "[composite]\nalpha = 0.0\n[run]\nvariants = baseline, couloss\n",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--seeds", "3", "--out", str(out)]) == 0
        rows = read_csv(out / "simulate.csv")[1:]
        base = next(r for r in rows if r[1] == "baseline")
        cou = next(r for r in rows if r[1] == "couloss")
        assert base[2:] == cou[2:]

    def test_divergence_exits_three_with_partial_rows(self, tmp_path, capsys):
        # oversized step diverges on seed 1 but not seed 2: the completed
        # seed's rows must be flushed before the abort
        cfg = write_config(
            tmp_path / "run.cfg",
            fast_sim_section(step_size=0.05) + "[run]\nvariants = couloss\n",
        )
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg, "--seeds", "2,1", "--out", str(out)])
        assert code == 3
        assert "abort" in capsys.readouterr().err
        rows = read_csv(out / "simulate.csv")
        assert len(rows) == 2  # header + the completed seed-2 row
        assert rows[1][0] == "2"

    def test_invalid_boxes_exit_one_without_csv(self, tmp_path, capsys):
        # a vast SmoothL1 weight throws the boxes out of range at the first step
        cfg = write_config(
            tmp_path / "run.cfg",
            fast_sim_section() + "[composite]\nsmoothl1_weight = 1e300\n[run]\nvariants = couloss\n",
        )
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["simulate", "--config", cfg, "--seeds", "2,1", "--out", str(out)])
        assert code == 1
        assert "box" in capsys.readouterr().err
        assert not (out / "simulate.csv").exists()

    def test_default_twenty_seed_suite_within_budget(self, tmp_path):
        import time

        out = tmp_path / "out"
        start = time.time()
        assert main(["simulate", "--out", str(out)]) == 0
        elapsed = time.time() - start
        rows = read_csv(out / "simulate.csv")
        assert len(rows) == 1 + 20 * 4  # default seeds x default variants
        assert elapsed < 300.0


class TestNmsSweep:
    def test_rows_and_svg(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.cfg",
            fast_sim_section() + "[nms]\nthreshold_min = 0.3\nthreshold_max = 0.8\n"
            "threshold_step = 0.05\n",
        )
        out = tmp_path / "out"
        assert main(
            ["nms-sweep", "--config", cfg, "--seeds", "1,2", "--out", str(out), "--svg"]
        ) == 0
        rows = read_csv(out / "nms_sweep.csv")
        assert rows[0] == ["variant", "threshold", "kept", "false_positives", "misses", "miss_rate"]
        assert len(rows) == 1 + 2 * 11  # two variants x eleven thresholds
        summary = read_csv(out / "nms_summary.csv")
        assert summary[0] == ["variant", "min_misses", "max_misses", "spread", "variance"]
        assert len(summary) == 3
        svg = (out / "nms_sweep.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", fast_sim_section())
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["nms-sweep", "--config", cfg, "--seeds", "4", "--out", str(a)]) == 0
        assert main(["nms-sweep", "--config", cfg, "--seeds", "4", "--out", str(b)]) == 0
        assert (a / "nms_sweep.csv").read_bytes() == (b / "nms_sweep.csv").read_bytes()


class TestAnchorDemo:
    def test_flat_map_sets_fallback_flag(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.cfg", fast_sim_section() + "[anchors]\nmap_kind = flat\n"
        )
        out = tmp_path / "out"
        assert main(["anchor-demo", "--config", cfg, "--seeds", "1", "--out", str(out)]) == 0
        rows = read_csv(out / "anchor_stats.csv")
        assert rows[0][4] == "fallback"
        assert rows[1][4] == "true"

    def test_indicator_map_counts(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.cfg",
            fast_sim_section() + "[anchors]\nmap_kind = indicator\nstride = 2.0\n",
        )
        out = tmp_path / "out"
        assert main(["anchor-demo", "--config", cfg, "--seeds", "1", "--out", str(out)]) == 0
        rows = read_csv(out / "anchor_stats.csv")
        retained = int(rows[1][2])
        total = int(rows[1][3])
        assert 0 < retained < total
        assert (out / "probability_map.txt").exists()
        assert (out / "target_map.txt").exists()

    def test_bump_demo_writes_stats(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", fast_sim_section())
        out = tmp_path / "out"
        assert main(["anchor-demo", "--config", cfg, "--seeds", "1,2,3", "--out", str(out)]) == 0
        rows = read_csv(out / "anchor_stats.csv")
        assert len(rows) == 4
        for row in rows[1:]:
            assert float(row[5]) >= 0.0  # selected fraction present

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", fast_sim_section())
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["anchor-demo", "--config", cfg, "--seeds", "2", "--out", str(a)]) == 0
        assert main(["anchor-demo", "--config", cfg, "--seeds", "2", "--out", str(b)]) == 0
        for name in ("anchor_stats.csv", "probability_map.txt", "target_map.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestEval:
    def test_end_to_end(self, tmp_path):
        scenes_dir = tmp_path / "scenes"
        scenes_dir.mkdir()
        sim = SimConfig(distractor_count=0)
        dets = []
        for seed in (1, 2):
            scene = generate_scene(sim, seed)
            sid = f"scene{seed}"
            save_scene(scene, scenes_dir / f"{sid}.txt")
            for g in scene.gt_boxes:
                dets.append(evalkit.Detection(g, 0.9, sid))
        det_path = tmp_path / "dets.csv"
        evalkit.save_detections(dets, det_path)
        cfg = write_config(
            tmp_path / "run.cfg",
            f"[eval]\ndetections = {det_path}\nscenes_dir = {scenes_dir}\n",
        )
        out = tmp_path / "out"
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "eval_summary.txt").read_text()
        assert "log_average_miss_rate" in summary
        # perfect detections: MR^-2 equals the floor value
        assert "0.0001" in summary.splitlines()[0]
        assert (out / "curve.csv").exists()

    def test_missing_inputs_exit_one(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.cfg", "[eval]\ndetections = /nope.csv\nscenes_dir = /nope\n"
        )
        assert main(["eval", "--config", cfg, "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("broken", ["detections", "scene"])
    def test_malformed_number_exits_one_with_location(self, tmp_path, capsys, broken):
        scenes_dir = tmp_path / "scenes"
        scenes_dir.mkdir()
        scene_line = "ped 1 1 abc 20 1 1 10 20" if broken == "scene" else "ped 1 1 10 20 1 1 10 20"
        scene_path = scenes_dir / "s0.txt"
        scene_path.write_text(f"extent 100 100\n{scene_line}\n")
        det_path = tmp_path / "dets.csv"
        coord = "abc" if broken == "detections" else "1"
        det_path.write_text(f"scene_id,x1,y1,x2,y2,score\ns0,{coord},1,10,20,0.9\n")
        cfg = write_config(
            tmp_path / "run.cfg", f"[eval]\ndetections = {det_path}\nscenes_dir = {scenes_dir}\n"
        )
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{det_path if broken == 'detections' else scene_path}:2:" in err
        assert "Traceback" not in err


MALFORMED = {
    "detection-number": (
        load_detections, "scene_id,x1,y1,x2,y2,score\ns0,0,0,10,20,0.5\ns0,abc,0,10,20,0.5\n", 3
    ),
    "detection-nan": (load_detections, "scene_id,x1,y1,x2,y2,score\ns0,nan,0,10,20,0.5\n", 2),
    "detection-score": (load_detections, "scene_id,x1,y1,x2,y2,score\ns0,0,0,10,20,1.5\n", 2),
    "detection-short-row": (load_detections, "scene_id,x1,y1,x2,y2,score\ns0,0,0\n", 2),
    "detection-header": (load_detections, "scene_id,x1\n", 1),
    "curve-number": (load_curve, "threshold,fppi,miss_rate\n0.5,abc,0.1\n", 2),
    "scene-number": (load_scene, "extent 100 100\nped 1 1 abc 20 1 1 10 20\n", 2),
    "scene-nan": (load_scene, "extent 100 100\nped 1 1 nan 20 1 1 10 20\n", 2),
    "scene-degenerate": (load_scene, "extent 100 100\ndistractor 5 5 5 9\n", 2),
    "map-number": (load_probability_map, "2 2 1.0\n0.1 0.2\n0.3 abc\n", 3),
    "map-range": (load_probability_map, "2 1 1.0\n0.1 1.5\n", 2),
    "map-header": (load_probability_map, "2 x 1.0\n", 1),
    "target-row": (load_target_map, "2 2 1.0\nP N\nI\n", 3),
    "target-label": (load_target_map, "2 1 1.0\nP X\n", 2),
    "scene-visible": (load_scene, "extent 10 10\nped 1 1 5 9 0 0 5 9\n", 2),
    "scene-extent": (load_scene, "extent 10 10\nped 1 1 5 9 1 1 5 9\ndistractor 5 5 12 9\n", 3),
}


@pytest.mark.parametrize("loader, text, line", MALFORMED.values(), ids=MALFORMED.keys())
def test_loaders_reject_malformed_input_with_location(tmp_path, loader, text, line):
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(InvalidInputError, match=re.escape(f"{path}:{line}:")):
        loader(path)


def test_unknown_target_label_printed_as_text(tmp_path):
    path = tmp_path / "input.txt"
    path.write_text("2 1 1.0\nP X\n")
    with pytest.raises(InvalidInputError, match=re.escape(f"{path}:2: unknown target label 'X'")):
        load_target_map(path)


class TestGradcheckCommand:
    def test_small_run_passes(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.cfg",
            fast_sim_section() + "[gradcheck]\nnum_scenes = 25\n",
        )
        out = tmp_path / "out"
        assert main(["gradcheck", "--config", cfg, "--out", str(out)]) == 0
        report = (out / "gradcheck_report.txt").read_text()
        assert "result PASS" in report
        assert "term couloss " in report

    def test_kink_fixture_writes_warnings(self, tmp_path):
        # zero jitter puts every proposal exactly on its ground truth: all kinks
        cfg = write_config(
            tmp_path / "run.cfg",
            fast_sim_section(proposals_per_gt=2) + "proposal_jitter = 0.0\n"
            "[gradcheck]\nnum_scenes = 3\nmax_perturb_retries = 2\n",
        )
        out = tmp_path / "out"
        code = main(["gradcheck", "--config", cfg, "--out", str(out)])
        report = (out / "gradcheck_report.txt").read_text()
        assert "kink_warning" in report
        assert code == 2  # nothing checkable -> acceptance failure


def bench_workloads(monkeypatch):
    """``perfbench/workloads.py``, imported without writing a bytecode cache beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads", REFERENCE.parent / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkReferences:
    """The commands write the bytes of the benchmark's chunk-0 reference outputs."""

    @pytest.mark.parametrize(
        "workload, seeds, config",
        [
            ("simulate-default", range(100000, 100003), None),
            ("crowd-dense", range(100000, 100006), CROWD_DENSE),
        ],
        ids=["simulate-default", "crowd-dense"],
    )
    def test_simulate_csv_matches_reference(self, tmp_path, monkeypatch, workload, seeds, config):
        argv = ["simulate", "--seeds", ",".join(map(str, seeds)), "--out", str(tmp_path / "out")]
        if config:
            argv += ["--config", write_config(tmp_path / "run.cfg", config)]
        assert main(argv) == 0
        expected = (REFERENCE / workload / "chunk0" / "simulate.csv").read_bytes()
        assert (tmp_path / "out" / "simulate.csv").read_bytes() == expected

    @pytest.mark.parametrize("chunk", range(4), ids=lambda c: f"chunk{c}")
    def test_gradcheck_report_matches_reference(self, tmp_path, monkeypatch, chunk):
        cfg = write_config(tmp_path / "run.cfg", "[gradcheck]\nnum_scenes = 12\n")
        out = tmp_path / "out"
        assert main(["gradcheck", "--config", cfg, "--seeds", str(100000 + 12 * chunk), "--out", str(out)]) == 0
        expected = (REFERENCE / "gradcheck" / f"chunk{chunk}" / "gradcheck_report.txt").read_bytes()
        assert (out / "gradcheck_report.txt").read_bytes() == expected

    def test_eval_anchors_outputs_match_reference(self, tmp_path, monkeypatch):
        workload = bench_workloads(monkeypatch).EvalAnchors()
        workload.write_inputs(0, 0, tmp_path)
        monkeypatch.chdir(tmp_path)
        for argv in workload.commands(0, 0):
            assert main(argv) == 0
        for name in ("curve.csv", "eval_summary.txt", "anchor_stats.csv"):
            expected = (REFERENCE / "eval-anchors" / "chunk0" / name).read_bytes()
            assert (tmp_path / "out" / name).read_bytes() == expected, name
