import argparse
import csv
import hashlib
import importlib.util
import os
import re
import subprocess
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
from crowdloss.simulator import DEFAULT_NMS_THRESHOLDS, SimConfig, generate_scene, load_scene, save_scene

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference"
# the rule of a [run] or [nms] variant list, as a regex
VARIANT_RULE = r"non-empty, each one of baseline, couloss, only_att, only_rep at most once"
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
        assert cfg.run.seeds == tuple(range(20))

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
        assert cfg.run.seeds == (4, 5)
        assert cfg.run.out == "results"

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
            ("[nms]\nthresholds =\n", r"\[nms\].*thresholds must be non-empty, each in \(0, 1\), got \(\)$"),
            ("[nms]\nthresholds = 0, 0.5\n", r"\[nms\].*thresholds must be non-empty, each in \(0, 1\), got \(0.0, 0.5\)$"),
            ("[nms]\nthresholds = 0.5, 1.0\n", r"\[nms\].*thresholds must be non-empty, each in \(0, 1\), got \(0.5, 1.0\)$"),
            ("[nms]\nthresholds = nan\n", r"^\[nms\] thresholds: expected a finite number, got 'nan'$"),
            ("[nms]\nthresholds = 0.5, low\n", r"^\[nms\] thresholds: expected a number, got 'low'$"),
            ("[nms]\nvariants =\n", rf"^invalid values in section \[nms\]: variants must be {VARIANT_RULE}, got \(\)$"),
            ("[run]\nvariants =\n", rf"^invalid values in section \[run\]: variants must be {VARIANT_RULE}, got \(\)$"),
            # each of these was accepted: a repeated variant wrote one row per seed, a blank element was dropped
            (
                "[run]\nvariants = baseline, baseline\n",
                rf"^invalid values in section \[run\]: variants must be {VARIANT_RULE}, got \('baseline', 'baseline'\)$",
            ),
            ("[nms]\nvariants = bogus\n", rf"^invalid values in section \[nms\]: variants must be {VARIANT_RULE}, got \('bogus',\)$"),
            ("[run]\nseeds = 1,,2\n", r"^\[run\] seeds: expected an integer, got ''$"),
            ("[nms]\nthresholds = 0.5,,0.6,\n", r"^\[nms\] thresholds: expected a number, got ''$"),
            (
                "[anchors]\nmap_file = m.txt\n",
                r"^invalid values in section \[anchors\]: map_file must be set exactly when map_kind is file, got 'm.txt'$",
            ),
            ("[gradcheck]\ntolerance = 0\n", r"\[gradcheck\].*tolerance must be finite and > 0"),
            ("[gradcheck]\nfd_step_fraction = 0\n", r"\[gradcheck\].*fd_step_fraction must be finite and > 0"),
            ("[gradcheck]\nkink_tolerance = -0.001\n", r"\[gradcheck\].*kink_tolerance must be finite and >= 0"),
            # a negative tolerance silently switched every kink warning off
            ("[couloss]\nkink_tolerance = -1\n", r"\[couloss\].*kink_tolerance must be finite and >= 0, got -1.0"),
            # focal_alpha = 2 weighed negatives by 1 - 2 = -1 in the location-branch loss
            ("[composite]\nfocal_alpha = 2\n", r"\[composite\].*focal_alpha must be in \[0, 1\], got 2.0"),
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
            ("[anchors]\nflat_value = 2\n", r"\[anchors\].*flat_value must be in \[0, 1\], got 2.0"),
            ("[anchors]\npeak = 5\n", r"\[anchors\].*peak must be in \[0, 1\], got 5.0"),
            ("[anchors]\nbackground = -0.1\n", r"\[anchors\].*background must be in \[0, 1\], got -0.1"),
            ("[anchors]\nnegative_iou_threshold = 5\n", r"\[anchors\].*negative_iou_threshold must be in \(0, 1\]"),
            ("[anchors]\nnegative_iou_threshold = 0\n", r"\[anchors\].*negative_iou_threshold must be in \(0, 1\]"),
            ("[eval]\ntarget_miss_rate = -3\n", r"\[eval\].*target_miss_rate must be in \[0, 1\], got -3.0"),
            ("[eval]\nmin_height = -1\n", r"\[eval\].*min_height must be in \[0, max_height\], got -1.0"),
            ("[eval]\nmin_height = 50\nmax_height = 40\n", r"\[eval\].*min_height must be in \[0, max_height\]"),
            ("[eval]\nmin_visibility = -0.5\n", r"\[eval\].*min_visibility must be in \[0, max_visibility\]"),
            ("[eval]\nmin_visibility = 2\n", r"\[eval\].*min_visibility must be in \[0, max_visibility\], got 2.0"),
            ("[eval]\nmax_visibility = 1.5\n", r"\[eval\].*max_visibility must be <= 1, got 1.5"),
            # each of these ended in a traceback, a later error without a key, or was accepted
            ("[sim]\nextent = 100\n", r"\[sim\].*extent must be two values, each finite and > 0, got \(100.0,\)"),
            ("[sim]\nextent = 100, 0\n", r"\[sim\].*extent must be two values, each finite and > 0"),
            ("[sim]\nheight_range = 0.3\n", r"\[sim\].*height_range must be two values"),
            ("[sim]\ndistractor_count = -2\n", r"\[sim\].*distractor_count must be >= 0, got -2"),
            ("[run]\nseeds = -3\n", r"^invalid values in section \[run\]: seeds must be non-empty, each >= 0, got \(-3,\)$"),
            # the keys of the retired min/max/step grid
            ("[nms]\nthreshold_step = 0.05\n", r"^unknown key 'threshold_step' in section \[nms\]$"),
        ],
        ids=[
            "not-a-number", "nan-noise", "nan-step", "inf-tuple", "inf-finite-default",
            "nms-thresholds-empty", "nms-threshold-zero", "nms-threshold-one", "nms-threshold-nan",
            "nms-threshold-word", "nms-no-variants", "run-no-variants", "run-variant-repeated", "nms-variant-unknown",
            "run-seeds-blank-element", "nms-thresholds-blank-element", "anchors-map-file-without-file-kind",
            "gradcheck-tolerance-zero", "gradcheck-step-zero", "gradcheck-kink-negative",
            "couloss-kink-negative", "composite-focal-alpha-above-one",
            "gradcheck-no-scenes", "gradcheck-no-retries", "anchors-stride-zero", "anchors-scale-negative",
            "anchors-no-scales", "anchors-ratio-zero", "anchors-map-kind", "nms-match-iou-above-one",
            "eval-match-iou-zero", "percent-sign", "anchors-flat-value", "anchors-peak", "anchors-background",
            "anchors-negative-iou-above-one", "anchors-negative-iou-zero", "eval-target-miss-rate",
            "eval-min-height-negative", "eval-min-height-above-max", "eval-min-visibility-negative",
            "eval-min-visibility-above-max", "eval-max-visibility-above-one", "sim-extent-one-value",
            "sim-extent-zero", "sim-height-range-one-value", "sim-distractors-negative", "run-seeds-negative",
            "nms-grid-key-unknown",
        ],
    )
    def test_bad_value_rejected(self, tmp_path, text, message):
        path = write_config(tmp_path / "run.cfg", text)
        with pytest.raises(ConfigError, match=message):
            load_run_config(path)

    @pytest.mark.parametrize(
        "text", ["[DEFAULT]\nwalrus = 1\n", "[DEFAULT]\nwalrus = 1\n[sim]\ndescent_steps = 5\n"], ids=["alone", "beside"]
    )
    def test_default_section_key_rejected(self, tmp_path, text):
        path = write_config(tmp_path / "run.cfg", text)
        with pytest.raises(ConfigError, match=r"^unknown key 'walrus' in section \[DEFAULT\]$"):
            load_run_config(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("walrus = 1\n", 1),
            ("[sim\ndescent_steps = 2\n", 1),
            ("[sim]\n = 3\n", 2),
            ("[sim]\ndescent_steps = 2\n[sim]\n", 3),
            ("[sim]\ndescent_steps = 2\ndescent_steps = 3\n", 3),
        ],
        ids=["no-section", "unclosed-section", "no-key", "repeated-section", "repeated-key"],
    )
    def test_unparsable_file_exits_one_with_one_line(self, tmp_path, capsys, text, line):
        cfg = write_config(tmp_path / "run.cfg", text)
        assert main(["simulate", "--config", cfg, "--seeds", "0", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:{line}: ") and err.count("\n") == 1

    def test_readme_example_loads(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        cfg = load_run_config(write_config(tmp_path / "run.cfg", example))
        assert cfg.run.seeds == (0, 1, 2, 3)
        assert cfg.anchors.scales == (30.0,)
        assert cfg.nms.thresholds == DEFAULT_NMS_THRESHOLDS

    def test_readme_library_example_runs(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        (example,) = re.findall(r"## Library use\n\n```python\n(.*?)```", readme, re.S)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-c", example], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr

    def test_values_are_literal(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", "[run]\nout = a%(b)s\n")
        assert load_run_config(path).run.out == "a%(b)s"

    def test_attribute_name_is_no_section(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", "[__class__]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"unknown config section \[__class__\]"):
            load_run_config(path)

    def test_seeds_flag_follows_run_seeds(self, tmp_path):
        from_file = load_run_config(write_config(tmp_path / "run.cfg", "[run]\nseeds = 4, 5\n"))
        args = build_parser().parse_args(["simulate", "--seeds", " 4, 5", "--out", str(tmp_path / "out")])
        assert _resolve(RunConfig(), args)[0].run.seeds == from_file.run.seeds == (4, 5)

    def test_infinite_default_accepts_inf(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", "[eval]\nmax_height = inf\nmin_height = 5\n")
        cfg = load_run_config(path)
        assert cfg.eval.max_height == float("inf") and cfg.eval.min_height == 5.0

    def test_nms_threshold_grid(self):
        assert NmsSweepConfig().thresholds == DEFAULT_NMS_THRESHOLDS


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

    def test_empty_seed_list_exits_one(self, tmp_path, capsys):
        assert main(["simulate", "--seeds", ",", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: --seeds: expected an integer, got ''\n"

    def test_empty_seeds_flag_exits_one(self, tmp_path, capsys):
        # an empty flag ran the 20 default seeds
        assert main(["simulate", "--seeds", "", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: --seeds must be non-empty, each >= 0, got ()\n"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--out", ""], "error: --out must be non-empty, got ''\n"),
            (["--config", "run.cfg"], "error: invalid values in section [run]: out must be non-empty, got ''\n"),
        ],
        ids=["flag", "config"],
    )
    def test_empty_out_exits_one_and_writes_nothing(self, tmp_path, capsys, monkeypatch, argv, error):
        # both wrote simulate.csv into the working directory and exited 0
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path / "run.cfg", "[sim]\ndescent_steps = 2\n[run]\nout =\n")
        assert main(["simulate", "--seeds", "0", *argv]) == 1
        assert capsys.readouterr().err == error
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("flag", [["--seeds=-1"], ["--seeds", "2,-1"]], ids=["equals", "list"])
    def test_negative_seed_names_flag(self, tmp_path, capsys, flag):
        assert main(["simulate", *flag, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --seeds must be non-empty, each >= 0, got (") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, section, key",
        [
            ("[run]\nvariants = baseline, baseline\n", "run", "variants"),
            ("[nms]\nvariants = bogus\n", "nms", "variants"),
            ("[anchors]\nmap_file = m.txt\n", "anchors", "map_file"),
            ("[run]\nseeds = 1,,2\n", "run", "seeds"),
        ],
        ids=["run-variant-repeated", "nms-variant-unknown", "map-file-without-file-kind", "run-seeds-blank-element"],
    )
    def test_bad_run_input_exits_one_naming_key(self, tmp_path, capsys, text, section, key):
        # simulate accepted each of these: it ran, or ignored the value, or dropped part of it
        cfg = write_config(tmp_path / "run.cfg", text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"[{section}]" in err and key in err and err.count("\n") == 1
        assert "Traceback" not in err and not (tmp_path / "out" / "simulate.csv").exists()

    @pytest.mark.parametrize("text", ["extent = 100", "extent = 100, 0", "height_range = 0.3", "distractor_count = -2"])
    def test_bad_sim_value_exits_one_naming_key(self, tmp_path, capsys, text):
        # simulate, gradcheck and anchor-demo ended in a traceback on the first
        cfg = write_config(tmp_path / "run.cfg", f"[sim]\n{text}\n")
        assert main(["simulate", "--config", cfg, "--seeds", "0", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        key = text.split(" = ")[0]
        assert err.startswith(f"error: invalid values in section [sim]: {key} must be ") and err.count("\n") == 1

    def test_bad_variant_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", "[run]\nvariants = bogus\n")
        assert main(["simulate", "--config", cfg, "--seeds", "1", "--out", str(tmp_path)]) == 1

    def test_zero_nms_step_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", "[nms]\nthresholds =\n")
        assert main(["nms-sweep", "--config", cfg, "--seeds", "1", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid values in section [nms]: thresholds ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "gradcheck", "nms-sweep", "anchor-demo"])
    def test_packed_crowd_exits_one_with_one_line(self, tmp_path, capsys, command):
        cfg = write_config(
            tmp_path / "run.cfg",
            "[sim]\npedestrian_count = 8\ncrowd_iou_min = 0.7\ncrowd_iou_max = 0.71\nheight_range = 0.9, 1.0\n",
        )
        assert main([command, "--config", cfg, "--seeds", "0", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: could not place 8 pedestrians with IoU band [0.7, 0.71]") and err.count("\n") == 1


def fast_sim_section(**over):
    base = {
        "descent_steps": 40,
        "proposals_per_gt": 3,
        "distractor_count": 2,
    }
    base.update(over)
    return "[sim]\n" + "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n"


def test_every_command_takes_the_same_three_options():
    (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands) == ["gradcheck", "simulate", "nms-sweep", "anchor-demo", "eval"]
    for parser in commands.values():
        options = {o for a in parser._actions for o in a.option_strings}
        assert options == {"-h", "--help", "--config", "--out", "--seeds"}


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
        code = main(["simulate", "--config", cfg, "--seeds", "2,1", "--out", str(out)])
        assert code == 1
        assert "box" in capsys.readouterr().err
        assert not (out / "simulate.csv").exists()

    def test_huge_proposal_jitter_exits_zero(self, tmp_path):
        # exp(N(0, 1000)) underflowed a proposal's height to 0: "degenerate box"
        cfg = write_config(tmp_path / "run.cfg", "[sim]\nproposal_jitter = 1000\n")
        assert main(["simulate", "--config", cfg, "--seeds", "0", "--out", str(tmp_path / "out")]) == 0

    def test_default_twenty_seed_suite_within_budget(self, tmp_path):
        import time

        out = tmp_path / "out"
        start = time.time()
        assert main(["simulate", "--out", str(out)]) == 0
        elapsed = time.time() - start
        rows = read_csv(out / "simulate.csv")
        assert len(rows) == 1 + 20 * 4  # default seeds x default variants
        assert elapsed < 300.0


@pytest.mark.parametrize(
    "text, code, needles",
    [
        ("descent_steps = 2", 0, ()),
        ("extent = 100", 1, ("[sim]", "extent")),
        # the noise overflows the first step: one error line, no numpy warnings before it
        ("descent_steps = 5\ngradient_noise = 1e308", 1, ("non-finite box",)),
    ],
    ids=["simulate", "bad-extent", "overflow"],
)
def test_module_entry_point(tmp_path, text, code, needles):
    # python -m crowdloss in a fresh interpreter: its exit code, and at most one error line
    cfg, out = write_config(tmp_path / "run.cfg", f"[sim]\n{text}\n"), tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["-m", "crowdloss", "simulate", "--config", cfg, "--seeds", "0", "--out", str(out)]
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    assert done.returncode == code, done.stderr
    if code:
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
        assert all(n in done.stderr for n in needles)
        assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr
    else:
        assert (out / "simulate.csv").is_file() and done.stderr == ""


class TestNmsSweep:
    def test_rows_and_svg(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.cfg",
            fast_sim_section(warn_kinks="true") + "[nms]\nthresholds = 0.4, 0.6, 0.5\n",
        )
        out = tmp_path / "out"
        assert main(["nms-sweep", "--config", cfg, "--seeds", "1,2", "--out", str(out)]) == 0
        rows = read_csv(out / "nms_sweep.csv")
        assert rows[0] == ["variant", "threshold", "kept", "false_positives", "misses", "miss_rate"]
        assert len(rows) == 1 + 2 * 3  # two variants x three thresholds
        assert [r[1] for r in rows[1:]] == ["0.4", "0.6", "0.5"] * 2  # in the order given
        summary = read_csv(out / "nms_summary.csv")
        assert summary[0] == ["variant", "min_misses", "max_misses", "spread", "variance"]
        assert len(summary) == 3
        svg = (out / "nms_sweep.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_svg_flag_retired(self, tmp_path, capsys):
        # the plot is always written, so --svg is an unknown option like any other
        assert main(["nms-sweep", "--svg", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --svg\n"
        assert not (tmp_path / "out").exists()

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", fast_sim_section())
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["nms-sweep", "--config", cfg, "--seeds", "4", "--out", str(a)]) == 0
        assert main(["nms-sweep", "--config", cfg, "--seeds", "4", "--out", str(b)]) == 0
        assert (a / "nms_sweep.csv").read_bytes() == (b / "nms_sweep.csv").read_bytes()

    def test_divergence_exits_three(self, tmp_path, capsys):
        # an oversized step makes seed 0's descent diverge at step 1
        cfg = write_config(tmp_path / "run.cfg", "[sim]\nstep_size = 50\ndescent_steps = 50\n")
        assert main(["nms-sweep", "--config", cfg, "--seeds", "0", "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical abort:") and "at step 1" in err
        assert not any((tmp_path / "out").iterdir())  # no partial CSV, no plot


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
        with pytest.warns(UserWarning, match="clamped"):
            assert main(["anchor-demo", "--config", cfg, "--seeds", "1", "--out", str(out)]) == 0
        rows = read_csv(out / "anchor_stats.csv")
        retained = int(rows[1][2])
        total = int(rows[1][3])
        assert 0 < retained < total
        assert (out / "probability_map.txt").exists()
        assert (out / "target_map.txt").exists()

    def test_bump_demo_writes_stats(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", fast_sim_section() + "[anchors]\nstride = 4\n")
        out = tmp_path / "out"
        assert main(["anchor-demo", "--config", cfg, "--seeds", "1,2,3", "--out", str(out)]) == 0
        rows = read_csv(out / "anchor_stats.csv")
        assert len(rows) == 4
        for row in rows[1:]:
            assert float(row[5]) >= 0.0  # selected fraction present
        assert all((out / name).stat().st_size for name in ("probability_map.txt", "target_map.txt"))

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", fast_sim_section())
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["anchor-demo", "--config", cfg, "--seeds", "2", "--out", str(a)]) == 0
        assert main(["anchor-demo", "--config", cfg, "--seeds", "2", "--out", str(b)]) == 0
        for name in ("anchor_stats.csv", "probability_map.txt", "target_map.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_file_map_requires_map_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", "[anchors]\nmap_kind = file\n")
        assert main(["anchor-demo", "--config", cfg, "--seeds", "0", "--out", str(tmp_path / "out")]) == 1
        assert "[anchors]: map_file must be set exactly when map_kind is file, got ''" in capsys.readouterr().err

    def test_scene_file_sets_the_grid(self, tmp_path):
        # a saved 60 x 40 scene at stride 4 is every seed's scene: 15 x 10 cells, not [sim] extent's
        scene_path, out = tmp_path / "scene.txt", tmp_path / "out"
        save_scene(generate_scene(SimConfig(extent=(60.0, 40.0)), 5), scene_path)
        cfg = write_config(tmp_path / "run.cfg", f"[anchors]\nstride = 4\nscene_file = {scene_path}\n")
        assert main(["anchor-demo", "--config", cfg, "--seeds", "1,2", "--out", str(out)]) == 0
        rows = read_csv(out / "anchor_stats.csv")
        assert [row[3] for row in rows[1:]] == ["150", "150"]

    def test_missing_scene_file_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", f"[anchors]\nscene_file = {tmp_path / 'missing.txt'}\n")
        assert main(["anchor-demo", "--config", cfg, "--seeds", "0", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "missing.txt" in err

    def test_file_map_reproduces_saved_map(self, tmp_path):
        # the probability map a run saves, read back as map_kind = file, gives the same stats
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["anchor-demo", "--seeds", "0", "--out", str(first)]) == 0
        cfg = write_config(
            tmp_path / "run.cfg", f"[anchors]\nmap_kind = file\nmap_file = {first / 'probability_map.txt'}\n"
        )
        assert main(["anchor-demo", "--config", cfg, "--seeds", "0", "--out", str(second)]) == 0
        assert (second / "anchor_stats.csv").read_bytes() == (first / "anchor_stats.csv").read_bytes()


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

    @pytest.mark.parametrize("scenes", ["", "nope"], ids=["no-scenes-dir", "missing-scenes-dir"])
    def test_scenes_dir_problem_exits_one(self, tmp_path, capsys, scenes):
        det_path = tmp_path / "dets.csv"
        det_path.write_text("scene_id,x1,y1,x2,y2,score\n")
        scenes_dir = str(tmp_path / scenes) if scenes else ""
        cfg = write_config(tmp_path / "run.cfg", f"[eval]\ndetections = {det_path}\nscenes_dir = {scenes_dir}\n")
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        message = f"scenes directory not found: {scenes_dir}" if scenes else (
            "[eval] requires both 'detections' and 'scenes_dir'"
        )
        assert capsys.readouterr().err == f"error: {message}\n"

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
    "scene-extent-nan": (load_scene, "extent nan 100\n", 1),
    "map-number": (load_probability_map, "2 2 1.0\n0.1 0.2\n0.3 abc\n", 3),
    "map-range": (load_probability_map, "2 1 1.0\n0.1 1.5\n", 2),
    "map-header": (load_probability_map, "2 x 1.0\n", 1),
    "target-row": (load_target_map, "2 2 1.0\nP N\nI\n", 3),
    "target-label": (load_target_map, "2 1 1.0\nP X\n", 2),
    "map-zero-size": (load_probability_map, "0 0 1.0\n", 1),
    "target-zero-size": (load_target_map, "0 0 1.0\n", 1),
    "map-negative-width": (load_probability_map, "-1 2 1.0\n", 1),
    "target-negative-width": (load_target_map, "-1 2 1.0\n", 1),
    "map-zero-stride": (load_probability_map, "1 1 0\n0.5\n", 1),
    "target-zero-stride": (load_target_map, "1 1 0\nP\n", 1),
    "map-nan-stride": (load_probability_map, "1 1 nan\n0.5\n", 1),
    "target-inf-stride": (load_target_map, "1 1 inf\nP\n", 1),
    "map-extra-row": (load_probability_map, "2 1 1.0\n0.1 0.2\n0.3 0.4\n", 3),
    "target-extra-row": (load_target_map, "2 1 1.0\nP N\n\nI I\n", 4),
    "scene-visible": (load_scene, "extent 10 10\nped 1 1 5 9 0 0 5 9\n", 2),
    "scene-extent": (load_scene, "extent 10 10\nped 1 1 5 9 1 1 5 9\ndistractor 5 5 12 9\n", 3),
    # a whole-scene check that fails is traced back to the first bad box's line
    "scene-late-box": (
        load_scene,
        "extent 100 100\nped 1 1 5 9 1 1 5 9\nped 2 2 6 9 2 2 6 9\ndistractor 10 10 20 30\n"
        "distractor 90 90 120 95\n",
        5,
    ),
    "scene-two-bad-lines": (
        load_scene, "extent 10 10\nped 1 1 5 9 1 1 5 9\ndistractor 5 5 12 9\nped 1 1 5 11 1 1 5 9\n", 3
    ),
    "scene-extent-after-box": (load_scene, "ped 1 1 5 20 1 1 5 9\nextent 10 10\n", 1),
    # a second header is blamed, not the valid box before it that it would put outside the extent
    "scene-repeated-extent": (load_scene, "extent 100 100\nped 10 10 30 60 10 10 30 40\nextent 50 50\n", 3),
    "scene-visible-then-extent": (load_scene, "extent 10 10\nped 1 1 5 9 0 0 5 9\ndistractor 5 5 12 9\n", 2),
    # an annotation is checked while its line is read, the extent only after the whole file
    "scene-extent-then-visible": (load_scene, "extent 10 10\ndistractor 5 5 12 9\nped 1 1 5 9 0 0 5 9\n", 3),
    # a byte that is not UTF-8 is named at its line, counted as universal newlines count lines
    "scene-not-utf8": (load_scene, b"extent 100 100\r\nped 1 1 5 9 1 1 5 9\rdistractor \xff\n", 3),
    "map-not-utf8": (load_probability_map, b"2 2 1.0\n0.1 0.2\n0.3 \xff\n", 3),
    "target-not-utf8": (load_target_map, b"2 1 1.0\nP \xff\n", 2),
    "detection-not-utf8": (
        load_detections, b"scene_id,x1,y1,x2,y2,score\ns0,0,0,10,20,0.5\ns0,\xff,0,10,20,0.5\n", 3
    ),
    "curve-not-utf8": (load_curve, b"threshold,fppi,miss_rate\n0.5,\xff,0.1\n", 2),
    "config-not-utf8": (load_run_config, b"[sim]\ndescent_steps = \xff\xfe\n", 2),
}


@pytest.mark.parametrize("loader, text, line", MALFORMED.values(), ids=MALFORMED.keys())
def test_loaders_reject_malformed_input_with_location(tmp_path, loader, text, line):
    path = tmp_path / "input.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(InvalidInputError, match=re.escape(f"{path}:{line}:")):
        loader(path)


@pytest.mark.parametrize("broken", ["config", "scene", "detections", "map"])
def test_non_utf8_input_exits_one_with_location(tmp_path, capsys, broken):
    # each of these ended in a UnicodeDecodeError traceback
    scene, dets, pmap, cfg = tmp_path / "s" / "s0.txt", tmp_path / "d.csv", tmp_path / "m.txt", tmp_path / "run.cfg"
    scene.parent.mkdir()
    scene.write_text("extent 100 100\nped 1 1 10 20 1 1 10 20\n")
    dets.write_text("scene_id,x1,y1,x2,y2,score\ns0,1,1,10,20,0.9\n")
    pmap.write_text("1 2 1.0\n0.5\n0.5\n")
    command, text = {
        "config": ("simulate", "[sim]\ndescent_steps = 2\n"),
        "map": ("anchor-demo", f"[anchors]\nmap_kind = file\nmap_file = {pmap}\n"),
    }.get(broken, ("eval", f"[eval]\ndetections = {dets}\nscenes_dir = {scene.parent}\n"))
    cfg.write_text(text)
    path = {"config": cfg, "scene": scene, "detections": dets, "map": pmap}[broken]
    head, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(head + b"\n\xff" + rest)
    assert main([command, "--config", str(cfg), "--seeds", "0", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: not UTF-8 text") and err.count("\n") == 1


def test_unknown_target_label_printed_as_text(tmp_path):
    path = tmp_path / "input.txt"
    path.write_text("2 1 1.0\nP X\n")
    with pytest.raises(InvalidInputError, match=re.escape(f"{path}:2: unknown target label 'X'")):
        load_target_map(path)


class TestGradcheckCommand:
    def test_small_run_passes(self, tmp_path):
        # 40 scenes: a full block of 32 and a partial one
        cfg = write_config(
            tmp_path / "run.cfg",
            fast_sim_section() + "[gradcheck]\nnum_scenes = 40\n",
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


# SHA-256 of the grids the eval-anchors chunk-0 anchor-demo run writes
EVAL_ANCHORS_GRID_SHA256 = {
    "probability_map.txt": "57d5e74a8f2ba5a35cc89f86fba8f6a992bef0c3c5304dca753737e9842f4d9d",
    "target_map.txt": "8e9bdbc4f346ff8cb79ccffee1495fb84aff4793dbe18baf7f1e00fb94115546",
}


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
        # the benchmark keeps no grids, so these pin the cell-center rule and the in-box test
        for name, digest in EVAL_ANCHORS_GRID_SHA256.items():
            assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name
