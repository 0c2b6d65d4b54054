"""Informational size sweep and wall-clock gate headroom (not part of the gated runs).

    python3 perfbench/asymptotics.py

Prints, and writes to ``.perfbench_out/asymptotics.json``:

* CouLoss value + gradient time per (gt, proposal) pair at 2/4/6/8
  pedestrians with 8 proposals each, frozen structure;
* ``fppi_curve`` time per detection from 10^2 to 3*10^3 continuous-score
  detections (quadratic at the time this was written);
* the headroom under the three wall-clock gates in the tests: acceptance
  criterion 1 (< 60 s), criterion 4 (< 300 s) and the default twenty-seed
  ``simulate`` in ``tests/test_cli.py`` (< 300 s), from pytest's own call
  durations.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from crowdloss import evalkit  # noqa: E402
from crowdloss.couloss import CouLossConfig, TripletStructure, assemble_triplets, couloss, couloss_gradient  # noqa: E402
from crowdloss.errors import InfeasibleConfigError  # noqa: E402
from crowdloss.simulator import SimConfig, generate_scene, load_scene, spawn_proposals  # noqa: E402
from tracer import pair_count  # noqa: E402
from workloads import WORKLOADS, write_eval_files  # noqa: E402

GATES = (
    ("criterion 1", 60.0,
     "tests/test_acceptance.py::TestCriterion1GradientOracle::test_analytic_matches_finite_differences_on_1000_scenes"),
    ("criterion 4", 300.0,
     "tests/test_acceptance.py::TestCriterion4CrowdDriftTrend::test_drift_and_overlap_occupancy_lower_with_couloss"),
    ("default simulate", 300.0,
     "tests/test_cli.py::TestSimulate::test_default_twenty_seed_suite_within_budget"),
)


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def couloss_sweep() -> list[dict]:
    rows = []
    cfg = CouLossConfig()
    for peds in (2, 4, 6, 8):
        sim = SimConfig(pedestrian_count=peds, proposals_per_gt=8)
        seed = 0
        while True:
            try:
                scene = generate_scene(sim, seed)
                break
            except InfeasibleConfigError:
                seed += 1
        gts = scene.gt_boxes
        proposals = spawn_proposals(scene, sim, seed + 1)
        triplets, assignments = assemble_triplets(gts, proposals, cfg)
        structure = TripletStructure.build(triplets, assignments)
        pairs = pair_count(triplets)

        def step():
            couloss(gts, proposals, cfg, structure=structure)
            couloss_gradient(gts, proposals, cfg, structure=structure)

        t = _median_time(step, 15)
        rows.append({"pedestrians": peds, "proposals": len(proposals), "scene_seed": seed, "pairs": pairs,
                     "ms_per_step": t * 1e3, "ms_per_pair": t * 1e3 / pairs if pairs else None})
    return rows


def fppi_sweep() -> list[dict]:
    wl = WORKLOADS["eval-anchors"]
    rows = []
    for n in (100, 300, 1000, 3000):
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
            root = Path(tmp)
            write_eval_files(root, *wl.generate(0, 0, scene_count=max(4, n // 25), detection_count=n))
            dets = evalkit.load_detections(root / "detections.csv")
            gts = {p.stem: [ped.full for ped in load_scene(p).pedestrians]
                   for p in sorted((root / "scenes").glob("*.txt"))}
        t0 = time.perf_counter()
        curve = evalkit.fppi_curve(dets, gts, 0.5)
        t = time.perf_counter() - t0
        rows.append({"detections": n, "scenes": len(gts), "thresholds": len(curve.thresholds),
                     "s": t, "ms_per_detection": t * 1e3 / n})
    return rows


def gate_headroom() -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CROWDLOSS_THREADS", None)
    rows = []
    for name, budget, node in GATES:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0", node],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        wall = time.perf_counter() - t0
        match = re.search(r"([\d.]+)s call\s", proc.stdout)
        used = float(match.group(1)) if match else wall
        rows.append({"gate": name, "budget_s": budget, "used_s": used, "headroom_s": budget - used,
                     "headroom_frac": (budget - used) / budget, "passed": proc.returncode == 0})
    return rows


def main() -> int:
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    result = {"couloss": couloss_sweep()}
    for r in result["couloss"]:
        print(f"couloss {r['pedestrians']} peds x {r['proposals']} props: {r['pairs']} pairs, "
              f"{r['ms_per_step']:.3f} ms value+gradient, {r['ms_per_pair']:.5f} ms/pair", flush=True)
    result["fppi_curve"] = fppi_sweep()
    for r in result["fppi_curve"]:
        print(f"fppi_curve {r['detections']} detections / {r['scenes']} scenes: {r['s']:.3f} s, "
              f"{r['ms_per_detection']:.4f} ms/detection", flush=True)
    result["gates"] = gate_headroom()
    for r in result["gates"]:
        print(f"gate {r['gate']}: {r['used_s']:.1f} s of {r['budget_s']:.0f} s, "
              f"headroom {r['headroom_frac']:.0%} ({'pass' if r['passed'] else 'FAIL'})", flush=True)
    (ROOT / ".perfbench_out" / "asymptotics.json").write_text(json.dumps(result, indent=1))
    return 0 if all(r["passed"] for r in result["gates"]) else 1


if __name__ == "__main__":
    sys.exit(main())
