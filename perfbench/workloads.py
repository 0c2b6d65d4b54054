"""The four benchmark workloads: inputs derived from one seed, and output checks.

Every input the program receives (config files, CLI seed lists, scene and
detection files) is a pure function of ``(workload seed, chunk)``. A workload
splits its inputs into ``chunks`` disjoint sets so that one run covers many
scenes; a run makes whole passes over all of them while its time lasts, so
every run of a seed measures the same inputs whatever the host's speed.

Output checks count *records*: one simulate row, one gradcheck report line,
one curve row, one eval-summary key, one anchor-stats row. On the default
seed every record is compared with the pinned reference in ``reference/``:
counts and ratios of counts exactly, reals to ``REL_TOL``. On any other seed
the records are checked against invariants: row counts, finite values in
range, a monotone FPPI curve, and gradcheck PASS.
"""

from __future__ import annotations

import csv
import io
import math
import os
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SRC = Path(__file__).resolve().parent.parent / "src"
# CLI seeds of workload seed s lie in [(s + 1) * SEED_SPAN, (s + 2) * SEED_SPAN),
# so two workload seeds never share a scene.
SEED_SPAN = 100_000

SIMULATE_FIELDS = ["seed", "variant", "drift_rate", "mean_final_iou", "overlap_occupancy", "final_loss"]
ANCHOR_FIELDS = [
    "seed", "threshold", "retained_cells", "total_cells", "fallback", "selected_fraction",
    "uniform_fraction", "selected_negatives", "uniform_negatives", "weighted_location_loss",
]
GRADCHECK_TERMS = ("composite", "couloss", "couloss_attraction", "couloss_repulsion", "smooth_l1")
GRADCHECK_TOLERANCE = 1e-4


def cli_seeds(seed: int, chunk: int, count: int) -> list[int]:
    base = (seed + 1) * SEED_SPAN + chunk * count
    return list(range(base, base + count))


def child_env() -> dict[str, str]:
    """Environment of every program process: this checkout's sources, default workers."""
    env = dict(os.environ)
    env.pop("CROWDLOSS_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# record checks


class Tally:
    """Records expected and records failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    def fail_all(self, count: int, reason: str) -> None:
        for _ in range(count):
            self.record(False, reason)


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    return math.isfinite(x) and abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def _exact(a: str, b: str) -> bool:
    try:
        return float(a) == float(b)
    except ValueError:
        return a == b


def _read_csv(path: Path) -> list[list[str]] | None:
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except OSError:
        return None


def _ref_csv(ref: Path | None, name: str) -> list[list[str]] | None:
    """Reference rows, or None off the default seed; a missing file reads as empty."""
    if ref is None:
        return None
    return _read_csv(ref / name) or []


def _check_rows(tally, name, rows, ref_rows, header, expected, row_ok, kinds):
    """Check ``expected`` data rows; ``kinds`` maps a column to 'exact' or 'real'."""
    if rows is None or not rows or rows[0] != header:
        tally.fail_all(expected, f"{name}: missing or bad header")
        return
    data = rows[1:]
    if len(data) < expected:
        tally.fail_all(expected - len(data), f"{name}: {len(data)} rows, expected {expected}")
    elif len(data) > expected:
        tally.record(False, f"{name}: {len(data)} rows, expected {expected}")
    ref = None
    if ref_rows is not None:
        ref = ref_rows[1:]
        if len(ref) != expected:
            tally.fail_all(expected, f"{name}: reference has {len(ref)} rows, expected {expected}")
            return
    for i, row in enumerate(data[:expected]):
        ok = len(row) == len(header) and row_ok(i, row, data)
        if ok and ref is not None:
            want = ref[i]
            for col, kind in kinds.items():
                a, b = row[col], want[col]
                if not (_exact(a, b) if kind == "exact" else _close(a, b)):
                    ok = False
                    break
        tally.record(ok, f"{name} row {i + 1}: {row}")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs, commands and output checks of one workload (reasons in BENCHMARK.json)."""

    name = ""
    chunks = 1
    # non-zero exit codes that carry a verdict ``check`` judges itself
    verdict_exit_codes: tuple[int, ...] = ()

    def write_inputs(self, seed: int, chunk: int, root: Path) -> None:
        """Write the chunk's input files under ``root``."""

    def commands(self, seed: int, chunk: int) -> list[list[str]]:
        """CLI argument lists, run in order from the invocation directory."""
        raise NotImplementedError

    def outputs(self) -> list[str]:
        """Output files (under ``out/``) that define the result."""
        raise NotImplementedError

    def check(self, seed: int, chunk: int, out: Path, tally: Tally, command: int) -> None:
        """Count the records that command number ``command`` produced under ``out``."""
        raise NotImplementedError

    def reference(self, seed: int, chunk: int) -> Path | None:
        if seed != DEFAULT_SEED:
            return None
        return REFERENCE_DIR / self.name / f"chunk{chunk}"

    def all_cli_seeds(self, seed: int) -> set[int]:
        raise NotImplementedError


class _Simulate(Workload):
    seeds_per_chunk = 1
    variants = ("baseline", "couloss", "only_att", "only_rep")
    config_text = ""

    def write_inputs(self, seed, chunk, root):
        if self.config_text:
            (root / "run.cfg").write_text(self.config_text)

    def commands(self, seed, chunk):
        seeds = ",".join(str(s) for s in cli_seeds(seed, chunk, self.seeds_per_chunk))
        config = ["--config", "run.cfg"] if self.config_text else []
        return [["simulate", *config, "--seeds", seeds, "--out", "out"]]

    def outputs(self):
        return ["simulate.csv"]

    def all_cli_seeds(self, seed):
        return {s for c in range(self.chunks) for s in cli_seeds(seed, c, self.seeds_per_chunk)}

    def check(self, seed, chunk, out, tally, command):
        order = [(str(s), v) for s in cli_seeds(seed, chunk, self.seeds_per_chunk) for v in self.variants]
        ref = self.reference(seed, chunk)

        def row_ok(i, row, _data):
            if (row[0], row[1]) != order[i] or not all(_finite(x) for x in row[2:]):
                return False
            return all(0.0 <= float(row[k]) <= 1.0 for k in (2, 3, 4)) and float(row[5]) >= 0.0

        _check_rows(
            tally, "simulate.csv", _read_csv(out / "simulate.csv"),
            _ref_csv(ref, "simulate.csv"), SIMULATE_FIELDS, len(order), row_ok,
            {2: "exact", 3: "real", 4: "exact", 5: "real"},
        )


class SimulateDefault(_Simulate):
    """``simulate`` at the shipped defaults: no config file at all."""

    name = "simulate-default"
    seeds_per_chunk = 3
    chunks = 3


class CrowdDense(_Simulate):
    """The criterion-4 drift regime at 6 x 8 proposals.

    50 descent steps instead of 300 so that one run covers six times as many
    scenes, which keeps the scene-to-scene spread of the kernel's pair count
    out of the run-to-run spread; the per-step work, which is what this
    workload measures, is unchanged.
    """

    name = "crowd-dense"
    seeds_per_chunk = 6
    chunks = 3
    variants = ("baseline", "couloss")
    config_text = (
        "[sim]\npedestrian_count = 6\nproposals_per_gt = 8\nrecompute_assignments = false\n"
        "gradient_noise = 0.055\ndescent_steps = 50\n\n[composite]\nsmoothl1_weight = 7\n\n"
        "[run]\nvariants = baseline, couloss\n"
    )


class GradCheck(Workload):
    """``gradcheck`` at the default config over ``scenes_per_chunk`` scenes.

    A FAIL fails the result record on every seed. Central differences at the
    default step miss the tolerance on about one scene in 2000 that sits just
    outside the kink detector's margin (scene seed 900022 gives 1.09e-4
    against 1e-4); that is a defect of the program and shows as such.
    """

    name = "gradcheck"
    scenes_per_chunk = 12
    chunks = 4
    verdict_exit_codes = (2,)

    def write_inputs(self, seed, chunk, root):
        (root / "run.cfg").write_text(f"[gradcheck]\nnum_scenes = {self.scenes_per_chunk}\n")

    def commands(self, seed, chunk):
        base = cli_seeds(seed, chunk, self.scenes_per_chunk)[0]
        return [["gradcheck", "--config", "run.cfg", "--seeds", str(base), "--out", "out"]]

    def outputs(self):
        return ["gradcheck_report.txt"]

    def all_cli_seeds(self, seed):
        return {s for c in range(self.chunks) for s in cli_seeds(seed, c, self.scenes_per_chunk)}

    def check(self, seed, chunk, out, tally, command):
        report = _read_keyed(out / "gradcheck_report.txt")
        ref_dir = self.reference(seed, chunk)
        ref = _read_keyed(ref_dir / "gradcheck_report.txt") if ref_dir else None
        checked = report.get("scenes_checked", [""])[0]
        skipped = report.get("scenes_skipped_kinks", [""])[0]
        counts_ok = checked.isdigit() and skipped.isdigit()
        counts_ok = counts_ok and int(checked) + int(skipped) == self.scenes_per_chunk and int(checked) > 0
        for key, value in (("scenes_checked", checked), ("scenes_skipped_kinks", skipped)):
            ok = counts_ok and (ref is None or ref.get(key, [""])[0] == value)
            tally.record(ok, f"gradcheck {key} {value!r}")
        worst = 0.0
        for term in GRADCHECK_TERMS:
            vals = report.get(f"term {term}")
            ok = (
                vals is not None and len(vals) == 4 and vals[0] == "max" and vals[2] == "mean"
                and _finite(vals[1]) and _finite(vals[3]) and 0.0 <= float(vals[3]) <= float(vals[1])
            )
            worst = max(worst, float(vals[1])) if ok else math.inf
            tally.record(ok, f"gradcheck term {term} {vals}")
        result = report.get("result")
        tolerance = ["tolerance", repr(GRADCHECK_TOLERANCE)]
        ok = result == ["PASS", *tolerance] and worst < GRADCHECK_TOLERANCE
        tally.record(ok, f"gradcheck result {result} worst {worst!r}")


def _read_keyed(path: Path) -> dict[str, list[str]]:
    """Report lines keyed by their first word (two words for ``term`` lines)."""
    out: dict[str, list[str]] = {}
    try:
        text = path.read_text()
    except OSError:
        return out
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "term" and len(parts) > 1:
            out[f"term {parts[1]}"] = parts[2:]
        else:
            out.setdefault(parts[0], parts[1:])
    return out


class EvalAnchors(Workload):
    """``eval`` over generated scenes and detections, then ``anchor-demo`` at stride 1.

    Scores are continuous, so the number of distinct thresholds is about the
    number of detections. Pedestrians less than half visible fall outside the
    ``min_visibility`` subset and become ignore regions. One chunk: its cost is
    set by fixed counts, so every pass repeats the same inputs.
    """

    name = "eval-anchors"
    chunks = 1
    scene_count = 60
    detection_count = 1500
    anchor_seeds = 10
    extent = (640.0, 480.0)
    min_visibility = 0.5
    summary_keys = ("log_average_miss_rate", "fppi_at_miss_rate_0.1", "scenes", "ground_truths", "detections")

    def write_inputs(self, seed, chunk, root):
        write_eval_files(root, *self.generate(seed, chunk))
        (root / "eval.cfg").write_text(
            "[eval]\ndetections = detections.csv\nscenes_dir = scenes\n"
            f"min_visibility = {self.min_visibility!r}\n"
        )
        (root / "anchors.cfg").write_text("[anchors]\nstride = 1.0\n")

    def generate(self, seed, chunk, scene_count=None, detection_count=None):
        """Scene texts and detection rows; every score is distinct with high probability."""
        scene_count = scene_count or self.scene_count
        detection_count = detection_count or self.detection_count
        rng = np.random.default_rng([seed, chunk, 1])
        ew, eh = self.extent
        scenes, dets = [], []
        gts_by_scene = []
        for k in range(scene_count):
            sid = f"scene{k:03d}"
            lines = [f"extent {ew!r} {eh!r}"]
            fulls = []
            for _ in range(int(rng.integers(2, 7))):
                h = float(rng.uniform(50.0, 200.0))
                w = 0.41 * h
                x1 = float(rng.uniform(0.0, ew - w - 1.0))
                y1 = float(rng.uniform(0.0, eh - h - 1.0))
                full = (x1, y1, x1 + w, y1 + h)
                vis = float(rng.uniform(0.2, 1.0))
                visible = (x1, y1, x1 + w, y1 + vis * h)
                lines.append("ped " + " ".join(repr(c) for c in full + visible))
                fulls.append(full)
            for _ in range(int(rng.integers(0, 3))):
                h = float(rng.uniform(40.0, 150.0))
                w = 0.41 * h
                x1 = float(rng.uniform(0.0, ew - w - 1.0))
                y1 = float(rng.uniform(0.0, eh - h - 1.0))
                lines.append("distractor " + " ".join(repr(c) for c in (x1, y1, x1 + w, y1 + h)))
            scenes.append((sid, "\n".join(lines) + "\n"))
            gts_by_scene.append((sid, fulls))

        def jitter(box, sigma):
            x1, y1, x2, y2 = box
            w, h = x2 - x1, y2 - y1
            cx = (x1 + x2) / 2.0 + rng.normal(0.0, sigma * w)
            cy = (y1 + y2) / 2.0 + rng.normal(0.0, sigma * h)
            w = min(w * math.exp(rng.normal(0.0, sigma)), ew)
            h = min(h * math.exp(rng.normal(0.0, sigma)), eh)
            cx = min(max(cx, w / 2.0), ew - w / 2.0)
            cy = min(max(cy, h / 2.0), eh - h / 2.0)
            return (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)

        for sid, fulls in gts_by_scene:
            for full in fulls:
                if rng.random() < 0.85:
                    dets.append((sid, jitter(full, 0.08), float(rng.beta(5.0, 2.0))))
                if rng.random() < 0.3:
                    dets.append((sid, jitter(full, 0.25), float(rng.beta(2.0, 3.0))))
        while len(dets) < detection_count:
            sid = gts_by_scene[int(rng.integers(0, scene_count))][0]
            h = float(rng.uniform(40.0, 200.0))
            w = 0.41 * h * float(rng.uniform(0.8, 1.2))
            x1 = float(rng.uniform(0.0, ew - w - 1.0))
            y1 = float(rng.uniform(0.0, eh - h - 1.0))
            dets.append((sid, (x1, y1, x1 + w, y1 + h), float(rng.beta(1.5, 5.0))))
        dets = dets[:detection_count]
        rows = [[sid, *(repr(c) for c in box), repr(score)] for sid, box, score in dets]
        return scenes, rows

    def commands(self, seed, chunk):
        seeds = ",".join(str(s) for s in cli_seeds(seed, chunk, self.anchor_seeds))
        return [
            ["eval", "--config", "eval.cfg", "--out", "out"],
            ["anchor-demo", "--config", "anchors.cfg", "--seeds", seeds, "--out", "out"],
        ]

    def outputs(self):
        return ["curve.csv", "eval_summary.txt", "anchor_stats.csv"]

    def all_cli_seeds(self, seed):
        return {s for c in range(self.chunks) for s in cli_seeds(seed, c, self.anchor_seeds)}

    def _thresholds(self, inputs: Path) -> list[str]:
        rows = _read_csv(inputs / "detections.csv") or [[]]
        return [repr(s) for s in sorted({float(r[5]) for r in rows[1:]}, reverse=True)]

    def check(self, seed, chunk, out, tally, command):
        ref = self.reference(seed, chunk)
        if command == 0:
            self._check_eval(out, ref, tally)
        else:
            self._check_anchors(seed, chunk, out, ref, tally)

    def _check_eval(self, out, ref, tally):
        thresholds = self._thresholds(out.parent)

        def curve_ok(i, row, data):
            if float(row[0]) != float(thresholds[i]) or not all(_finite(x) for x in row):
                return False
            fppi, miss = float(row[1]), float(row[2])
            if fppi < 0.0 or not 0.0 <= miss <= 1.0:
                return False
            if i > 0:
                prev = data[i - 1]
                return fppi >= float(prev[1]) and miss <= float(prev[2])
            return True

        _check_rows(
            tally, "curve.csv", _read_csv(out / "curve.csv"),
            _ref_csv(ref, "curve.csv"), ["threshold", "fppi", "miss_rate"],
            len(thresholds), curve_ok, {0: "exact", 1: "exact", 2: "exact"},
        )

        summary = _read_keyed(out / "eval_summary.txt")
        ref_summary = _read_keyed(ref / "eval_summary.txt") if ref else None
        exact_counts = {"scenes": self.scene_count, "detections": self.detection_count}
        for key in self.summary_keys:
            vals = summary.get(key)
            ok = vals is not None and len(vals) == 1 and _finite(vals[0])
            if ok and key in exact_counts:
                ok = vals[0] == str(exact_counts[key])
            if ok and key == "log_average_miss_rate":
                ok = 0.0 < float(vals[0]) <= 1.0
            if ok and ref_summary is not None:
                want = ref_summary.get(key, [""])[0]
                ok = _close(vals[0], want) if key == "log_average_miss_rate" else _exact(vals[0], want)
            tally.record(ok, f"eval_summary {key} {vals}")

    def _check_anchors(self, seed, chunk, out, ref, tally):
        anchor_seeds = [str(s) for s in cli_seeds(seed, chunk, self.anchor_seeds)]

        def anchor_ok(i, row, _data):
            if row[0] != anchor_seeds[i] or row[4] not in ("true", "false"):
                return False
            nums = [row[k] for k in (1, 2, 3, 5, 6, 7, 8, 9)]
            if not all(_finite(x) for x in nums):
                return False
            retained, total = int(row[2]), int(row[3])
            return (
                0 <= retained <= total
                and all(0.0 <= float(row[k]) <= 1.0 for k in (5, 6))
                and float(row[9]) >= 0.0
            )

        _check_rows(
            tally, "anchor_stats.csv", _read_csv(out / "anchor_stats.csv"),
            _ref_csv(ref, "anchor_stats.csv"), ANCHOR_FIELDS, self.anchor_seeds,
            anchor_ok,
            {1: "real", 2: "exact", 3: "exact", 4: "exact", 5: "exact", 6: "exact", 7: "exact",
             8: "exact", 9: "real"},
        )


def write_eval_files(root: Path, scenes, rows) -> None:
    """``scenes/<id>.txt`` per scene and ``detections.csv``."""
    (root / "scenes").mkdir(parents=True, exist_ok=True)
    for sid, text in scenes:
        (root / "scenes" / f"{sid}.txt").write_text(text)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["scene_id", "x1", "y1", "x2", "y2", "score"])
    writer.writerows(rows)
    (root / "detections.csv").write_text(buf.getvalue())


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (SimulateDefault(), CrowdDense(), GradCheck(), EvalAnchors())
}
