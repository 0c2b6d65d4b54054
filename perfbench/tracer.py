"""Span tracer that wraps crowdloss's public functions from outside the package.

``Tracer.install()`` replaces each function in ``TRACED`` with a wrapper in
every ``crowdloss`` module namespace that binds it, so calls through
``from .x import f`` are caught as well. A wrapper records one span (name,
start, end, parent) per call and, for a few functions, a count taken from
its arguments or result. Spans stay in memory until ``metrics()`` folds them
into the per-layer numbers.

``geometry`` and ``_diff`` are deliberately not wrapped: they run 10^6-10^7
times per run and a per-call wrapper would distort it, so their cost shows up
in the self time of their callers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

PACKAGE = "crowdloss"
TRACED = {
    "simulator": ("generate_scene", "spawn_proposals", "load_scene", "run_descent"),
    "baselines": ("regression_targets", "composite_regression_loss", "composite_gradient"),
    "couloss": ("assemble_triplets", "couloss", "couloss_gradient", "detect_kinks"),
    "gradcheck": ("check_scene", "finite_difference"),
    "evalkit": ("load_detections", "fppi_curve", "match"),
    "anchors": (
        "bump_probability_map",
        "select_anchors",
        "negative_informativeness",
        "build_target_map",
        "location_branch_loss",
    ),
}

# (metric, unit); the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = (
    ("simulator.generate_scene.s", "s"),
    ("simulator.spawn_proposals.s", "s"),
    ("simulator.load_scene.s", "s"),
    ("simulator.run_descent.calls", "count"),
    ("simulator.run_descent.self_s", "s"),
    ("simulator.steps", "count"),
    ("simulator.step_self_us", "us"),
    ("baselines.regression_targets.s", "s"),
    ("baselines.regression_targets.calls", "count"),
    ("baselines.composite_regression_loss.self_s", "s"),
    ("baselines.composite_gradient.self_s", "s"),
    ("couloss.assemble_triplets.s", "s"),
    ("couloss.assemble_triplets.calls", "count"),
    ("couloss.triplets", "count"),
    ("couloss.couloss.self_s", "s"),
    ("couloss.couloss.calls", "count"),
    ("couloss.couloss_gradient.self_s", "s"),
    ("couloss.couloss_gradient.calls", "count"),
    ("couloss.pairs", "count"),
    ("couloss.ns_per_pair", "ns"),
    ("couloss.detect_kinks.s", "s"),
    ("couloss.detect_kinks.calls", "count"),
    ("gradcheck.check_scene.s", "s"),
    ("gradcheck.check_scene.calls", "count"),
    ("gradcheck.finite_difference.self_s", "s"),
    ("gradcheck.loss_evals", "count"),
    ("gradcheck.dekink_yield", "ratio"),
    ("evalkit.load_detections.s", "s"),
    ("evalkit.fppi_curve.self_s", "s"),
    ("evalkit.match.s", "s"),
    ("evalkit.match.calls", "count"),
    ("evalkit.thresholds", "count"),
    ("evalkit.match_calls_per_detection", "calls/detection"),
    ("anchors.bump_probability_map.s", "s"),
    ("anchors.select_anchors.s", "s"),
    ("anchors.retained_frac", "ratio"),
    ("anchors.negative_informativeness.s", "s"),
    ("anchors.anchors_scored", "count"),
    ("anchors.build_target_map.s", "s"),
    ("anchors.location_branch_loss.s", "s"),
    ("cli.cpu_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def pair_count(triplets) -> int:
    """Distinct attraction (gt, positive) plus repulsion (gt, negative) pairs."""
    att = {(t.gt_index, t.positive_index) for t in triplets}
    rep = {(t.gt_index, t.negative_index) for t in triplets}
    return len(att) + len(rep)


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.built: dict[int, object] = {}  # span index -> triplets built under it
        self._pairs_cache: dict[int, tuple[object, int]] = {}
        self.installed: list[str] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in ``TRACED`` that exists; absent ones stay at 0."""
        importlib.import_module(PACKAGE)
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, funcs in TRACED.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                continue
            for fn in funcs:
                original = getattr(module, fn, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for mod in modules + [module]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                self.installed.append(f"{mod_name}.{fn}")

    def _wrap(self, label: str, original):
        label_id = len(self.labels)
        self.labels.append(label)
        hook = getattr(self, "_hook_" + label.replace(".", "_"), None)
        clock = time.perf_counter
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(label_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            result = exc = None
            start.append(clock())
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                if hook is not None:
                    hook(idx, args, kwargs, result, exc)

        return wrapper

    # -- counts taken at the call boundary ----------------------------------

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _pairs(self, triplets) -> int:
        cached = self._pairs_cache.get(id(triplets))
        if cached is not None and cached[0] is triplets:
            return cached[1]
        n = pair_count(triplets)
        if len(self._pairs_cache) > 256:
            self._pairs_cache.clear()
        self._pairs_cache[id(triplets)] = (triplets, n)
        return n

    def _hook_simulator_run_descent(self, idx, args, kwargs, result, exc):
        if result is None and exc is not None:
            result = getattr(exc, "partial_result", None)
        self._add("steps", getattr(result, "steps", 0))

    def _hook_couloss_assemble_triplets(self, idx, args, kwargs, result, exc):
        if result is None:
            return
        triplets = result[0]
        self._add("triplets", len(triplets))
        parent = self.parent[idx]
        if parent >= 0 and self.labels[self.name[parent]] in ("couloss.couloss", "couloss.couloss_gradient"):
            self.built[parent] = triplets

    def _loss_pairs(self, idx, kwargs):
        built = self.built.pop(idx, None)
        structure = kwargs.get("structure")
        triplets = getattr(structure, "triplets", None) if structure is not None else built
        if triplets is not None:
            self._add("pairs", self._pairs(triplets))

    def _hook_couloss_couloss(self, idx, args, kwargs, result, exc):
        self._loss_pairs(idx, kwargs)

    def _hook_couloss_couloss_gradient(self, idx, args, kwargs, result, exc):
        self._loss_pairs(idx, kwargs)

    def _hook_evalkit_load_detections(self, idx, args, kwargs, result, exc):
        self._add("detections", len(result or ()))

    def _hook_evalkit_fppi_curve(self, idx, args, kwargs, result, exc):
        self._add("thresholds", len(getattr(result, "thresholds", ())))

    def _hook_anchors_select_anchors(self, idx, args, kwargs, result, exc):
        if result is None:
            return
        self._add("retained_cells", len(result.cells))
        self._add("grid_cells", result.grid_height * result.grid_width)

    def _hook_anchors_negative_informativeness(self, idx, args, kwargs, result, exc):
        selected = args[0] if args else kwargs.get("selected")
        if selected is None:
            return
        uniform = selected.grid_height * selected.grid_width * len(selected.scales) * len(selected.ratios)
        self._add("anchors_scored", len(selected.anchors) + uniform)

    # -- aggregation ---------------------------------------------------------

    def spans(self) -> int:
        return len(self.name)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per wrapped function: calls, inclusive seconds, self seconds, direct children."""
        n = len(self.name)
        child_time = [0.0] * n
        totals = {label: {"calls": 0, "s": 0.0, "self_s": 0.0, "children": 0} for label in self.labels}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        for i in range(n):
            t = totals[self.labels[self.name[i]]]
            dur = self.end[i] - self.start[i]
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - child_time[i]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                totals[self.labels[self.name[p]]]["children"] += 1
        return totals

    def metrics(self) -> dict[str, float]:
        """The per-layer numbers of ``PER_LAYER`` except the two the runner adds."""
        totals = self.layer_totals()
        empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "children": 0}

        def get(label, key):
            return totals.get(label, empty)[key]

        c = self.counts
        steps = c.get("steps", 0)
        pairs = c.get("pairs", 0)
        kernel_s = get("couloss.couloss", "self_s") + get("couloss.couloss_gradient", "self_s")
        kinks = get("couloss.detect_kinks", "calls")
        detections = c.get("detections", 0)
        grid = c.get("grid_cells", 0)
        m = {
            "simulator.generate_scene.s": get("simulator.generate_scene", "s"),
            "simulator.spawn_proposals.s": get("simulator.spawn_proposals", "s"),
            "simulator.load_scene.s": get("simulator.load_scene", "s"),
            "simulator.run_descent.calls": get("simulator.run_descent", "calls"),
            "simulator.run_descent.self_s": get("simulator.run_descent", "self_s"),
            "simulator.steps": steps,
            "simulator.step_self_us": get("simulator.run_descent", "self_s") / steps * 1e6 if steps else 0.0,
            "baselines.regression_targets.s": get("baselines.regression_targets", "s"),
            "baselines.regression_targets.calls": get("baselines.regression_targets", "calls"),
            "baselines.composite_regression_loss.self_s": get("baselines.composite_regression_loss", "self_s"),
            "baselines.composite_gradient.self_s": get("baselines.composite_gradient", "self_s"),
            "couloss.assemble_triplets.s": get("couloss.assemble_triplets", "s"),
            "couloss.assemble_triplets.calls": get("couloss.assemble_triplets", "calls"),
            "couloss.triplets": c.get("triplets", 0),
            "couloss.couloss.self_s": get("couloss.couloss", "self_s"),
            "couloss.couloss.calls": get("couloss.couloss", "calls"),
            "couloss.couloss_gradient.self_s": get("couloss.couloss_gradient", "self_s"),
            "couloss.couloss_gradient.calls": get("couloss.couloss_gradient", "calls"),
            "couloss.pairs": pairs,
            "couloss.ns_per_pair": kernel_s / pairs * 1e9 if pairs else 0.0,
            "couloss.detect_kinks.s": get("couloss.detect_kinks", "s"),
            "couloss.detect_kinks.calls": kinks,
            "gradcheck.check_scene.s": get("gradcheck.check_scene", "s"),
            "gradcheck.check_scene.calls": get("gradcheck.check_scene", "calls"),
            "gradcheck.finite_difference.self_s": get("gradcheck.finite_difference", "self_s"),
            # each loss evaluation of a central difference is one direct child span
            "gradcheck.loss_evals": get("gradcheck.finite_difference", "children"),
            "gradcheck.dekink_yield": get("gradcheck.check_scene", "calls") / kinks if kinks else 0.0,
            "evalkit.load_detections.s": get("evalkit.load_detections", "s"),
            "evalkit.fppi_curve.self_s": get("evalkit.fppi_curve", "self_s"),
            "evalkit.match.s": get("evalkit.match", "s"),
            "evalkit.match.calls": get("evalkit.match", "calls"),
            "evalkit.thresholds": c.get("thresholds", 0),
            "evalkit.match_calls_per_detection": get("evalkit.match", "calls") / detections if detections else 0.0,
            "anchors.bump_probability_map.s": get("anchors.bump_probability_map", "s"),
            "anchors.select_anchors.s": get("anchors.select_anchors", "s"),
            "anchors.retained_frac": c.get("retained_cells", 0) / grid if grid else 0.0,
            "anchors.negative_informativeness.s": get("anchors.negative_informativeness", "s"),
            "anchors.anchors_scored": c.get("anchors_scored", 0),
            "anchors.build_target_map.s": get("anchors.build_target_map", "s"),
            "anchors.location_branch_loss.s": get("anchors.location_branch_loss", "s"),
        }
        return m
