"""The benchmark's own checks. Exits non-zero on the first failure.

    python3 perfbench/selfcheck.py

* one workload seed gives byte-identical inputs, and a second seed gives a
  disjoint CLI seed set and different generated files;
* the tracer survives functions that are absent or never called (they
  report 0) and counts a call it does see;
* the output checker accepts the pinned reference and rejects a reference
  value perturbed beyond the tolerance, and a duplicated output row.

Named so that pytest does not collect it.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracer_mod  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Tally  # noqa: E402


def input_files(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` keyed by its relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def check_inputs(tmp: Path) -> None:
    for wl in WORKLOADS.values():
        for chunk in sorted({0, wl.chunks - 1}):
            a, b, c = tmp / f"{wl.name}-a{chunk}", tmp / f"{wl.name}-b{chunk}", tmp / f"{wl.name}-c{chunk}"
            for d, seed in ((a, 7), (b, 7), (c, 8)):
                d.mkdir(parents=True)
                wl.write_inputs(seed, chunk, d)
            check(input_files(a) == input_files(b), f"{wl.name} chunk {chunk}: same seed, same input bytes")
            check(wl.commands(7, chunk) != wl.commands(8, chunk), f"{wl.name} chunk {chunk}: other CLI seeds")
            if (a / "detections.csv").exists():
                check(input_files(a) != input_files(c), f"{wl.name} chunk {chunk}: another seed, other files")
        for s1, s2 in ((7, 8), (0, 1), (123456, 123457)):
            check(not (wl.all_cli_seeds(s1) & wl.all_cli_seeds(s2)),
                  f"{wl.name}: CLI seeds of workload seeds {s1} and {s2} are disjoint")


def check_tracer() -> None:
    saved = dict(tracer_mod.TRACED)
    tracer_mod.TRACED["couloss"] = saved["couloss"] + ("no_such_function",)
    tracer_mod.TRACED["no_such_module"] = ("anything",)
    try:
        tr = tracer_mod.Tracer()
        tr.install()
    finally:
        tracer_mod.TRACED.clear()
        tracer_mod.TRACED.update(saved)
    metrics = tr.metrics()
    check(set(metrics) | {"cli.cpu_s", "trace.overhead_frac"} == {n for n, _ in tracer_mod.PER_LAYER},
          "tracer reports every per-layer metric")
    check(all(v == 0 for v in metrics.values()), "absent or uncalled functions report 0")

    from crowdloss import BBox, couloss

    gts = [BBox(0, 0, 4, 8), BBox(3, 0, 7, 8)]
    proposals = [BBox(0.5, 1, 4.5, 9), BBox(2, 0.5, 6, 8.5), BBox(2.5, 0.5, 6.5, 8.5)]
    sys.modules["crowdloss.couloss"].couloss(gts, proposals)
    couloss(gts, proposals)
    m = tr.metrics()
    check(m["couloss.couloss.calls"] == 2 and m["couloss.assemble_triplets.calls"] == 2,
          "couloss counted through the module and the package binding, with nested assemble_triplets")
    check(m["couloss.pairs"] > 0 and m["couloss.ns_per_pair"] > 0, "pairs counted from the built triplets")


def check_checker(tmp: Path) -> None:
    for wl in WORKLOADS.values():
        ref = wl.reference(DEFAULT_SEED, 0)
        inv = tmp / f"ref-{wl.name}"
        inv.mkdir(parents=True)
        wl.write_inputs(DEFAULT_SEED, 0, inv)
        shutil.copytree(ref, inv / "out")
        commands = range(len(wl.commands(DEFAULT_SEED, 0)))
        tally = Tally()
        for command in commands:
            wl.check(DEFAULT_SEED, 0, inv / "out", tally, command)
        check(tally.attempted > 0 and tally.failed == 0,
              f"{wl.name}: reference passes its own check ({tally.attempted} records)")

        # perturb the first output: a real beyond REL_TOL in a CSV, a count in a report
        name = wl.outputs()[0]
        path = inv / "out" / name
        lines = path.read_text().splitlines()
        if name.endswith(".csv"):
            fields = lines[1].split(",")
            j = max(i for i, f in enumerate(fields) if "." in f and float(f) not in (0.0, 1.0))
            fields[j] = repr(float(fields[j]) * (1 + 1e-6))
            lines[1] = ",".join(fields)
        else:
            key, count = lines[0].split()
            lines[0] = f"{key} {int(count) + 1}"
        path.write_text("\n".join(lines) + "\n")
        tally = Tally()
        for command in commands:
            wl.check(DEFAULT_SEED, 0, inv / "out", tally, command)
        check(tally.failed >= 1, f"{wl.name}: a perturbed {name} fails ({tally.failed} records)")

        # a duplicated last row in a CSV output is extra output and fails
        if name.endswith(".csv"):
            shutil.copyfile(ref / name, path)
            path.write_text(path.read_text() + path.read_text().splitlines()[-1] + "\n")
            tally = Tally()
            for command in commands:
                wl.check(DEFAULT_SEED, 0, inv / "out", tally, command)
            check(tally.failed >= 1, f"{wl.name}: a duplicated row in {name} fails ({tally.failed} records)")


def main() -> int:
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        check_inputs(Path(tmp))
        check_checker(Path(tmp))
    check_tracer()
    print("selfcheck: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
