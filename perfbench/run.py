"""crowdloss benchmark: four CLI workloads timed end to end, plus a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload simulate-default --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --write-reference       # re-pin reference/ (default seed)

Load model: closed loop, one caller, one process at a time. Each invocation is
a fresh ``python3 perfbench/child.py`` process that imports ``crowdloss`` from
this checkout's ``src``, writes the inputs derived from ``--seed``, and calls
``crowdloss.cli.main`` with ``CROWDLOSS_THREADS`` removed from its
environment, so the program runs at its default of one worker. The run makes
whole passes over the workload's chunks, one invocation per chunk, for
``--seconds`` seconds (at least two passes).

With ``--trace 0`` the result holds the end-to-end metrics: ``run_s``, the
wall time of the CLI calls of one pass with each chunk at its fastest
invocation (the minimum keeps out the spells in which a shared host runs
slow); the medians over the invocations of ``setup_s`` (process start until
inputs are written) and ``peak_rss_mb`` (``ru_maxrss``); and ``ok_frac``
(output records correct / records expected). With ``--trace 1``
untraced and traced invocations of chunk 0 alternate; the result holds the
per-layer metrics of ``tracer.PER_LAYER`` and ``trace.overhead_frac``.

Every output record is checked (``workloads.py``); the traced run's output
files must equal the untraced run's byte for byte, and repeated invocations of
a chunk must reproduce their first output. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import PER_LAYER
from workloads import DEFAULT_SEED, REFERENCE_DIR, SRC, WORKLOADS, Tally, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_BASE = ROOT / ".perfbench_out"
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170.0
RUN_LIMIT_S = 150.0
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def spawn(spec: dict, timeout: float) -> tuple[dict | None, float, str]:
    """Run one child; return its result, the spawn stamp and an error text."""
    spec_dir = Path(spec["dir"])
    spec_dir.mkdir(parents=True, exist_ok=True)
    log = spec_dir / "child.log"
    result_path = Path(spec["result"])
    result_path.unlink(missing_ok=True)
    with open(log, "w") as fh:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                stdout=fh, stderr=subprocess.STDOUT, env=child_env(), timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, spawned, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not result_path.exists():
        tail = log.read_text()[-2000:]
        return None, spawned, f"exit code {proc.returncode}: {tail}"
    return json.loads(result_path.read_text()), spawned, ""


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    out = {"n": len(values), "median": statistics.median(values) if values else None}
    for p in PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            out[f"p{p:g}"] = float(np.percentile(values, p))
            break
    return out


def best_pass(results: list[dict]) -> float | None:
    """Wall time of one pass over the chunks, each at its fastest invocation."""
    best: dict[int, float] = {}
    for r in results:
        best[r["chunk"]] = min(best.get(r["chunk"], math.inf), r["run_s"])
    return sum(best.values()) if best else None


def digest(out_dir: Path, names: list[str]) -> dict[str, str]:
    res = {}
    for name in names:
        path = out_dir / name
        res[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return res


def provenance(children: list[dict]) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode())
        src_hash.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "crowdloss_file": children[0].get("crowdloss_file") if children else None,
        "crowdloss_version": children[0].get("crowdloss_version") if children else None,
        "crowdloss_threads_unset": all(c.get("threads_env_unset") for c in children),
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.base = OUT_BASE / f"{workload}{'-trace' if trace else ''}"
        self.tally = Tally()
        self.first_digest: dict[int, dict[str, str]] = {}
        self.results: list[dict] = []
        self.started = 0.0

    def invoke(self, k: int, chunk: int, traced: bool) -> None:
        inv_dir = self.base / f"inv{k:03d}"
        spec = {
            "workload": self.wl.name, "seed": self.seed, "chunk": chunk, "trace": traced,
            "dir": str(inv_dir), "result": str(inv_dir / "result.json"), "src": str(SRC),
        }
        timeout = max(5.0, CHILD_TIMEOUT_S - (time.monotonic() - self.started))
        res, spawned, err = spawn(spec, timeout)
        out_dir = inv_dir / "out"
        checked = Tally()
        exits_ok = True
        for command in range(len(self.wl.commands(self.seed, chunk))):
            sub = Tally()
            self.wl.check(self.seed, chunk, out_dir, sub, command)
            code = res["exit_codes"][command] if res else None
            if code != 0 and code not in self.wl.verdict_exit_codes:
                exits_ok = False
                self.tally.fail_all(sub.attempted, f"invocation {k} command {command}: exit {code} {err}"[:500])
                continue
            checked.attempted += sub.attempted
            checked.failed += sub.failed
            checked.reasons += sub.reasons
        # the same chunk must give the same bytes, traced or not, every time
        if exits_ok and digest(out_dir, self.wl.outputs()) != self.first_digest.setdefault(
            chunk, digest(out_dir, self.wl.outputs())
        ):
            checked.failed = checked.attempted
            checked.reasons.insert(0, f"invocation {k}: outputs differ from the first run of chunk {chunk}")
        self.tally.attempted += checked.attempted
        self.tally.failed += checked.failed
        self.tally.reasons += checked.reasons[: max(0, 20 - len(self.tally.reasons))]
        if res is None:
            return
        if k > 0:
            shutil.rmtree(inv_dir / "out", ignore_errors=True)
            shutil.rmtree(inv_dir / "scenes", ignore_errors=True)
        res["setup_s"] = res["ready"] - spawned
        res["traced"] = traced
        res["chunk"] = chunk
        self.results.append(res)

    def execute(self) -> dict:
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        self.started = time.monotonic()
        # warm-up: byte-compiles the package and checks where it is imported from
        warm = self.base / "warmup"
        res, _, err = spawn(
            {"workload": self.wl.name, "seed": self.seed, "chunk": 0, "trace": False,
             "setup_only": True, "dir": str(warm), "result": str(warm / "result.json"), "src": str(SRC)},
            60.0,
        )
        if res is None:
            raise SystemExit(f"benchmark set-up failed: {err}")

        loop_start = time.monotonic()
        k = 0
        walls: list[float] = []
        while True:
            t0 = time.monotonic()
            if self.trace:
                # alternate the order inside each pair so drift hits both sides alike
                order = (False, True) if (k // 2) % 2 == 0 else (True, False)
                for traced in order:
                    self.invoke(k, 0, traced)
                    k += 1
            else:
                # one whole pass over the chunks, so every run measures the same inputs
                for chunk in range(self.wl.chunks):
                    self.invoke(k, chunk, False)
                    k += 1
            walls.append(time.monotonic() - t0)
            elapsed = time.monotonic() - loop_start
            need = 1 if self.trace else MIN_PASSES
            if len(walls) >= need and elapsed + statistics.mean(walls) > self.seconds:
                break
            if time.monotonic() - self.started > RUN_LIMIT_S:
                break
        return self.report(time.monotonic() - loop_start)

    def report(self, measured_s: float) -> dict:
        untraced = [r for r in self.results if not r["traced"]]
        traced = [r for r in self.results if r["traced"]]
        stats = {
            "invocation_run_s": summary([r["run_s"] for r in untraced]),
            "setup_s": summary([r["setup_s"] for r in self.results]),
            "peak_rss_mb": summary([r["peak_rss_mb"] for r in untraced]),
        }
        attempted = max(self.tally.attempted, 1)
        failed = self.tally.failed
        ok_frac = 1.0 - failed / attempted
        correct = failed == 0 and bool(untraced) and (bool(traced) or not self.trace)
        if self.trace:
            metrics = {}
            layer_sum: dict[str, float] = {}
            for r in traced:
                for key, value in r["layers"].items():
                    layer_sum[key] = layer_sum.get(key, 0.0) + value
            for key, value in layer_sum.items():
                metrics[key] = value / len(traced)
            run_untraced = best_pass(untraced) or 0.0
            run_traced = best_pass(traced) or 0.0
            metrics["cli.cpu_s"] = statistics.median(r["cpu_s"] for r in untraced) if untraced else 0.0
            metrics["trace.overhead_frac"] = (
                (run_traced - run_untraced) / run_untraced if run_untraced else 0.0
            )
            stats["traced_run_s"] = summary([r["run_s"] for r in traced])
            out_metrics = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}
        else:
            out_metrics = {
                "run_s": {"value": best_pass(untraced) or 0.0, "unit": "s"},
                "setup_s": {"value": stats["setup_s"]["median"] or 0.0, "unit": "s"},
                "peak_rss_mb": {"value": stats["peak_rss_mb"]["median"] or 0.0, "unit": "MiB"},
                "ok_frac": {"value": ok_frac, "unit": "ratio"},
            }
        detail = {
            "workload": self.wl.name,
            "seed": self.seed,
            "trace": self.trace,
            "seconds": self.seconds,
            "measured_s": measured_s,
            "invocations": len(self.results),
            "samples": [
                {k: r[k] for k in ("chunk", "traced", "run_s", "setup_s", "cpu_s", "peak_rss_mb")}
                for r in self.results
            ],
            "failed_frac": failed / attempted,
            "failure_reasons": self.tally.reasons,
            "stats": stats,
            "spans": [r.get("spans") for r in traced],
            "provenance": provenance(self.results),
        }
        (self.base / "result.json").write_text(json.dumps({"detail": detail, "metrics": out_metrics}, indent=1))
        return {
            "correct": correct,
            "attempted": self.tally.attempted,
            "failed": failed,
            "metrics": out_metrics,
            "detail": detail,
        }


def print_human(res: dict) -> None:
    d = res["detail"]
    print(f"# {d['workload']} seed={d['seed']} trace={int(d['trace'])} "
          f"invocations={d['invocations']} measured={d['measured_s']:.1f}s")
    for key, st in d["stats"].items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in st.items() if k.startswith("p"))
        med = st["median"]
        print(f"  {key:<16} median={med if med is None else f'{med:.6g}'} n={st['n']} {extra}".rstrip())
    print(f"  failed_frac      {d['failed_frac']:.6g} ratio ({res['failed']} of {res['attempted']} records)")
    for reason in d["failure_reasons"][:5]:
        print(f"    failure: {reason}")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    p = d["provenance"]
    print(f"  env: nproc={p['nproc']} cpu={p['cpu_model']!r} python={p['python']} numpy={p['numpy']} "
          f"commit={p['git_commit']} src_sha256={p['src_sha256'][:12]} "
          f"CROWDLOSS_THREADS unset={p['crowdloss_threads_unset']}")


def write_reference() -> int:
    """Pin every chunk's outputs at the default seed, after checking invariants."""
    for wl in WORKLOADS.values():
        for chunk in range(wl.chunks):
            inv_dir = OUT_BASE / "reference" / wl.name / f"chunk{chunk}"
            shutil.rmtree(inv_dir, ignore_errors=True)
            spec = {"workload": wl.name, "seed": DEFAULT_SEED, "chunk": chunk, "trace": False,
                    "dir": str(inv_dir), "result": str(inv_dir / "result.json"), "src": str(SRC)}
            res, _, err = spawn(spec, 600.0)
            if res is None or any(res["exit_codes"]):
                print(f"{wl.name} chunk {chunk}: {err or res['exit_codes']}", file=sys.stderr)
                return 1
            dest = REFERENCE_DIR / wl.name / f"chunk{chunk}"
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir(parents=True)
            for name in wl.outputs():
                shutil.copyfile(inv_dir / "out" / name, dest / name)
            tally = Tally()
            for command in range(len(wl.commands(DEFAULT_SEED, chunk))):
                wl.check(DEFAULT_SEED, chunk, inv_dir / "out", tally, command)
            print(f"{wl.name} chunk {chunk}: {tally.attempted} records, {tally.failed} failed, "
                  f"{res['run_s']:.2f} s")
            if tally.failed:
                print("\n".join(tally.reasons), file=sys.stderr)
                return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "crowdloss" / "__init__.py").is_file():
        print(f"no crowdloss sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    last = None
    for name in names:
        last = Run(name, args.seed, args.seconds, bool(args.trace)).execute()
        print_human(last)
    if args.workload == "all":
        return 0
    print(json.dumps({k: last[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
