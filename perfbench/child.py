"""One benchmark invocation in a fresh process: set up, then time the CLI.

Run by ``run.py`` as ``python3 child.py '<spec json>'`` with ``PYTHONPATH``
pointing at the checkout's ``src``. Set-up is interpreter start, ``import
crowdloss`` and writing the generated inputs; it ends when this process
stamps ``ready`` on the system-wide monotonic clock, which the parent
compares with its own stamp taken just before the spawn. With ``trace`` the
tracer is installed after ``ready`` and before the timed commands. The
result goes to ``spec["result"]`` as JSON.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def main() -> int:
    spec = json.loads(sys.argv[1])
    import crowdloss
    from crowdloss import cli

    src = Path(spec["src"]).resolve()
    module_file = Path(crowdloss.__file__).resolve()
    if src not in module_file.parents:
        print(f"crowdloss imported from {module_file}, not from {src}", file=sys.stderr)
        return 90

    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    root = Path(spec["dir"])
    root.mkdir(parents=True, exist_ok=True)
    workload.write_inputs(spec["seed"], spec["chunk"], root)
    (root / "out").mkdir(exist_ok=True)
    os.chdir(root)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if spec.get("setup_only"):
        Path(spec["result"]).write_text(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    commands = workload.commands(spec["seed"], spec["chunk"])
    codes = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for argv in commands:
        codes.append(cli.main(argv))
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    sys.stdout.flush()

    result = {
        "ready": ready,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "crowdloss_file": str(module_file),
        "crowdloss_version": getattr(crowdloss, "__version__", "unknown"),
        "threads_env_unset": "CROWDLOSS_THREADS" not in os.environ,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans()
        result["wrapped"] = tracer.installed
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
