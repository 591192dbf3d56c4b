"""End-to-end serving benchmark: client -> server -> service -> core.

Usage::

    python3 perfbench/run.py --workload read_range --seed 1 --seconds 10 --trace 0

Workloads: read_range, read_mixed, ingest_fresh, cluster_scatter, or
``all`` to run each in turn.  The serving processes (servers, router)
are started as their own processes through ``perfbench/launch.py``; this
process is the single-threaded load generator on one connection.  Every
load is a closed loop of bursts: the next burst is written only after
every reply to the last one has been read.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it measures half the time untraced and half traced and
prints the per-layer metrics, including the tracing overhead.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=os.path.join(ROOT, ".perfbench"),
                        help="scratch directory for snapshots, WAL copies, "
                             "logs and span dumps (inside the checkout)")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    # A terminated run still stops the serving processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _fail(f"no program to measure: {SRC}/repro is missing")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import bench
    from workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all")
    print("host: " + json.dumps(host_fingerprint()), flush=True)
    outcomes = []
    for name in names:
        workdir = os.path.join(args.workdir, name)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        outcomes.append(bench.run_workload(name, args.seed, args.seconds,
                                           bool(args.trace), workdir))
    if len(outcomes) == 1:
        result = outcomes[0]
    else:
        result = {"correct": all(o["correct"] for o in outcomes),
                  "attempted": sum(o["attempted"] for o in outcomes),
                  "failed": sum(o["failed"] for o in outcomes),
                  "metrics": {f"{name}.{metric}": value
                              for name, o in zip(names, outcomes)
                              for metric, value in o["metrics"].items()}}
    print(json.dumps(result), flush=True)
    return 0


def host_fingerprint() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "numba": has_numba}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
