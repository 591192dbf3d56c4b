"""Steadiness of the end-to-end metrics across seeds.

Usage::

    python3 perfbench/steady.py --runs 10 --first-seed 1 --seconds 10 \
        [--workload read_range ...] [--bounds]

Runs ``run.py`` once per seed (``first-seed`` .. ``first-seed + runs - 1``)
on each workload, one run at a time, and prints for every end-to-end
metric its median and its spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  ``--bounds`` also prints, per metric, the bound this host
supports: three times the largest spread seen on any workload, at least
0.05 and at most 0.25 (``setup_s`` always gets 0.25).  Those are the
bounds in ``BENCHMARK.json``; rerun this on another host to make them
anew, and with another ``--first-seed`` to check them on unseen seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: The workloads of BENCHMARK.json, run when no --workload is given.
WORKLOADS = ("read_mixed", "ingest_fresh")
CHOICES = ("read_range", "read_mixed", "ingest_fresh", "cluster_scatter")


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: float,
            save: str | None = None) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    if save:
        os.makedirs(save, exist_ok=True)
        with open(os.path.join(save, f"{workload}-{seed}.txt"), "w",
                  encoding="utf-8") as handle:
            handle.write(done.stdout)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--workload", action="append", choices=CHOICES)
    parser.add_argument("--bounds", action="store_true")
    parser.add_argument("--save", default=None, metavar="DIR",
                        help="keep each run's full output in DIR")
    args = parser.parse_args(argv)
    spreads: dict[str, float] = {}
    for workload in args.workload or WORKLOADS:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = one_run(workload, seed, args.seconds, args.save)
            results.append(result)
            values = " ".join(f"{name}={m['value']:.4g}"
                              for name, m in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} {values}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed share per run {sorted(shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            s = spread(values) if len(values) >= 2 else 0.0
            spreads[name] = max(spreads.get(name, 0.0), s)
            print(f"  {workload:16s} {name:18s} median "
                  f"{statistics.median(values):12.4f} {unit:4s} "
                  f"IQR/median {s:.4f}", flush=True)
    if args.bounds:
        for name, s in spreads.items():
            bound = 0.25 if name == "setup_s" else min(0.25, max(0.05, 3 * s))
            print(f"bound {name}: {bound:.2f} (largest spread {s:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
