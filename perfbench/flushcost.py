"""Reference figure: a flush with delta propagation vs a plain flush.

Usage::

    python3 perfbench/flushcost.py [--rounds 7]

In one process, two services shaped like ``ingest_fresh``'s (4 shards,
a 2-d range estimator and a rectangle-join estimator over the benchmark's
domain) take the same rounds of 1,000 inserted boxes per estimator.  Each
round flushes and then reads, so the service with delta propagation (the
default) has a delta watch armed at every flush and feeds every flushed
box to it as well as to its shard; the other is built with
``delta_propagation=False``.  The median flush time per estimator is
printed for each.  The serving path always runs with delta propagation
on, so this gap is part of ``service.flush_ms`` in the traced
``ingest_fresh`` run.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import make_inputs, random_boxes, rng_for, to_boxset  # noqa: E402

from repro.service import EstimationService  # noqa: E402

BOXES = 1000


def flush_ms(delta: bool, rounds: int, seed: int) -> dict[str, float]:
    inputs = make_inputs("ingest_fresh", seed)
    service = EstimationService(num_shards=4, flush_threshold=None,
                                delta_propagation=delta)
    sides = {"ranges": "data", "rect": "left"}
    for est in inputs.estimators.values():
        service.register(est.name, est.spec)
        for side, rows in est.data.items():
            service.ingest(est.name, to_boxset(rows), side=side)
    service.flush()
    rng = rng_for(seed, "ingest_fresh", 9)
    times: dict[str, list[float]] = {name: [] for name in sides}
    for _ in range(rounds):
        for name, side in sides.items():
            service.merged_view(name)   # a read arms the delta watch
            service.ingest(name, to_boxset(random_boxes(rng, BOXES)),
                           side=side)
            start = time.perf_counter()
            service.flush()
            times[name].append(time.perf_counter() - start)
    return {name: 1e3 * statistics.median(values)
            for name, values in times.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    plain = flush_ms(False, args.rounds, args.seed)
    delta = flush_ms(True, args.rounds, args.seed)
    for name in plain:
        print(f"{name:8s} flush of {BOXES} boxes: with delta propagation "
              f"{delta[name]:7.1f} ms, plain {plain[name]:7.1f} ms "
              f"({delta[name] / plain[name]:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
