"""Seeded inputs, request streams and the correctness oracle.

Every input of a run — data boxes, query pools, estimator seeds, the
ingest stream — is drawn from ``numpy.random.default_rng`` keyed by the
run's ``--seed`` and the workload, so the same seed gives the same inputs.
The serving processes only ever see the generated snapshot files, WAL
directory and requests.

:class:`Oracle` keeps one unsharded estimator per registered name, built
from the same spec as the served one and fed the same stream through the
core estimator's own insert/delete methods, plus the exact live box sets.
:func:`check_group` compares every recorded reply with the oracle bit
for bit and a sample of them with the exact count (see README.md for the
error bound).
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.ring import HashRing
from repro.exact.containment import containment_join_count
from repro.exact.epsilon_join import epsilon_join_count
from repro.exact.range_query import range_query_count
from repro.exact.rectangle_join import rectangle_join_count
from repro.geometry.boxset import BoxSet, PointSet
from repro.service import EstimationService
from repro.service.specs import EstimatorSpec
from repro.service.store import shard_ids
from repro.wal.recovery import default_checkpoint_path
from repro.wal.writer import WalWriter

WORKLOADS = ("read_range", "read_mixed", "ingest_fresh", "cluster_scatter")

SIDE = 1024            # domain is SIDE x SIDE
INSTANCES = 256        # atomic sketch instances per estimator
BURST = 64             # requests per burst (the coalescer's default max_batch)
EPSILON = 16           # epsilon of the epsilon-join estimator
RANGE_POOL = 32768     # distinct read_range queries (cache holds 8,192)
HOT_POOL = 256         # distinct read_mixed range queries
FRESH_POOL = 1024      # distinct ingest_fresh range queries
INSERTS_PER_ROUND = 256
DELETES_PER_ROUND = 64
WAL_TAIL_BATCHES = 2   # logged insert batches per name after the snapshot
CLUSTER_SLOTS = 64     # router default --slots
CLUSTER_WORKERS = ("w0", "w1")   # names `cluster route` gives its workers

#: Probability that any exact-count check of a run fails on correct code.
RUN_FAILURE_PROBABILITY = 1e-6

_WORKLOAD_KEYS = {name: index for index, name in enumerate(WORKLOADS)}

# family -> side -> (insert method, delete method) of the core estimator.
_METHODS = {
    "range": {"data": ("insert", "delete")},
    "rectangle": {"left": ("insert_left", "delete_left"),
                  "right": ("insert_right", "delete_right")},
    "containment": {"outer": ("insert_outer", "delete_outer"),
                    "inner": ("insert_inner", "delete_inner")},
    "epsilon": {"left": ("insert_left", "delete_left"),
                "right": ("insert_right", "delete_right")},
}


def rng_for(seed: int, workload: str, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _WORKLOAD_KEYS[workload], stream])


def random_boxes(rng: np.random.Generator, count: int, *,
                 max_extent: int = SIDE // 4, points: bool = False
                 ) -> np.ndarray:
    """``(count, 4)`` int64 rows ``[x_lo, y_lo, x_hi, y_hi]`` inside the domain."""
    lows = rng.integers(0, SIDE - 1, size=(count, 2))
    if points:
        return np.hstack([lows, lows]).astype(np.int64)
    extents = rng.integers(1, max_extent, size=(count, 2))
    highs = np.minimum(lows + extents, SIDE - 1)
    return np.hstack([lows, highs]).astype(np.int64)


def distinct_boxes(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` pairwise distinct query rectangles."""
    rows = np.unique(random_boxes(rng, count + count // 4 + 64), axis=0)
    rng.shuffle(rows)
    if len(rows) < count:
        raise RuntimeError("query pool generation produced too few rows")
    return rows[:count]


def to_boxset(rows: np.ndarray) -> BoxSet:
    return BoxSet(rows[:, :2].copy(), rows[:, 2:].copy(), validate=False)


@dataclass
class Estimator:
    """One registered name: its spec and initial contents per side."""

    name: str
    spec: EstimatorSpec
    data: dict[str, np.ndarray]


@dataclass
class Inputs:
    """Everything a workload serves and sends, derived from one seed."""

    workload: str
    seed: int
    estimators: dict[str, Estimator]
    wire: str
    range_pool: np.ndarray          # the range queries requests draw from
    # ingest_fresh: logged batches after the snapshot, (name, side, rows).
    wal_tail: list[tuple[str, str, np.ndarray]] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)


def _spec(family: str, seed: int, **options) -> EstimatorSpec:
    return EstimatorSpec.create(family, (SIDE, SIDE), INSTANCES, seed=seed,
                                **options)


def _mixed_estimators(seed: int, rng: np.random.Generator
                      ) -> dict[str, Estimator]:
    base = 16 * int(seed)
    return {
        "ranges": Estimator("ranges", _spec("range", base + 1),
                            {"data": random_boxes(rng, 5000)}),
        "rect": Estimator("rect", _spec("rectangle", base + 2),
                          {"left": random_boxes(rng, 1000),
                           "right": random_boxes(rng, 1000)}),
        "contain": Estimator("contain", _spec("containment", base + 3),
                             {"outer": random_boxes(rng, 1000,
                                                    max_extent=SIDE // 2),
                              "inner": random_boxes(rng, 1000,
                                                    max_extent=SIDE // 16)}),
        "eps": Estimator("eps", _spec("epsilon", base + 4, epsilon=EPSILON),
                         {"left": random_boxes(rng, 1000, points=True),
                          "right": random_boxes(rng, 1000, points=True)}),
    }


def make_inputs(workload: str, seed: int) -> Inputs:
    """The workload's estimators, pools and stream prefix for ``seed``."""
    rng = rng_for(seed, workload, 0)
    if workload == "read_range":
        estimators = {"ranges": Estimator(
            "ranges", _spec("range", 16 * int(seed) + 1),
            {"data": random_boxes(rng, 5000)})}
        return Inputs(workload, seed, estimators, "ndjson",
                      range_pool=distinct_boxes(rng, RANGE_POOL))
    if workload in ("read_mixed", "cluster_scatter"):
        # Both draw from the read_mixed stream: same data, same requests.
        rng = rng_for(seed, "read_mixed", 0)
        estimators = _mixed_estimators(seed, rng)
        return Inputs(workload, seed, estimators, "binary",
                      range_pool=distinct_boxes(rng, HOT_POOL))
    if workload == "ingest_fresh":
        mixed = _mixed_estimators(seed, rng)
        estimators = {"ranges": mixed["ranges"], "rect": mixed["rect"]}
        tail = []
        for _ in range(WAL_TAIL_BATCHES):
            tail.append(("ranges", "data",
                         random_boxes(rng, INSERTS_PER_ROUND)))
            tail.append(("rect", "left", random_boxes(rng, INSERTS_PER_ROUND)))
        return Inputs(workload, seed, estimators, "binary",
                      range_pool=distinct_boxes(rng, FRESH_POOL),
                      wal_tail=tail)
    raise ValueError(f"unknown workload {workload!r}")


# -- serving-side files ---------------------------------------------------------------


def _service_with(estimators: dict[str, Estimator],
                  rows_for=lambda name, side, rows: rows) -> EstimationService:
    service = EstimationService(num_shards=4, flush_threshold=None)
    for est in estimators.values():
        service.register(est.name, est.spec)
        for side, rows in est.data.items():
            part = rows_for(est.name, side, rows)
            if len(part):
                service.ingest(est.name, to_boxset(part), side=side)
    service.flush()
    return service


def write_files(inputs: Inputs, workdir: str) -> None:
    """Snapshot (and WAL) files the serving processes start from."""
    os.makedirs(workdir, exist_ok=True)
    if inputs.workload == "cluster_scatter":
        owners = HashRing(CLUSTER_WORKERS).assignments(CLUSTER_SLOTS)
        for worker in CLUSTER_WORKERS:
            def mine(name, side, rows, worker=worker):
                slots = shard_ids(to_boxset(rows), CLUSTER_SLOTS)
                keep = np.array([owners[int(s)] == worker for s in slots],
                                dtype=bool)
                return rows[keep]
            path = os.path.join(workdir, f"{worker}.sketch")
            _service_with(inputs.estimators, mine).save(path, format="binary")
            inputs.files[worker] = path
        return
    service = _service_with(inputs.estimators)
    if inputs.workload != "ingest_fresh":
        path = os.path.join(workdir, "snapshot.sketch")
        service.save(path, format="binary")
        inputs.files["snapshot"] = path
        return
    template = os.path.join(workdir, "wal-template")
    shutil.rmtree(template, ignore_errors=True)
    os.makedirs(template)
    service.save(default_checkpoint_path(template), format="binary")
    writer = WalWriter(template, sync="flush")
    service.attach_wal(writer)
    for name, side, rows in inputs.wal_tail:
        service.ingest(name, to_boxset(rows), side=side)
    service.detach_wal()
    inputs.files["wal_template"] = template


def fresh_wal_dir(inputs: Inputs, workdir: str, index: int) -> str:
    """A private copy of the WAL template for one server start."""
    target = os.path.join(workdir, f"wal-{index}")
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(inputs.files["wal_template"], target)
    return target


# -- the oracle -----------------------------------------------------------------------


class Oracle:
    """Unsharded estimators and exact live boxes, fed the served stream."""

    def __init__(self, estimators: dict[str, Estimator]) -> None:
        self.specs = {name: est.spec for name, est in estimators.items()}
        self.sketches = {name: est.spec.build() for name, est in estimators.items()}
        self.live: dict[tuple[str, str], list[np.ndarray]] = {}
        for est in estimators.values():
            for side, rows in est.data.items():
                self.apply(est.name, side, "insert", rows)

    def apply(self, name: str, side: str, kind: str, rows: np.ndarray) -> None:
        family = self.specs[name].family
        insert, delete = _METHODS[family][side]
        boxes = to_boxset(rows)
        payload = PointSet(boxes.lows.copy()) if family == "epsilon" else boxes
        getattr(self.sketches[name], insert if kind == "insert" else delete)(
            payload)
        key = (name, side)
        if kind == "insert":
            self.live.setdefault(key, []).append(rows)
        else:
            self.live[key] = [_remove_rows(np.vstack(self.live[key]), rows)]

    def rows(self, name: str, side: str) -> np.ndarray:
        return np.vstack(self.live.get((name, side), [np.empty((0, 4), np.int64)]))

    def estimates(self, name: str, queries: np.ndarray | None):
        """Oracle results for range ``queries`` (rows), or the one result of
        a query-less estimator."""
        sketch = self.sketches[name]
        if queries is not None:
            return sketch.estimate_batch(to_boxset(queries))
        return [sketch.estimate()]

    def exact(self, name: str, query: np.ndarray | None) -> int:
        family = self.specs[name].family
        if family == "range":
            return range_query_count(to_boxset(self.rows(name, "data")),
                                     to_boxset(query[None, :]))
        if family == "rectangle":
            return rectangle_join_count(to_boxset(self.rows(name, "left")),
                                        to_boxset(self.rows(name, "right")))
        if family == "containment":
            return containment_join_count(to_boxset(self.rows(name, "outer")),
                                          to_boxset(self.rows(name, "inner")))
        left = self.rows(name, "left")[:, :2]
        right = self.rows(name, "right")[:, :2]
        return epsilon_join_count(PointSet(left), PointSet(right), EPSILON)


def _remove_rows(rows: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """``rows`` minus one occurrence of every row of ``drop``."""
    keep = np.ones(len(rows), dtype=bool)
    for row in drop:
        hits = np.flatnonzero(keep & (rows == row).all(axis=1))
        if not len(hits):
            raise ValueError(f"delete of a box that is not live: {row}")
        keep[hits[-1]] = False
    return rows[keep]


def error_bound(result, checks: int) -> float:
    """Largest |estimate - exact| the variance analysis allows (README.md).

    Each of the k2 group means averages k1 instances of Z; by Chebyshev it
    misses E[Z] by more than t with probability at most
    p = Var[Z] / (k1 t^2).  The median of the k2 means misses only if at
    least ceil(k2/2) of them do, which has probability at most
    (4p)^ceil(k2/2).  p is chosen so that over ``checks`` comparisons the
    chance of any false alarm is RUN_FAILURE_PROBABILITY; Var[Z] is the
    sample variance of the instance values.
    """
    k2 = len(result.group_means)
    k1 = result.num_instances // k2
    half = math.ceil(k2 / 2)
    p = (RUN_FAILURE_PROBABILITY / max(checks, 1)) ** (1.0 / half) / 4.0
    return math.sqrt(result.sample_variance / (k1 * p))


@dataclass
class Check:
    """Outcome of checking one run's estimate replies."""

    compared: int = 0
    mismatches: list[str] = field(default_factory=list)
    exact_checked: int = 0
    worst_ratio: float = 0.0   # max |estimate - exact| / bound

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_group(oracle: Oracle, check: Check, name: str,
                query_ids: np.ndarray, pool: np.ndarray | None,
                values: np.ndarray, *, exact_sample: int,
                rng: np.random.Generator, checks_planned: int) -> None:
    """Compare replies for one name at one stream position.

    ``query_ids`` index ``pool`` (range estimators) or are ``-1`` (probes);
    ``values`` are the reply estimates in the same order.
    """
    if pool is not None:
        unique, inverse = np.unique(query_ids, return_inverse=True)
        results = oracle.estimates(name, pool[unique])
        expected = np.array([r.estimate for r in results])[inverse]
    else:
        unique = np.array([-1])
        results = oracle.estimates(name, None)
        expected = np.full(len(values), results[0].estimate)
    check.compared += len(values)
    bad = np.flatnonzero(expected.view(np.int64) != values.view(np.int64))
    for position in bad[:5]:
        check.mismatches.append(
            f"{name}: reply {values[position]!r} != oracle "
            f"{expected[position]!r}")
    if len(bad) > 5:
        check.mismatches.append(f"{name}: {len(bad) - 5} more mismatches")
    picks = rng.permutation(len(unique))[:exact_sample]
    for pick in picks:
        result = results[pick]
        query = pool[unique[pick]] if pool is not None else None
        truth = oracle.exact(name, query)
        bound = error_bound(result, checks_planned)
        ratio = abs(result.estimate - truth) / bound if bound else (
            0.0 if result.estimate == truth else math.inf)
        check.exact_checked += 1
        check.worst_ratio = max(check.worst_ratio, ratio)
        if ratio > 1.0:
            check.mismatches.append(
                f"{name}: estimate {result.estimate} vs exact {truth} exceeds "
                f"the error bound {bound:.1f}")
