"""The benchmark's checker must catch a wrong reply and a lost update.

Run with ``python3 -m pytest perfbench/test_checker.py -q`` from the
repository root.  The served side is an in-process sharded
:class:`EstimationService` — the state a server holds — fed the
``ingest_fresh`` stream; the checker compares its answers with the
oracle exactly as it does a server's replies.
"""

from __future__ import annotations

import os
import struct
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from bench import Load, Records, check  # noqa: E402
from workloads import make_inputs, to_boxset  # noqa: E402

from repro.service import EstimationService  # noqa: E402

ROUNDS = 2


def _small_inputs():
    inputs = make_inputs("ingest_fresh", 5)
    for est in inputs.estimators.values():
        est.data = {side: rows[:300] for side, rows in est.data.items()}
    return inputs


def _serve(inputs, *, drop_delete_of: tuple[int, str] | None = None):
    """Replies of a sharded service fed the stream (optionally minus one
    delete batch), recorded as the load generator records them."""
    service = EstimationService(num_shards=4, flush_threshold=None)
    for est in inputs.estimators.values():
        service.register(est.name, est.spec)
        for side, rows in est.data.items():
            service.ingest(est.name, to_boxset(rows), side=side)
    for name, side, rows in inputs.wal_tail:
        service.ingest(name, to_boxset(rows), side=side)
    load = Load(inputs)
    records = Records()
    for index in range(ROUNDS):
        for burst in load.round(index):
            for request in burst:
                payload = request.payload
                if request.op == "ingest":
                    if (payload["kind"] == "delete"
                            and (index, payload["name"]) == drop_delete_of):
                        continue
                    service.ingest(payload["name"],
                                   to_boxset(payload["boxes"]),
                                   side=payload["side"], kind=payload["kind"])
                elif request.op == "flush":
                    service.flush()
                else:
                    query = payload["query"]
                    result = service.estimate(
                        request.name,
                        None if query is None else to_boxset(np.asarray([query])))
                    records.estimates.append((request.position, request.name,
                                              request.query, result.estimate))
    return load, records


def _flip_low_bit(value: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", value))
    (flipped,) = struct.unpack("<d", struct.pack("<q", bits ^ 1))
    return flipped


def test_faithful_replies_pass():
    inputs = _small_inputs()
    load, records = _serve(inputs)
    verdict = check(inputs, load, records)
    assert verdict.ok, verdict.mismatches
    assert verdict.compared == len(records.estimates) > 0
    assert verdict.exact_checked > 0


def test_flipped_low_bit_fails():
    inputs = _small_inputs()
    load, records = _serve(inputs)
    position, name, query, value = records.estimates[70]
    records.estimates[70] = (position, name, query, _flip_low_bit(value))
    verdict = check(inputs, load, records)
    assert not verdict.ok
    assert len(verdict.mismatches) == 1


def test_dropped_delete_fails():
    inputs = _small_inputs()
    load, records = _serve(inputs, drop_delete_of=(1, "ranges"))
    verdict = check(inputs, load, records)
    assert not verdict.ok
    assert all(m.startswith("ranges") for m in verdict.mismatches)
