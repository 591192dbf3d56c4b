"""One benchmark run of one workload: set up, drive, measure, check."""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

import tracing
from topology import ServingProcess, cpu_seconds, stop_all
from workloads import (
    BURST,
    CLUSTER_WORKERS,
    DELETES_PER_ROUND,
    INSERTS_PER_ROUND,
    Check,
    Inputs,
    Oracle,
    check_group,
    fresh_wal_dir,
    make_inputs,
    random_boxes,
    rng_for,
    write_files,
)

from repro.client import ServiceClient
from repro.server import wire

#: Serving-topology starts per run; ``setup_s`` is their median.
SETUPS = 5
JOIN_PROBES = ("rect", "contain", "eps")
#: ingest_fresh updates these (name, side) pairs, in this order, each round.
FRESH_UPDATES = (("ranges", "data"), ("rect", "left"))


# -- request streams ------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One request and what its reply is checked against.

    ``position`` is the number of ingest rounds applied to the served
    state when the request is sent; ``query`` indexes the workload's
    range-query pool, or is -1 for query-less probes.
    """

    payload: dict
    op: str
    name: str = ""
    query: int = -1
    position: int = 0


class Load:
    """The request stream of one workload, as rounds of bursts."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.rng = rng_for(inputs.seed, inputs.workload, 1)
        self._queries = inputs.range_pool.tolist()
        # ingest_fresh: the rows each round inserts, per name.
        self.inserted: dict[str, list[np.ndarray]] = defaultdict(list)
        self.deleted: dict[str, list[np.ndarray]] = defaultdict(list)

    def estimate(self, name: str, query: int = -1, position: int = 0
                 ) -> Request:
        row = self._queries[query] if query >= 0 else None
        return Request({"op": "estimate", "name": name, "query": row},
                       "estimate", name, query, position)

    def _range_burst(self, rng: np.random.Generator, count: int,
                     position: int = 0) -> list[Request]:
        ids = rng.integers(0, len(self._queries), size=count)
        return [self.estimate("ranges", int(q), position) for q in ids]

    def _mixed_burst(self, rng: np.random.Generator) -> list[Request]:
        ids = rng.integers(0, len(self._queries), size=BURST)
        burst = []
        for slot in range(BURST):
            if slot % 4 == 3:
                burst.append(self.estimate(JOIN_PROBES[(slot // 4) % 3]))
            else:
                burst.append(self.estimate("ranges", int(ids[slot])))
        return burst

    def warmup(self) -> list[Request]:
        rng = rng_for(self.inputs.seed, self.inputs.workload, 2)
        workload = self.inputs.workload
        if workload == "read_range":
            return self._range_burst(rng, BURST)
        if workload == "ingest_fresh":
            return (self._range_burst(rng, BURST * 3 // 4)
                    + [self.estimate("rect")] * (BURST // 4))
        return self._mixed_burst(rng)

    def round(self, index: int) -> list[list[Request]]:
        """The bursts of round ``index`` (rounds are generated in order)."""
        workload = self.inputs.workload
        if workload == "read_range":
            return [self._range_burst(self.rng, BURST)]
        if workload != "ingest_fresh":
            return [self._mixed_burst(self.rng)]
        bursts = []
        for name, side in FRESH_UPDATES:
            inserts = random_boxes(self.rng, INSERTS_PER_ROUND)
            previous = (self.inserted[name][-1] if index
                        else self.inputs.estimators[name].data[side])
            deletes = previous[:DELETES_PER_ROUND]
            self.inserted[name].append(inserts)
            self.deleted[name].append(deletes)
            position = index + 1
            bursts.append([Request({"op": "ingest", "name": name,
                                    "boxes": inserts, "side": side,
                                    "kind": "insert"}, "ingest")])
            bursts.append([Request({"op": "ingest", "name": name,
                                    "boxes": deletes, "side": side,
                                    "kind": "delete"}, "ingest")])
            bursts.append([Request({"op": "flush"}, "flush")])
            if name == "ranges":
                bursts.append(self._range_burst(self.rng, BURST, position))
            else:
                bursts.append([self.estimate(name, -1, position)] * BURST)
        return bursts


# -- driving --------------------------------------------------------------------------


@dataclass
class Records:
    """Everything observed about the requests of one phase."""

    latencies: list[float] = field(default_factory=list)
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)
    # (position, name, query, reply estimate) of every answered estimate.
    estimates: list[tuple[int, str, int, float]] = field(default_factory=list)

    def extend(self, other: "Records") -> None:
        self.latencies += other.latencies
        self.attempted.update(other.attempted)
        self.failed.update(other.failed)
        self.errors += other.errors
        self.estimates += other.estimates


def send_burst(client: ServiceClient, burst: list[Request],
               records: Records) -> None:
    """Write every request of a burst, then read every reply in order.

    This is ``ServiceClient.request_many`` with a timestamp per reply,
    which ``request_many`` does not give; it uses the client's socket and
    frame reader directly.
    """
    fmt = client.wire_format
    data = b"".join(wire.encode_frame(request.payload, fmt)
                    for request in burst)
    start = time.perf_counter()
    client._sock.sendall(data)
    for request in burst:
        reply = client._read_response()
        records.latencies.append(time.perf_counter() - start)
        records.attempted[request.op] += 1
        if not reply.get("ok"):
            records.failed[request.op] += 1
            if len(records.errors) < 5:
                records.errors.append(f"{request.op}: {reply.get('error')}")
        elif request.op == "estimate":
            records.estimates.append((request.position, request.name,
                                      request.query, float(reply["estimate"])))


#: Least length of one slice of the timed phase; see :func:`end_to_end`.
SLICE_S = 0.1


def drive(client: ServiceClient, load: Load, seconds: float
          ) -> tuple[Records, float, int, list[tuple[float, int]]]:
    """Whole rounds until ``seconds`` have passed.

    Returns the records, the elapsed time, the number of rounds and the
    slice marks ``(time, requests so far)``, taken at the start and at
    the first round boundary after each ``SLICE_S``.
    """
    records = Records()
    start = time.perf_counter()
    deadline = start + seconds
    marks = [(start, 0)]
    rounds = 0
    while True:
        now = time.perf_counter()
        if now >= deadline:
            if len(marks) > 1 and now - marks[-1][0] < SLICE_S:
                marks.pop()   # fold a short last slice into the one before
            marks.append((now, len(records.latencies)))
            break
        if now >= marks[-1][0] + SLICE_S:
            marks.append((now, len(records.latencies)))
        for burst in load.round(rounds):
            send_burst(client, burst, records)
        rounds += 1
    return records, time.perf_counter() - start, rounds, marks


# -- topology -------------------------------------------------------------------------


@dataclass
class Topology:
    processes: list[ServingProcess]
    client: ServiceClient
    setup_s: float

    def close(self) -> None:
        self.client.close()
        stop_all(self.processes)


def start(inputs: Inputs, load: Load, workdir: str, index: int,
          trace: bool, records: Records) -> Topology:
    """Launch the workload's serving processes and send the warm-up burst."""
    listen = ["--listen", "127.0.0.1:0"]
    started = time.perf_counter()
    processes: list[ServingProcess] = []
    try:
        if inputs.workload == "cluster_scatter":
            workers = [ServingProcess(
                "worker", ["serve", *listen, "--snapshot", inputs.files[w]],
                workdir=workdir, tag=f"{w}-{index}", trace=trace)
                for w in CLUSTER_WORKERS]
            processes += workers
            route = ["cluster", "route", *listen]
            for worker in workers:
                host, port = worker.wait_ready()
                route += ["--worker", f"{host}:{port}"]
            processes.append(ServingProcess("router", route, workdir=workdir,
                                            tag=f"router-{index}",
                                            trace=trace))
        elif inputs.workload == "ingest_fresh":
            wal_dir = fresh_wal_dir(inputs, workdir, index)
            processes.append(ServingProcess(
                "server", ["serve", *listen, "--wal-dir", wal_dir],
                workdir=workdir, tag=f"server-{index}", trace=trace))
        else:
            processes.append(ServingProcess(
                "server", ["serve", *listen, "--snapshot",
                           inputs.files["snapshot"]],
                workdir=workdir, tag=f"server-{index}", trace=trace))
        host, port = processes[-1].wait_ready()
        client = ServiceClient(host, port, wire=inputs.wire, timeout=120.0)
    except BaseException:
        stop_all(processes)
        raise
    send_burst(client, load.warmup(), records)
    return Topology(processes, client, time.perf_counter() - started)


# -- measuring ------------------------------------------------------------------------


@dataclass
class Phase:
    records: Records
    elapsed: float
    rounds: int
    cpu: dict[str, float]          # role -> CPU seconds in the timed window
    rss_mb: float
    window: tuple[float, float]
    marks: list[tuple]
    stats_before: dict | None = None
    stats_after: dict | None = None
    dumps: list[tuple[str, dict]] = field(default_factory=list)
    setup_window: tuple[float, float] = (0.0, 0.0)
    # Traced phases: role -> span name -> self time per request (us).
    self_us_per_op: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return len(self.records.latencies)


def measure(topology: Topology, load: Load, seconds: float, *,
            stats: bool = False) -> Phase:
    processes = topology.processes
    before = topology.client.request({"op": "stats"}) if stats else None
    cpu0 = [p.cpu_seconds() for p in processes]
    self0 = cpu_seconds(os.getpid())
    t0 = time.perf_counter()
    records, elapsed, rounds, marks = drive(topology.client, load, seconds)
    t1 = time.perf_counter()
    cpu1 = [p.cpu_seconds() for p in processes]
    self1 = cpu_seconds(os.getpid())
    rss = sum(p.peak_rss_mb() for p in processes)
    after = topology.client.request({"op": "stats"}) if stats else None
    cpu: dict[str, float] = defaultdict(float)
    for process, a, b in zip(processes, cpu0, cpu1):
        cpu[process.role] += b - a
    cpu["client"] = self1 - self0
    return Phase(records, elapsed, rounds, dict(cpu), rss, (t0, t1),
                 marks, before, after)


def slices(phase: Phase) -> list[tuple[float, float]]:
    """``(requests/s, median latency s)`` of each slice of the timed phase.

    Slices end at the first round boundary after ``SLICE_S``.
    """
    marks = phase.marks
    latencies = phase.records.latencies
    return [((rb - ra) / (tb - ta), statistics.median(latencies[ra:rb]))
            for (ta, ra), (tb, rb) in zip(marks, marks[1:]) if rb > ra]


def end_to_end(phase: Phase, setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one timed phase.

    Throughput is the 90th percentile of the slices' requests per second
    and p50 latency the lower quartile of the slices' median latencies.
    On a shared host other tenants take the CPUs in spells, and the
    slices they hit run slower; the least disturbed part of a run is what
    repeats from run to run.  The two quantiles are the ones whose spread
    over two sets of ten seeds was smallest (README.md).  CPU per request is over the whole
    phase: CPU time does not count the spells in which the process was
    not running.
    """
    parts = slices(phase)
    if len(parts) < 8:
        raise RuntimeError(f"only {len(parts)} slices; run longer")
    rates, medians = zip(*parts)
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.quantiles(rates, n=10)[8],
        "latency_p50_ms": 1e3 * statistics.quantiles(medians, n=4)[0],
        "cpu_us_per_op": 1e6 * sum(phase.cpu.values()) / phase.requests,
        "rss_mb": phase.rss_mb,
    }


def whole_run(phase: Phase) -> dict[str, float]:
    """Figures over the whole timed phase, for the report."""
    return {"throughput_per_s": phase.requests / phase.elapsed,
            "latency_p50_ms": 1e3 * statistics.median(phase.records.latencies),
            "cpu_us_per_op": 1e6 * sum(phase.cpu.values()) / phase.requests,
            "slices": [[round(rate, 1), round(1e3 * latency, 3)]
                       for rate, latency in slices(phase)]}


# -- checking -------------------------------------------------------------------------


def check(inputs: Inputs, load: Load, records: Records) -> Check:
    """Every estimate reply against the oracle, in stream order."""
    oracle = Oracle(inputs.estimators)
    for name, side, rows in inputs.wal_tail:
        oracle.apply(name, side, "insert", rows)
    groups: dict[tuple[int, str], tuple[list[int], list[float]]] = {}
    for position, name, query, value in records.estimates:
        queries, values = groups.setdefault((position, name), ([], []))
        queries.append(query)
        values.append(value)
    positions = sorted({position for position, _ in groups})
    last = positions[-1] if positions else 0
    plan: list[tuple[int, str, int]] = []
    for position, name in sorted(groups):
        if inputs.estimators[name].spec.family == "range":
            sample = 64 if position == 0 else 4
        else:
            sample = 1 if position in (0, last) else 0
        plan.append((position, name, sample))
    planned = sum(sample for *_, sample in plan)
    rng = rng_for(inputs.seed, inputs.workload, 3)
    result = Check()
    applied = 0
    for position, name, sample in plan:
        while applied < position:
            for upd_name, side in FRESH_UPDATES:
                oracle.apply(upd_name, side, "insert",
                             load.inserted[upd_name][applied])
                oracle.apply(upd_name, side, "delete",
                             load.deleted[upd_name][applied])
            applied += 1
        queries, values = groups[(position, name)]
        is_range = inputs.estimators[name].spec.family == "range"
        check_group(oracle, result, name, np.asarray(queries),
                    inputs.range_pool if is_range else None,
                    np.asarray(values, dtype=np.float64),
                    exact_sample=sample, rng=rng, checks_planned=planned)
    return result


END_TO_END_UNITS = {"setup_s": "s", "throughput_per_s": "1/s",
                    "latency_p50_ms": "ms", "cpu_us_per_op": "us",
                    "rss_mb": "MB"}


# -- per-layer metrics ----------------------------------------------------------------


PER_LAYER_UNITS = {
    "client.encode_us_per_op": "us", "client.decode_us_per_op": "us",
    "server.wire.decode_us_per_frame": "us",
    "server.wire.encode_us_per_frame": "us",
    "server.wire.bytes_per_op": "B",
    "server.coalescer.queue_wait_ms": "ms",
    "server.coalescer.queries_per_dispatch": "count",
    "server.coalescer.timer_dispatches": "count",
    "service.estimate_multi_ms": "ms", "service.view_fetch_us": "us",
    "service.view_rebuilds": "1/kop", "service.view_delta_applies": "1/kop",
    "service.flush_ms": "ms", "service.ingest_us_per_box": "us",
    "service.store.apply_ms_per_kbox": "ms",
    "service.store.merge_view_ms": "ms",
    "core.program.compile_ms": "ms", "core.program.run_ms": "ms",
    "core.program.letter_sums_requested": "1/op",
    "core.program.letter_sums_computed": "1/op",
    "core.program.kernel_calls": "1/op",
    "core.atomic.insert_us_per_box": "us",
    "wal.append_us_per_record": "us", "wal.bytes_per_box": "B",
    "wal.recovery_s": "s", "service.snapshot.load_s": "s",
    "cluster.router.scatter_ms": "ms",
    "cluster.connection.bytes_per_estimate": "B",
    "cluster.partial.reduce_ms": "ms",
    "cpu.server_us_per_op": "us", "cpu.router_us_per_op": "us",
    "cpu.client_us_per_op": "us",
    "trace.cpu_overhead_pct": "%",
}


def _merge(summaries: list[dict]) -> dict:
    merged: dict[str, dict] = {}
    for summary in summaries:
        for name, entry in summary.items():
            target = merged.setdefault(name, {"count": 0, "total_s": 0.0,
                                              "self_s": 0.0, "n": 0,
                                              "extra": [0, 0, 0]})
            for key in ("count", "total_s", "self_s", "n"):
                target[key] += entry[key]
            target["extra"] = [a + b for a, b in zip(target["extra"],
                                                     entry["extra"])]
    return merged


def _mean(summary: dict, name: str, scale: float = 1.0) -> float:
    entry = summary.get(name)
    if not entry or not entry["count"]:
        return 0.0
    return scale * entry["total_s"] / entry["count"]


def _per(summary: dict, name: str, denominator: float, scale: float = 1.0
         ) -> float:
    entry = summary.get(name)
    if not entry or not denominator:
        return 0.0
    return scale * entry["total_s"] / denominator


def _wire_bytes(stats: dict | None) -> int:
    if not stats:
        return 0
    return sum(c.get("bytes_in", 0) + c.get("bytes_out", 0)
               for c in stats.get("server", {}).get("wire", {}).values())


def _service_counter(stats: dict | None, key: str) -> int:
    return int((stats or {}).get("stats", {}).get(key, 0))


def per_layer(phase: Phase, client_spans: list, untraced_cpu_us: float
              ) -> dict[str, float]:
    t0, t1 = phase.window
    requests = phase.requests
    estimates = phase.records.attempted["estimate"]
    client = tracing.reduce_spans(client_spans, t0, t1)
    serving = {role: [] for role in ("server", "worker", "router")}
    setup_summaries = []
    for role, dump in phase.dumps:
        serving[role].append(tracing.reduce_spans(dump["spans"], t0, t1))
        setup_summaries.append(tracing.reduce_spans(dump["spans"],
                                                    *phase.setup_window))
    servers = _merge(serving["server"] + serving["worker"])
    router = _merge(serving["router"])
    everything = _merge([servers, router])
    setup = _merge(setup_summaries)
    phase.self_us_per_op = {
        role: {name: round(1e6 * entry["self_s"] / requests, 3)
               for name, entry in sorted(summary.items())}
        for role, summary in (("client", client), ("server", servers),
                              ("router", router))
        if summary}

    def sized(summary, name):
        entry = summary.get(name)
        return (entry["total_s"], entry["n"]) if entry else (0.0, 0)

    dispatch = servers.get("coalescer.dispatch", {"count": 0, "n": 0})
    waits = servers.get("coalescer.queue_wait", {"count": 0})
    runs = servers.get("program.run", {"extra": [0, 0, 0]})
    ingest_s, ingest_boxes = sized(servers, "service.ingest")
    apply_s, apply_boxes = sized(servers, "store.apply")
    insert_s, insert_boxes = sized(servers, "atomic.insert")
    _, wal_boxes = sized(servers, "wal.append")
    _, wal_bytes = sized(servers, "wal.encode_record")
    kops = requests / 1000.0
    front_bytes = _wire_bytes(phase.stats_after) - _wire_bytes(
        phase.stats_before)
    router_codec = sum(router.get(name, {"n": 0})["n"]
                       for name in ("wire.encode", "wire.decode"))
    scatter = _mean(router, "router.estimate", 1e3)
    reduce_ms = _mean(router, "partial.reduce", 1e3)
    cpu = phase.cpu
    traced_cpu_us = 1e6 * sum(cpu.values()) / requests
    return {
        "client.encode_us_per_op": _per(client, "wire.encode", requests, 1e6),
        "client.decode_us_per_op": _per(client, "wire.decode", requests, 1e6),
        "server.wire.decode_us_per_frame": _mean(everything, "wire.decode",
                                                 1e6),
        "server.wire.encode_us_per_frame": _mean(everything, "wire.encode",
                                                 1e6),
        "server.wire.bytes_per_op": front_bytes / requests,
        "server.coalescer.queue_wait_ms": _mean(servers,
                                                "coalescer.queue_wait", 1e3),
        "server.coalescer.queries_per_dispatch": (
            waits["count"] / dispatch["count"] if dispatch["count"] else 0.0),
        "server.coalescer.timer_dispatches": float(dispatch["n"]),
        "service.estimate_multi_ms": _mean(servers, "service.estimate_multi",
                                           1e3),
        "service.view_fetch_us": _mean(servers, "service.view_fetch", 1e6),
        "service.view_rebuilds": (
            _service_counter(phase.stats_after, "rebuilds")
            - _service_counter(phase.stats_before, "rebuilds")) / kops,
        "service.view_delta_applies": (
            _service_counter(phase.stats_after, "delta_applies")
            - _service_counter(phase.stats_before, "delta_applies")) / kops,
        "service.flush_ms": _mean(servers, "service.flush", 1e3),
        "service.ingest_us_per_box": (1e6 * ingest_s / ingest_boxes
                                      if ingest_boxes else 0.0),
        "service.store.apply_ms_per_kbox": (1e6 * apply_s / apply_boxes
                                            if apply_boxes else 0.0),
        "service.store.merge_view_ms": _mean(servers, "store.merge_view", 1e3),
        "core.program.compile_ms": _mean(servers, "program.compile", 1e3),
        "core.program.run_ms": _mean(servers, "program.run", 1e3),
        "core.program.letter_sums_requested": (
            runs["extra"][0] / estimates if estimates else 0.0),
        "core.program.letter_sums_computed": (
            runs["extra"][1] / estimates if estimates else 0.0),
        "core.program.kernel_calls": (
            runs["extra"][2] / estimates if estimates else 0.0),
        "core.atomic.insert_us_per_box": (1e6 * insert_s / insert_boxes
                                          if insert_boxes else 0.0),
        "wal.append_us_per_record": _mean(servers, "wal.append", 1e6),
        "wal.bytes_per_box": wal_bytes / wal_boxes if wal_boxes else 0.0,
        "wal.recovery_s": setup.get("wal.recovery", {"total_s": 0.0})[
            "total_s"],
        "service.snapshot.load_s": sum(
            setup.get(name, {"total_s": 0.0})["total_s"]
            for name in ("snapshot.read", "snapshot.restore")),
        "cluster.router.scatter_ms": max(0.0, scatter - reduce_ms),
        "cluster.connection.bytes_per_estimate": (
            (router_codec - front_bytes) / estimates
            if router_codec and estimates else 0.0),
        "cluster.partial.reduce_ms": reduce_ms,
        "cpu.server_us_per_op": 1e6 * (cpu.get("server", 0.0)
                                       + cpu.get("worker", 0.0)) / requests,
        "cpu.router_us_per_op": 1e6 * cpu.get("router", 0.0) / requests,
        "cpu.client_us_per_op": 1e6 * cpu.get("client", 0.0) / requests,
        "trace.cpu_overhead_pct": 100.0 * (traced_cpu_us - untraced_cpu_us)
        / untraced_cpu_us,
    }


# -- one run --------------------------------------------------------------------------


def _timer_dispatches(processes: list[ServingProcess]) -> int:
    total = 0
    for process in processes:
        try:
            dump = process.read_dump()
        except (OSError, ValueError):
            continue
        total += sum(c["timer_dispatches"] for c in dump.get("coalescers", []))
    return total


def _untraced(inputs: Inputs, workdir: str, seconds: float, warm: Records
              ) -> tuple[dict, list[Phase], int]:
    """``SETUPS`` starts (their median is ``setup_s``), then the timed phase."""
    setups: list[float] = []
    timer_dispatches = 0
    for index in range(SETUPS):
        topology = start(inputs, Load(inputs), workdir, index, False, warm)
        setups.append(topology.setup_s)
        if index < SETUPS - 1:
            topology.close()
            timer_dispatches += _timer_dispatches(topology.processes)
    try:
        phase = measure(topology, Load(inputs), seconds)
    finally:
        topology.close()
    timer_dispatches += _timer_dispatches(topology.processes)
    return end_to_end(phase, setups), [phase], timer_dispatches


def _traced(inputs: Inputs, workdir: str, seconds: float, warm: Records
            ) -> tuple[dict, list[Phase], int]:
    """An untraced half for reference, then a traced half on a fresh start."""
    reference = start(inputs, Load(inputs), workdir, 0, False, warm)
    try:
        plain = measure(reference, Load(inputs), seconds / 2)
    finally:
        reference.close()
    timer_dispatches = _timer_dispatches(reference.processes)
    recorder = tracing.Recorder()
    tracing.install_codec(recorder)
    try:
        setup_start = time.perf_counter()
        topology = start(inputs, Load(inputs), workdir, 1, True, warm)
        setup_end = time.perf_counter()
        try:
            phase = measure(topology, Load(inputs), seconds / 2, stats=True)
        finally:
            topology.close()
    finally:
        recorder.uninstall()
    timer_dispatches += _timer_dispatches(topology.processes)
    phase.setup_window = (setup_start, setup_end)
    phase.dumps = [(p.role, p.read_dump()) for p in topology.processes]
    untraced_cpu_us = 1e6 * sum(plain.cpu.values()) / plain.requests
    metrics = per_layer(phase, recorder.spans, untraced_cpu_us)
    return metrics, [plain, phase], timer_dispatches


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str) -> dict:
    started = time.perf_counter()
    inputs = make_inputs(workload, seed)
    write_files(inputs, workdir)
    inputs_s = time.perf_counter() - started
    everything = Records()
    metrics, phases, timer_dispatches = (_traced if trace else _untraced)(
        inputs, workdir, seconds, everything)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for phase in phases:
        everything.extend(phase.records)
    # Every phase sends a prefix of the same stream; checking replays the
    # longest.
    load = Load(inputs)
    for index in range(max(phase.rounds for phase in phases)):
        load.round(index)
    checked = time.perf_counter()
    verdict = check(inputs, load, everything)
    check_s = time.perf_counter() - checked
    main = phases[-1]
    latencies = main.records.latencies
    p99_ms = 1e3 * statistics.quantiles(latencies, n=100)[98]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "rounds": main.rounds,
        "attempted": dict(everything.attempted),
        "failed": dict(everything.failed), "errors": everything.errors,
        "latency_p99_ms": p99_ms, "latency_samples": len(latencies),
        "server.coalescer.timer_dispatches": timer_dispatches,
        "whole_run": whole_run(main),
        "inputs_s": inputs_s, "check_s": check_s,
        "run_s": time.perf_counter() - started,
        "check": {"replies_compared": verdict.compared,
                  "bit_identical": verdict.ok,
                  "exact_checked": verdict.exact_checked,
                  "worst_error_over_bound": verdict.worst_ratio,
                  "problems": verdict.mismatches[:10]},
    }
    if main.self_us_per_op:
        report["self_us_per_op"] = main.self_us_per_op
    print("report: " + json.dumps(report), flush=True)
    for name, value in metrics.items():
        print(f"  {workload:16s} {name:40s} {value:14.4f} {units[name]}",
              flush=True)
    print(f"  {workload:16s} {'latency_p99_ms (reference)':40s} "
          f"{p99_ms:14.4f} ms over {len(latencies)} requests", flush=True)
    return {"correct": verdict.ok,
            "attempted": sum(everything.attempted.values()),
            "failed": sum(everything.failed.values()),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}
