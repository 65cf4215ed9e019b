"""Workload generation, experiment sweeps, and run metrics.

A run is closed-loop: every client performs acquire-then-release pairs on
uniformly random items with zero think time, so throughput reflects
saturation.  Per-client operation streams are derived from
`random.Random(f"{seed}:{client_index}")`, which is stable across both
threads and processes, making request sequences reproducible for any
transport.  Items are drawn with `getrandbits` exactly as
`randrange(n_items)` draws them, at under half its cost.

Every run's trace is validated by the checker before metrics are
reported; a violating trace raises RunCheckError instead of returning
numbers.  The checked trace is the run's only report: its GRANT count is
the lock count and its first-to-last stamp the time span, so the harness
reads no clock and a client reports only its trace.  A failed or killed
client ends the run at once.

`TRANSPORT_ROWS` holds one row per transport.  A row hosts each design's
passive side, connects each client and picks the clients' worker kind;
`host_design`, `connect_client` and `_run_clients` read the row and test no
transport.  A hosted design hands its clients one target: the server's
address, or the verb host's address paired with the lock table's handle.
A client process ships its trace into its own source's buffer.

* inproc — a server design is the LockServer itself, behind one
  InprocChannel per client that dispatches on the client's thread; the
  lock table is a region on an InprocFabric; each client is a thread
  that stamps into the run's recorder.
* tcp — a server design is the LockServer's framed-socket port, every
  connection served by its one loop thread; the lock table is a region on
  a TcpAgent, reached through a TcpFabric; each client is a forkserver
  process (so worker startup does not fork a thread-laden parent) that
  ships its own trace and is terminated on cleanup.

On either transport the two server designs take one path and differ only
in the server's modeled per-message cost.
"""

from __future__ import annotations

import csv
import functools
import multiprocessing
import queue
import random
import threading
from dataclasses import dataclass, replace
from operator import countOf, itemgetter
from typing import Callable, NamedTuple

from .checker import (
    CONSERVATION,
    DESIGN_CLIENT_CENTRIC,
    DESIGN_SERVER_SR,
    DESIGN_SERVER_TCP,
    DESIGNS,
    Violation,
    check_all,
)
from .client_lm import ClientSession
from .errors import MAX_DURATION_S, ConfigurationError, RunCheckError
from .locktable import MAX_CLIENTS, TableHandle
from .server_lm import (
    DEFAULT_SR_MESSAGE_COST,
    DEFAULT_TCP_MESSAGE_COST,
    InprocChannel,
    LockServer,
    ServerConfig,
    ServerLockClient,
    SocketConn,
)
from .trace import (  # noqa: F401  (re-exported: the trace file format lives with the bench)
    OP_ACQ,
    OUT_GRANT,
    TraceEvent,
    TraceRecorder,
    read_trace,
    write_trace,
)
from .verbs import WORD_SIZE, InprocFabric
from .tcp_transport import TcpAgent, TcpFabric

TRANSPORT_INPROC = "inproc"
TRANSPORT_TCP = "tcp"

# Server design -> default per-message cost, the one thing that tells the
# two apart.  The client-centric design runs no server and has no entry.
DEFAULT_MESSAGE_COSTS = {
    DESIGN_SERVER_TCP: DEFAULT_TCP_MESSAGE_COST,
    DESIGN_SERVER_SR: DEFAULT_SR_MESSAGE_COST,
}

# The CSV's columns, in order; `result_row` lists its values in this order.
CSV_COLUMNS = [
    "design", "transport", "n_clients", "n_items", "contention_rate", "shared_fraction",
    "total_locks", "elapsed_s", "throughput_lps", "seed",
]


def contention_rate(n_items: int, n_clients: int) -> float:
    """1 - n_items/n_clients.  Negative when items outnumber clients; the
    value is reported as computed."""
    if n_clients < 1:
        raise ConfigurationError(f"n_clients must be >= 1, got {n_clients}")
    return 1 - n_items / n_clients


@dataclass
class WorkloadSpec:
    design: str
    n_clients: int = 8
    n_items: int = 4
    ops_per_client: int = 1000
    shared_fraction: float = 0.5
    rng_seed: int = 1
    transport: str = TRANSPORT_INPROC
    backoff: float = 0.0
    per_message_cost: float | None = None  # None -> the design's default
    max_retries: int | None = None
    worker_limit: int = 4

    def validate(self) -> None:
        if self.design not in DESIGNS:
            raise ConfigurationError(f"unknown design {self.design!r}")
        if self.transport not in TRANSPORTS:
            raise ConfigurationError(f"unknown transport {self.transport!r}")
        if self.n_clients < 1 or self.n_items < 1 or self.ops_per_client < 1:
            raise ConfigurationError("n_clients, n_items and ops_per_client must be >= 1")
        if not 0 <= self.shared_fraction <= 1:
            raise ConfigurationError(
                f"shared_fraction must be in [0, 1], got {self.shared_fraction}"
            )
        if not 0 <= self.backoff <= MAX_DURATION_S:  # false for nan too
            raise ConfigurationError(f"backoff must be in [0, {MAX_DURATION_S:g}] s")
        if self.per_message_cost is not None and not 0 <= self.per_message_cost <= MAX_DURATION_S:
            raise ConfigurationError(f"per_message_cost must be in [0, {MAX_DURATION_S:g}] s")
        if self.max_retries is not None and self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0 or None")
        if not 1 <= self.worker_limit <= MAX_CLIENTS:
            raise ConfigurationError(f"worker_limit must be in [1, {MAX_CLIENTS}]")
        if self.n_clients > MAX_CLIENTS:  # the shared count must stay clear of the owner half
            raise ConfigurationError(f"{self.n_clients} clients exceeds the supported maximum of {MAX_CLIENTS}")

    def effective_message_cost(self) -> float:
        if self.per_message_cost is not None:
            return self.per_message_cost
        return DEFAULT_MESSAGE_COSTS.get(self.design, 0.0)


@dataclass
class RunResult:
    total_locks_granted: int
    elapsed: float
    throughput: float


def client_op_stream(spec: WorkloadSpec, client_index: int) -> list[tuple[int, bool]]:
    """The deterministic (item, shared?) sequence for one client.

    Each item is drawn as `randrange(n_items)` draws it, value for value:
    k-bit draws, redrawn while out of range, without its per-call checks.
    """
    rng = random.Random(f"{spec.rng_seed}:{client_index}")
    getrandbits, draw = rng.getrandbits, rng.random
    n_items, shared_fraction = spec.n_items, spec.shared_fraction
    k = n_items.bit_length()
    ops = []
    for _ in range(spec.ops_per_client):
        item = getrandbits(k)
        while item >= n_items:
            item = getrandbits(k)
        ops.append((item, draw() < shared_fraction))
    return ops


def _drive(client, ops) -> None:
    """Run the closed loop."""
    for item, shared in ops:
        client.acquire(item, shared)
        client.release(item)


# ---------------------------------------------------------------------------
# Transports: one row each, read by host_design, connect_client and _run_clients.


@functools.cache
def _mp_context():
    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload(["lockbench.bench"])
    return ctx


def _process_workers(n_clients, _recorder):
    ctx = _mp_context()
    return ctx.Barrier(n_clients), ctx.Queue(), ctx.Process, ()


class Transport(NamedTuple):
    host_server: Callable  # LockServer -> the target its clients connect to
    host_fabric: Callable  # () -> (a verb host for the lock table, the target its clients connect to, teardown)
    connect_server: Callable  # target -> a server client's connection
    connect_verbs: Callable  # (target, client ID) -> a verb client's queue pair
    workers: Callable  # (n_clients, recorder) -> (barrier, results, worker class, extra args)
    stop_worker: Callable  # stops a worker still alive at cleanup, before it is joined


# A row calls what it builds through this module's globals when it runs, so
# tests can replace them.
TRANSPORT_ROWS = {
    TRANSPORT_INPROC: Transport(
        host_server=lambda server: server,
        host_fabric=lambda: ((fabric := InprocFabric()), fabric, fabric.close),
        connect_server=lambda server: server.attach_channel(InprocChannel()),
        connect_verbs=lambda fabric, i: fabric.connect(i),
        workers=lambda n, recorder: (threading.Barrier(n), queue.SimpleQueue(), threading.Thread, (recorder,)),
        stop_worker=lambda thread: None,  # a thread cannot be stopped, only joined
    ),
    TRANSPORT_TCP: Transport(
        host_server=lambda server: server.serve_tcp(),
        host_fabric=lambda: ((agent := TcpAgent()), agent.start(), agent.stop),
        connect_server=lambda address: SocketConn(*address),
        connect_verbs=lambda address, i: TcpFabric(*address).connect(i),
        workers=_process_workers,
        stop_worker=lambda process: process.terminate(),
    ),
}
TRANSPORTS = TRANSPORT_ROWS.keys()


class HostedDesign(NamedTuple):
    target: object  # what connect_client connects to; (fabric target, TableHandle) for client-centric
    words: Callable[[], list[int]] | None  # lock words for the quiescence check
    teardown: Callable[[], None]


def host_design(spec: WorkloadSpec, recorder: TraceRecorder | None = None) -> HostedDesign:
    """Host the passive side of `spec`'s design on its transport's row.

    A server design gets a LockServer on its design's cost, which the row
    serves; the client-centric design registers its lock table, one word
    per item, on the row's verb host, and its target carries the handle.
    """
    row = TRANSPORT_ROWS[spec.transport]
    if spec.design != DESIGN_CLIENT_CENTRIC:
        config = ServerConfig(
            spec.n_items, per_message_cost=spec.effective_message_cost(), worker_limit=spec.worker_limit
        )
        server = LockServer(config, recorder)
        return HostedDesign(row.host_server(server), None, server.shutdown)
    fabric, target, teardown = row.host_fabric()
    region = fabric.register_region(spec.n_items * WORD_SIZE)
    handle = TableHandle(region.region_id, spec.n_items)
    return HostedDesign(
        (target, handle), lambda: [region.snapshot_word(i) for i in range(handle.item_count)], teardown
    )


def connect_client(spec: WorkloadSpec, client_index: int, target, recorder):
    """Client `client_index` of `spec`'s design, connected to a
    `host_design` target through its transport's row."""
    row = TRANSPORT_ROWS[spec.transport]
    if spec.design != DESIGN_CLIENT_CENTRIC:
        return ServerLockClient(row.connect_server(target), client_index, recorder)
    fabric_target, handle = target
    return ClientSession(
        row.connect_verbs(fabric_target, client_index),
        handle,
        client_index,
        backoff=spec.backoff,
        max_retries=spec.max_retries,
        recorder=recorder,
    )


# ---------------------------------------------------------------------------
# Clients: one worker each, of the kind the transport's row chooses.

# How long a client that has ended may take to deliver a report in flight.
_REPORT_GRACE_S = 1.0


def _client_worker(spec, i, target, barrier, results, recorder=None):
    """Run client `i` from connect to close, then put `(i, events, error)` on
    `results`.  A client process (no `recorder`) records and ships its own
    trace, as plain tuples, which pickle faster.  A failure breaks the
    barrier, so no client waits there for this one."""
    own_trace = recorder is None
    recorder = TraceRecorder() if own_trace else recorder
    try:
        client = connect_client(spec, i, target, recorder)
        try:
            ops = client_op_stream(spec, i)
            barrier.wait()
            _drive(client, ops)
        finally:
            client.close()  # before the trace ships: lockperf's client spans dump on close
    except Exception as exc:
        barrier.abort()
        results.put((i, [], f"{type(exc).__name__}: {exc}"))
    else:
        events = list(map(tuple, recorder.sorted_events())) if own_trace else []
        results.put((i, events, None))


def _run_clients(spec: WorkloadSpec, hosted: HostedDesign, recorder: TraceRecorder) -> None:
    """Run every client to its end; client process i's events go into
    `recorder` under source i.  Raises RuntimeError naming every client's
    error once all have reported, or naming exit codes once a client has
    ended without a report.  No client process outlives it."""
    row = TRANSPORT_ROWS[spec.transport]
    barrier, results, make, extra = row.workers(spec.n_clients, recorder)
    args = (hosted.target, barrier, results, *extra)
    workers = {
        i: make(target=_client_worker, args=(spec, i, *args), name=f"bench-client-{i}", daemon=True)
        for i in range(1, spec.n_clients + 1)
    }
    errors, pending, ended = {}, set(workers), set()
    try:
        for worker in workers.values():
            worker.start()
        while pending:
            try:
                i, events, error = results.get(timeout=_REPORT_GRACE_S)
            except queue.Empty:
                # Seen ended at two empty polls in a row: no report is coming.
                silent = {i for i in pending if not workers[i].is_alive()}
                if silent & ended:
                    codes = {i: getattr(workers[i], "exitcode", None) for i in sorted(silent)}
                    raise RuntimeError(f"clients ended without a result (exit codes: {codes})") from None
                ended = silent
                continue
            pending.discard(i)
            if error is not None:
                errors[i] = error
            recorder.extend(i, [tuple.__new__(TraceEvent, t) for t in events])  # a failed client ships none
        if errors:
            raise RuntimeError("; ".join(f"client {i}: {errors[i]}" for i in sorted(errors)))
    finally:
        for worker in workers.values():
            if worker.is_alive():
                row.stop_worker(worker)
                worker.join()


# ---------------------------------------------------------------------------


def _finish(spec, events, words):
    """Check the sorted trace, then report its GRANT count and its first-to-last stamp span."""
    violations = check_all(events, spec.design)
    if words is not None:
        violations.extend(
            Violation(CONSERVATION, f"lock word {item} nonzero at shutdown: {word:#x}")
            for item, word in enumerate(words)
            if word != 0
        )
    total = spec.n_clients * spec.ops_per_client
    grants = countOf(map(itemgetter(5), events), OUT_GRANT)  # recorders stamp GRANT only on ACQ
    if grants != total:
        violations.append(Violation(CONSERVATION, f"trace has {grants} grants for {total} operations"))
    if violations:
        raise RunCheckError(violations)
    elapsed = max(events[-1].timestamp_ns - events[0].timestamp_ns, 1) / 1e9
    return RunResult(total, elapsed, total / elapsed), events


def run_workload(spec: WorkloadSpec) -> tuple[RunResult, list[TraceEvent]]:
    """Run one workload; returns (metrics, full sorted trace).

    Raises RunCheckError if the trace fails any applicable check — a run
    never reports throughput from an unverified trace.
    """
    spec.validate()
    recorder = TraceRecorder()
    hosted = host_design(spec, recorder)
    try:
        _run_clients(spec, hosted, recorder)
        words = hosted.words() if hosted.words is not None else None
        return _finish(spec, recorder.sorted_events(), words)
    finally:
        hosted.teardown()


# ---------------------------------------------------------------------------
# Sweeps and CSV.


def result_row(spec: WorkloadSpec, result: RunResult | None) -> dict:
    """One CSV row, keyed by CSV_COLUMNS; a failed run (`result` None)
    leaves the metric columns empty."""
    rate = f"{contention_rate(spec.n_items, spec.n_clients):.6g}" if spec.n_clients > 0 else ""
    metrics = ("", "", "") if result is None else (
        result.total_locks_granted, f"{result.elapsed:.6f}", f"{result.throughput:.2f}"
    )
    values = (spec.design, spec.transport, spec.n_clients, spec.n_items, rate,
              f"{spec.shared_fraction:.6g}", *metrics, spec.rng_seed)
    return dict(zip(CSV_COLUMNS, values, strict=True))


def _sweep(specs, errors_out: list | None) -> list[dict]:
    rows = []
    for spec in specs:
        try:
            result, _ = run_workload(spec)
        except Exception as exc:
            if errors_out is not None:
                errors_out.append((spec, exc))
            result = None
        rows.append(result_row(spec, result))
    return rows


def sweep_clients(base: WorkloadSpec, client_counts, errors_out: list | None = None) -> list[dict]:
    """One run per client count at fixed n_items; failed points produce a
    row with empty metric columns and the sweep continues."""
    if not client_counts:
        raise ConfigurationError("client_counts must be nonempty")
    return _sweep((replace(base, n_clients=n) for n in client_counts), errors_out)


def sweep_contention(base: WorkloadSpec, item_counts, errors_out: list | None = None) -> list[dict]:
    """One run per item count at fixed n_clients; each row carries the
    computed contention rate."""
    if not item_counts:
        raise ConfigurationError("item_counts must be nonempty")
    return _sweep((replace(base, n_items=n) for n in item_counts), errors_out)


def write_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
