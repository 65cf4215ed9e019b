"""Bench harness: determinism, metrics, checker gating, sweeps, CSV."""

import csv
import multiprocessing
import os
import pickle
import random
import signal
import threading
import time
from collections import Counter

import pytest

from lockbench import bench, framing
from lockbench.bench import (
    CSV_COLUMNS,
    TRANSPORT_INPROC,
    TRANSPORT_TCP,
    WorkloadSpec,
    client_op_stream,
    connect_client,
    contention_rate,
    host_design,
    result_row,
    run_workload,
    sweep_clients,
    sweep_contention,
    write_csv,
)
from lockbench.checker import (
    DESIGN_CLIENT_CENTRIC,
    DESIGN_SERVER_SR,
    DESIGN_SERVER_TCP,
    DESIGNS,
)
from lockbench.cli import main
from lockbench.errors import ConfigurationError, RunCheckError
from lockbench.server_lm import (
    DEFAULT_SR_MESSAGE_COST,
    DEFAULT_TCP_MESSAGE_COST,
    FRONTEND_SEND_RECV,
    FRONTEND_TCP,
    ServerLockClient,
    SocketConn,
)
from lockbench.framing import recv_frame, send_frame
from lockbench.locktable import MAX_CLIENTS, TableHandle
from lockbench.tcp_transport import CLOSE_WAIT_S, HELLO
from lockbench.trace import TraceRecorder

from helpers import start_call

FAST = dict(n_clients=3, n_items=2, ops_per_client=30, per_message_cost=0.0)


def test_contention_rate_formula():
    assert contention_rate(16, 16) == 0
    assert contention_rate(2, 16) == 0.875
    assert contention_rate(32, 16) == -1  # negative is reported as computed
    with pytest.raises(ConfigurationError):
        contention_rate(4, 0)


def test_op_stream_is_deterministic_per_client_and_seed():
    spec = WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, n_items=4, ops_per_client=50)
    again = client_op_stream(spec, 1)
    assert client_op_stream(spec, 1) == again
    assert client_op_stream(spec, 2) != again


@pytest.mark.parametrize("n_items", [1, 2, 3, 63, 64, 65, 1000, (1 << 20) + 1])
@pytest.mark.parametrize("shared_fraction", [0.0, 0.3, 0.5, 1.0])
def test_op_stream_draws_as_randrange_would(n_items, shared_fraction):
    # A seed replays the runs recorded while items came from `randrange`:
    # every item is the value it returns from the same generator state.
    for seed, client_index in ((1, 0), (1, 1), (7, 3), (2325, 1)):
        spec = WorkloadSpec(
            design=DESIGN_CLIENT_CENTRIC,
            n_items=n_items,
            ops_per_client=400,
            shared_fraction=shared_fraction,
            rng_seed=seed,
        )
        rng = random.Random(f"{seed}:{client_index}")
        expected = [
            (rng.randrange(n_items), rng.random() < shared_fraction) for _ in range(400)
        ]
        assert client_op_stream(spec, client_index) == expected


def test_op_stream_respects_item_range_and_mix():
    spec = WorkloadSpec(
        design=DESIGN_CLIENT_CENTRIC, n_items=3, ops_per_client=500, shared_fraction=1.0
    )
    stream = client_op_stream(spec, 1)
    assert {item for item, _ in stream} <= {0, 1, 2}
    assert all(shared for _, shared in stream)
    spec_excl = WorkloadSpec(
        design=DESIGN_CLIENT_CENTRIC, n_items=3, ops_per_client=500, shared_fraction=0.0
    )
    assert not any(shared for _, shared in client_op_stream(spec_excl, 1))


@pytest.mark.parametrize("field,value", [
    ("design", "quorum"),
    ("transport", "pigeon"),
    ("n_clients", 0),
    ("n_clients", MAX_CLIENTS + 1),  # the shared count would near the owner half
    ("n_items", 0),
    ("ops_per_client", 0),
    ("shared_fraction", 1.5),
    ("backoff", -1.0),
    ("backoff", float("nan")),
    ("backoff", float("inf")),
    ("backoff", 1e10),
    ("per_message_cost", -1e-6),
    ("per_message_cost", float("nan")),
    ("per_message_cost", float("inf")),
    ("per_message_cost", 1e308),
    ("max_retries", -1),
    ("worker_limit", 0),
])
def test_spec_validation_rejects_bad_fields(field, value):
    spec = WorkloadSpec(design=DESIGN_CLIENT_CENTRIC)
    setattr(spec, field, value)
    with pytest.raises(ConfigurationError):
        spec.validate()


def test_spec_validation_accepts_the_client_cap():
    WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, n_clients=MAX_CLIENTS).validate()


def test_effective_message_cost_defaults():
    assert WorkloadSpec(design=DESIGN_SERVER_TCP).effective_message_cost() == 20e-6
    assert WorkloadSpec(design=DESIGN_SERVER_SR).effective_message_cost() == 2e-6
    assert WorkloadSpec(
        design=DESIGN_SERVER_TCP, per_message_cost=5e-6
    ).effective_message_cost() == 5e-6


# One run per design on each row of the transport table; the in-process
# runs keep their design-only ids.
each_design_and_transport = pytest.mark.parametrize(
    "design,transport",
    [(d, t) for t in bench.TRANSPORTS for d in DESIGNS],
    ids=[d if t == TRANSPORT_INPROC else f"{d}-{t}" for t in bench.TRANSPORTS for d in DESIGNS],
)


@each_design_and_transport
def test_small_run_produces_consistent_metrics(design, transport):
    spec = WorkloadSpec(design=design, transport=transport, **FAST)
    result, events = run_workload(spec)
    expected = spec.n_clients * spec.ops_per_client
    assert result.total_locks_granted == expected
    assert result.throughput == pytest.approx(expected / result.elapsed)
    # Every client completed its whole stream: one GRANT per op each.
    grants = Counter(e.client_id for e in events if e.op == "ACQ" and e.outcome == "GRANT")
    assert grants == {i: spec.ops_per_client for i in range(1, spec.n_clients + 1)}


@each_design_and_transport
def test_lock_count_and_span_come_from_the_checked_trace(design, transport):
    spec = WorkloadSpec(design=design, transport=transport, **FAST)
    result, events = run_workload(spec)
    grants = sum(e.op == "ACQ" and e.outcome == "GRANT" for e in events)
    assert result.total_locks_granted == spec.n_clients * spec.ops_per_client == grants
    assert result.elapsed == max(events[-1].timestamp_ns - events[0].timestamp_ns, 1) / 1e9


def test_a_new_transport_is_one_more_row(monkeypatch, capsys):
    # A third row, built from the in-process row's parts, each counted:
    # every design runs checker-clean through it, from the CLI too, with
    # no edit to host_design, connect_client or _run_clients.
    used = Counter()

    def counted(name, part):
        def call(*args):
            used[name] += 1
            return part(*args)

        return call

    inproc = bench.TRANSPORT_ROWS[TRANSPORT_INPROC]
    row = bench.Transport(*(counted(name, part) for name, part in zip(bench.Transport._fields, inproc)))
    monkeypatch.setitem(bench.TRANSPORT_ROWS, "loopback", row)
    assert "loopback" in bench.TRANSPORTS
    for design in DESIGNS:
        spec = WorkloadSpec(design=design, transport="loopback", **FAST)
        result, _ = run_workload(spec)
        assert result.total_locks_granted == spec.n_clients * spec.ops_per_client
    # stop_worker runs only for a worker still alive at cleanup.
    assert set(bench.Transport._fields) - {"stop_worker"} <= set(used)
    assert used["workers"] == len(DESIGNS)
    argv = ["bench", "--design", DESIGN_CLIENT_CENTRIC, "--transport", "loopback", "--ops", "5"]
    assert main(argv) == 0
    assert "client-centric on loopback" in capsys.readouterr().out


def test_a_row_has_six_parts_and_a_hosted_design_three():
    assert bench.Transport._fields == (
        "host_server", "host_fabric", "connect_server", "connect_verbs", "workers", "stop_worker"
    )
    assert bench.HostedDesign._fields == ("target", "words", "teardown")


def test_a_tcp_client_centric_target_pickles_and_carries_the_table_handle():
    spec = WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, transport=TRANSPORT_TCP, n_items=3)
    hosted = host_design(spec)
    try:
        target = pickle.loads(pickle.dumps(hosted.target))
        (host, port), handle = target
        assert target == hosted.target and isinstance(host, str) and isinstance(port, int)
        assert isinstance(handle, TableHandle) and handle.item_count == 3
        client = connect_client(spec, 1, target, None)
        try:
            client.acquire(2, shared=False)
            assert hosted.words()[2] != 0  # the handle addresses the hosted table
            client.release(2)
        finally:
            client.close()
        assert hosted.words() == [0, 0, 0]
    finally:
        hosted.teardown()


def test_client_process_events_go_under_their_own_source():
    spec = WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, transport=TRANSPORT_TCP, **FAST)
    recorder = TraceRecorder()
    hosted = host_design(spec, recorder)
    try:
        bench._run_clients(spec, hosted, recorder)
    finally:
        hosted.teardown()
    assert sorted(recorder._buffers) == [1, 2, 3]
    for source, events in recorder._buffers.items():
        assert {e.client_id for e in events} == {source}
        assert len(events) == 4 * spec.ops_per_client


@pytest.mark.parametrize("design", [DESIGN_SERVER_TCP, DESIGN_SERVER_SR])
def test_inproc_server_designs_start_no_thread(design):
    # In process, both server designs dispatch on the client's own thread.
    spec = WorkloadSpec(design=design, **FAST)
    before = threading.active_count()
    hosted = host_design(spec)
    try:
        clients = [connect_client(spec, i, hosted.target, None) for i in (1, 2, 3)]
        for client in clients:
            client.acquire(0, shared=True)
            client.release(0)
        assert threading.active_count() == before
    finally:
        hosted.teardown()


@pytest.mark.parametrize(
    "design,frontend,cost",
    [
        (DESIGN_SERVER_TCP, FRONTEND_TCP, DEFAULT_TCP_MESSAGE_COST),
        (DESIGN_SERVER_SR, FRONTEND_SEND_RECV, DEFAULT_SR_MESSAGE_COST),
    ],
    ids=[DESIGN_SERVER_TCP, DESIGN_SERVER_SR],
)
def test_tcp_server_designs_share_the_socket_path(monkeypatch, design, frontend, cost):
    # Over TCP both server designs are the LockServer's framed socket;
    # only the frontend's modeled cost tells them apart.
    def no_agent(*args, **kwargs):
        raise AssertionError("a server design built a TcpAgent")

    configs = []
    real_server = bench.LockServer

    def recording_server(config, recorder=None):
        configs.append(config)
        return real_server(config, recorder)

    monkeypatch.setattr(bench, "TcpAgent", no_agent)
    monkeypatch.setattr(bench, "LockServer", recording_server)
    spec = WorkloadSpec(design=design, transport=TRANSPORT_TCP, n_items=2)
    hosted = host_design(spec)
    try:
        host, port = hosted.target
        assert isinstance(host, str) and isinstance(port, int)
        client = connect_client(spec, 1, hosted.target, None)
        assert isinstance(client, ServerLockClient) and isinstance(client.conn, SocketConn)
        client.acquire(1, shared=False)
        client.release(1)
        client.close()
    finally:
        hosted.teardown()
    assert [(c.frontend, c.per_message_cost) for c in configs] == [(frontend, cost)]


def test_trace_is_sorted_and_complete():
    spec = WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, **FAST)
    _, events = run_workload(spec)
    assert events == sorted(events)
    # Closed loop, no timeouts: REQ/GRANT/REL-REQ/REL-ACK per op.
    assert len(events) == 4 * spec.n_clients * spec.ops_per_client


def test_corrupted_trace_fails_the_run(monkeypatch):
    # Make every client-centric grant vanish from the trace: conservation
    # and the grants-vs-total cross-check must both fire.
    from lockbench import trace

    real_stamper = trace.TraceRecorder.stamper

    def dropping_stamper(self, source):
        append = real_stamper(self, source)

        def stamp(event):
            if event.outcome != "GRANT":
                append(event)

        return stamp

    monkeypatch.setattr(trace.TraceRecorder, "stamper", dropping_stamper)
    with pytest.raises(RunCheckError) as exc_info:
        run_workload(WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, **FAST))
    assert exc_info.value.violations


def test_unbalanced_release_is_caught_at_quiescence(monkeypatch):
    # A client that silently skips its very last release leaves the lock
    # word nonzero; the quiescence scan must flag it.  One client only:
    # a peer blocked on the leaked lock would never finish the run.
    from lockbench import bench, framing

    real_drive = bench._drive

    def leaky_drive(client, ops):
        real_drive(client, ops[:-1])
        client.acquire(*ops[-1])

    monkeypatch.setattr(bench, "_drive", leaky_drive)
    with pytest.raises(RunCheckError):
        run_workload(WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, **dict(FAST, n_clients=1)))


def test_a_server_that_breaks_fifo_fails_the_run(monkeypatch):
    # A mutant admission rule: when the real one admits nothing and no
    # EXCLUSIVE is held, admit the first SHARED request queued behind an
    # EXCLUSIVE one.  Safe, so only the FIFO replay can catch it.
    from lockbench import server_lm
    from lockbench.checker import FIFO_VIOLATION
    from lockbench.trace import MODE_EXCLUSIVE, MODE_SHARED

    real_scan = server_lm.grant_scan

    def jumping_scan(item_queue):
        newly = real_scan(item_queue)
        if newly or MODE_EXCLUSIVE in item_queue.granted.values():
            return newly
        for req in item_queue.pending:
            if req.mode == MODE_SHARED:
                item_queue.pending.remove(req)
                item_queue.granted[req.client_id] = MODE_SHARED
                return [req]
        return []

    monkeypatch.setattr(server_lm, "grant_scan", jumping_scan)
    spec = WorkloadSpec(design=DESIGN_SERVER_SR, n_clients=8, n_items=1, ops_per_client=500)
    with pytest.raises(RunCheckError) as exc_info:
        run_workload(spec)
    assert FIFO_VIOLATION in {v.kind for v in exc_info.value.violations}


def test_inproc_client_that_fails_to_connect_ends_the_run(monkeypatch):
    # Client 1 waits at the barrier; client 2's failure must break it.
    real_connect = bench.connect_client

    def flaky_connect(spec, i, *args):
        if i == 2:
            raise ConnectionError("refused")
        return real_connect(spec, i, *args)

    monkeypatch.setattr(bench, "connect_client", flaky_connect)
    spec = WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, **dict(FAST, n_clients=2))
    exc = start_call(run_workload, spec)(5)
    assert isinstance(exc, RuntimeError)
    assert "client 2: ConnectionError: refused" in str(exc)


def test_tcp_client_whose_handshake_fails_ends_the_run():
    # A stub agent says hello to the first client and hangs up on the
    # second, whose connect then fails before the barrier.
    listener = framing.listen("127.0.0.1", 0)

    def stub():
        first, _ = listener.accept()
        (client_id,) = HELLO.unpack(recv_frame(first))
        send_frame(first, HELLO.pack(client_id))
        second, _ = listener.accept()
        recv_frame(second)
        framing.close(second)
        recv_frame(first)  # returns at the first client's close
        framing.close(first)

    threading.Thread(target=stub, daemon=True).start()
    spec = WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, transport=TRANSPORT_TCP, n_clients=2)
    hosted = bench.HostedDesign((listener.getsockname(), TableHandle(1, spec.n_items)), None, listener.close)
    try:
        exc = start_call(bench._run_clients, spec, hosted, TraceRecorder())(10)
    finally:
        listener.close()
    assert isinstance(exc, RuntimeError)
    assert "handshake failed" in str(exc)
    assert multiprocessing.active_children() == []


def test_tcp_client_whose_agent_never_closes_ends_the_run():
    # As above, but the stub keeps the first client's socket open after
    # that client's half-close: its close must give up on the agent's EOF.
    listener = framing.listen("127.0.0.1", 0)
    held = []

    def stub():
        first, _ = listener.accept()
        held.append(first)
        (client_id,) = HELLO.unpack(recv_frame(first))
        send_frame(first, HELLO.pack(client_id))
        second, _ = listener.accept()
        recv_frame(second)
        framing.close(second)

    threading.Thread(target=stub, daemon=True).start()
    spec = WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, transport=TRANSPORT_TCP, n_clients=2)
    hosted = bench.HostedDesign((listener.getsockname(), TableHandle(1, spec.n_items)), None, listener.close)
    try:
        exc = start_call(bench._run_clients, spec, hosted, TraceRecorder())(CLOSE_WAIT_S + 5)
    finally:
        for sock in held:
            framing.close(sock)
        listener.close()
    assert isinstance(exc, RuntimeError)
    assert "handshake failed" in str(exc)
    assert multiprocessing.active_children() == []


def test_killed_tcp_client_process_ends_the_run():
    # At 1 ms per message the run would take minutes; killing one client
    # process must end it within seconds and leave no client behind.
    spec = WorkloadSpec(
        design=DESIGN_SERVER_TCP,
        transport=TRANSPORT_TCP,
        n_clients=2,
        n_items=2,
        ops_per_client=50_000,
        per_message_cost=1e-3,
    )
    raised = start_call(run_workload, spec)
    deadline = time.monotonic() + 10
    while len(children := multiprocessing.active_children()) < 2:
        assert time.monotonic() < deadline, "client processes did not start"
        time.sleep(0.01)
    time.sleep(1)  # both clients connect and start locking
    os.kill(children[0].pid, signal.SIGKILL)
    exc = raised(10)
    assert isinstance(exc, RuntimeError)
    assert "-9" in str(exc)
    assert multiprocessing.active_children() == []


def test_result_row_round_trips_through_csv(tmp_path):
    spec = WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, **FAST)
    result, _ = run_workload(spec)
    row = result_row(spec, result)
    assert list(row) == CSV_COLUMNS
    path = tmp_path / "out.csv"
    write_csv(path, [row])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["design"] == DESIGN_CLIENT_CENTRIC
    assert rows[0]["n_clients"] == "3"
    assert float(rows[0]["throughput_lps"]) == pytest.approx(result.throughput, rel=1e-4)


def test_sweep_clients_runs_each_count():
    base = WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, **FAST)
    rows = sweep_clients(base, [1, 2])
    assert [r["n_clients"] for r in rows] == [1, 2]
    assert all(r["total_locks"] for r in rows)


def test_sweep_contention_reports_rates():
    base = WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, **FAST)
    rows = sweep_contention(base, [3, 1])
    assert [r["n_items"] for r in rows] == [3, 1]
    assert [r["contention_rate"] for r in rows] == ["0", "0.666667"]


def test_sweep_marks_failed_points_and_continues():
    # n_items = 0 fails validation; the sweep must keep going.
    base = WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, **FAST)
    errors = []
    rows = sweep_contention(base, [2, 0, 1], errors_out=errors)
    assert len(rows) == 3
    assert rows[0]["total_locks"] and rows[2]["total_locks"]
    assert rows[1]["total_locks"] == "" and rows[1]["throughput_lps"] == ""
    assert len(errors) == 1 and errors[0][0].n_items == 0


def test_sweep_marks_a_point_with_no_clients_failed_and_continues():
    base = WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, **FAST)
    errors = []
    rows = sweep_clients(base, [0, 2], errors_out=errors)
    assert len(rows) == 2 and len(errors) == 1 and errors[0][0].n_clients == 0
    assert rows[0]["contention_rate"] == "" and rows[0]["total_locks"] == ""
    assert rows[1]["contention_rate"] == "0" and rows[1]["total_locks"]


def test_sweeps_reject_empty_count_lists():
    base = WorkloadSpec(design=DESIGN_CLIENT_CENTRIC, **FAST)
    with pytest.raises(ConfigurationError):
        sweep_clients(base, [])
    with pytest.raises(ConfigurationError):
        sweep_contention(base, [])


def test_worker_limit_bounds_server_concurrency_cost():
    # Sanity rather than a benchmark: the run completes and respects the
    # cost knob end to end.
    spec = WorkloadSpec(
        design=DESIGN_SERVER_TCP,
        n_clients=2,
        n_items=2,
        ops_per_client=20,
        per_message_cost=1e-5,
        worker_limit=1,
    )
    result, _ = run_workload(spec)
    # 2 messages per lock, each burning >= 10 us on one worker slot.
    assert result.elapsed >= 40 * 2 * 1e-5
