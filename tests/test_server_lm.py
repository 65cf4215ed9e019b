"""Server-centric manager: admission rule, core state, frontends, cost model."""

import random
import socket
import struct
import sys
import threading
import time

import pytest

from lockbench.errors import ProtocolError
from lockbench.framing import recv_frame, send_frame
from lockbench.locktable import MAX_CLIENTS
from lockbench.server_lm import (
    DEFAULT_SR_MESSAGE_COST,
    DEFAULT_TCP_MESSAGE_COST,
    FRONTEND_SEND_RECV,
    FRONTEND_TCP,
    MESSAGE,
    MESSAGE_SIZE,
    MSG_ACQ_EXCL,
    MSG_ACQ_SHARED,
    MSG_ACK,
    MSG_ERROR,
    MSG_GRANT,
    MSG_RELEASE,
    InprocChannel,
    ItemQueue,
    LockRequest,
    LockServer,
    LockServerCore,
    MessageCostModel,
    QpConn,
    ServerConfig,
    ServerLockClient,
    SocketConn,
    grant_scan,
)
from lockbench.server_lm import upper_bound_throughput
from lockbench.tcp_transport import TcpAgent, TcpFabric
from lockbench.trace import MODE_EXCLUSIVE, MODE_SHARED, OP_ACQ, OUT_REQ, TraceEvent, TraceRecorder
from lockbench.verbs import CompletionStatus, InprocFabric

from helpers import start_call


def _req(client_id, mode, item=0, request_id=None):
    return LockRequest(request_id or client_id, client_id, item, mode)


def _queue(*modes, granted=()):
    q = ItemQueue()
    q.pending.extend(_req(i + 1, mode) for i, mode in enumerate(modes))
    q.granted.update({100 + i: mode for i, mode in enumerate(granted)})
    return q


# -- grant_scan: the admission rule in isolation -------------------------


def test_scan_grants_single_exclusive_head():
    q = _queue(MODE_EXCLUSIVE, MODE_SHARED)
    granted = grant_scan(q)
    assert [r.mode for r in granted] == [MODE_EXCLUSIVE]
    assert len(q.pending) == 1  # the SHARED behind it stays queued


def test_scan_batches_consecutive_shared_prefix():
    q = _queue(MODE_SHARED, MODE_SHARED, MODE_EXCLUSIVE, MODE_SHARED)
    granted = grant_scan(q)
    assert [r.mode for r in granted] == [MODE_SHARED, MODE_SHARED]
    # The SHARED behind the EXCLUSIVE must not jump the queue.
    assert [r.mode for r in q.pending] == [MODE_EXCLUSIVE, MODE_SHARED]


def test_scan_blocks_exclusive_head_behind_active_shared():
    q = _queue(MODE_EXCLUSIVE, MODE_SHARED, granted=(MODE_SHARED,))
    assert grant_scan(q) == []
    assert len(q.pending) == 2


def test_scan_admits_shared_alongside_active_shared():
    q = _queue(MODE_SHARED, granted=(MODE_SHARED,))
    assert [r.mode for r in grant_scan(q)] == [MODE_SHARED]


def test_scan_admits_nothing_while_exclusive_active():
    q = _queue(MODE_SHARED, MODE_EXCLUSIVE, granted=(MODE_EXCLUSIVE,))
    assert grant_scan(q) == []


def test_scan_empty_queue():
    assert grant_scan(ItemQueue()) == []


# -- LockServerCore -------------------------------------------------------


def test_core_grants_uncontended_exclusive_immediately():
    core = LockServerCore(2)
    error, seq = core.acquire(1, 0, shared=False, request_id=1)
    assert error is None
    assert seq == 2  # granted in the reply: REQ 1, GRANT 2
    assert core.granted_count() == 1 and core.pending_count() == 0


def test_core_queues_conflicting_exclusive():
    core = LockServerCore(1)
    core.acquire(1, 0, shared=False, request_id=1)
    error, seq = core.acquire(2, 0, shared=False, request_id=1)
    assert error is None and seq is None
    assert core.pending_count() == 1


def test_core_release_triggers_follow_on_grants():
    core = LockServerCore(1)
    core.acquire(1, 0, shared=False, request_id=1)
    core.acquire(2, 0, shared=True, request_id=1)
    core.acquire(3, 0, shared=True, request_id=1)
    error, grants, _ = core.release(1, 0)
    assert error is None
    assert sorted(g.client_id for g in grants) == [2, 3]
    assert core.granted_count() == 2


def test_core_rejects_duplicate_acquire():
    core = LockServerCore(1)
    core.acquire(1, 0, shared=True, request_id=1)
    error, _ = core.acquire(1, 0, shared=True, request_id=2)
    assert error is not None


def test_core_rejects_release_without_hold():
    core = LockServerCore(1)
    error, _, _ = core.release(5, 0)
    assert error is not None


def test_core_rejects_unknown_item():
    core = LockServerCore(2)
    assert core.acquire(1, 9, shared=True, request_id=1)[0] is not None
    assert core.release(1, -1)[0] is not None


def test_core_records_requests_in_arrival_order():
    rec = TraceRecorder()
    core = LockServerCore(1, rec)
    core.acquire(1, 0, shared=False, request_id=1)
    core.acquire(2, 0, shared=True, request_id=1)
    reqs = [e for e in rec.sorted_events() if e.outcome == "REQ"]
    assert [e.client_id for e in reqs] == [1, 2]


def test_core_sequences_each_items_requests_grants_and_releases():
    rec = TraceRecorder()
    core = LockServerCore(2, rec)
    assert core.acquire(1, 0, shared=False, request_id=1) == (None, 2)  # REQ 1, grant 2
    assert core.acquire(2, 0, shared=True, request_id=1) == (None, None)  # REQ 3, queued
    assert core.acquire(3, 0, shared=True, request_id=1) == (None, None)  # REQ 4, queued
    assert core.acquire(1, 1, shared=True, request_id=2) == (None, 2)  # item 1 counts apart
    _, grants, seq = core.release(1, 0)
    assert seq == 5
    assert [(g.client_id, g.seq) for g in grants] == [(2, 6), (3, 7)]
    assert [(e.client_id, e.item_id, e.seq) for e in rec.sorted_events()] == [
        (1, 0, 1), (2, 0, 3), (3, 0, 4), (1, 1, 1)
    ]


class _ListRecorder:
    """Keeps the events stamped through it in stamping order."""

    def __init__(self):
        self.events = []

    def stamper(self, source):
        return self.events.append


class _ScanEveryAcquire(LockServerCore):
    """The reference core: every acquire joins the queue and `grant_scan`
    decides it.  That scan must grant nothing but the caller."""

    def acquire(self, client_id, item_id, shared, request_id):
        mode = MODE_SHARED if shared else MODE_EXCLUSIVE
        item = self._items[item_id]
        with item.mutex:
            if client_id in item.granted or any(r.client_id == client_id for r in item.pending):
                return f"client {client_id} already acquired item {item_id}", None
            request = LockRequest(request_id, client_id, item_id, mode)
            item.pending.append(request)
            self._stamp(TraceEvent(0, client_id, item_id, OP_ACQ, mode, OUT_REQ, next(item.seqs)))
            grants = grant_scan(item)
        assert grants in ([], [request]), "an acquire's scan freed a waiter"
        return None, request.seq or None


def _state(core):
    return [
        ([(r.client_id, r.request_id, r.mode) for r in item.pending], dict(item.granted))
        for item in core._items
    ]


def _head_waits(item):
    """A queued head is not admissible: some holder is EXCLUSIVE, or the
    head is EXCLUSIVE and the item has a holder."""
    holders = item.granted.values()
    return not item.pending or MODE_EXCLUSIVE in holders or (item.pending[0].mode == MODE_EXCLUSIVE and holders)


@pytest.mark.parametrize("seed", range(12))
def test_the_empty_queue_grant_matches_a_scan_of_every_acquire(seed):
    # Both cores serve one seeded stream of acquires, releases, duplicate
    # acquires and departures; every reply, grant, seq and stamp must agree,
    # and after every operation each queued head must wait, which is why
    # an acquire need not scan.
    rng = random.Random(seed)
    n_clients, n_items = rng.choice((3, 4)), rng.choice((1, 2))
    recorders = [_ListRecorder(), _ListRecorder()]
    cores = [LockServerCore(n_items, recorders[0]), _ScanEveryAcquire(n_items, recorders[1])]
    at_once = queued = 0
    for request_id in range(1, 401):
        client, item = rng.randint(1, n_clients), rng.randrange(n_items)
        roll = rng.random()
        if roll < 0.05:
            kind = "drop"
        elif client in cores[0]._items[item].granted and roll < 0.8:
            kind = "release"
        else:  # a duplicate while the client holds or waits for the item
            kind = "acquire"
        outcomes = []
        for core in cores:
            if kind == "drop":
                outcomes.append(core.drop_client(client))
            elif kind == "release":
                outcomes.append(core.release(client, item))
            else:
                outcomes.append(core.acquire(client, item, roll < 0.5, request_id))
        assert outcomes[0] == outcomes[1]  # grants compare by every field, seq too
        assert _state(cores[0]) == _state(cores[1])
        assert all(_head_waits(q) for core in cores for q in core._items)
        if kind == "acquire" and outcomes[0][0] is None:
            at_once += outcomes[0][1] is not None
            queued += outcomes[0][1] is None
    # REQ stamps match in order, seq and content; only the clock differs.
    assert [e[1:] for e in recorders[0].events] == [e[1:] for e in recorders[1].events]
    assert at_once and queued  # both paths ran


# -- throughput upper bound --------------------------------------------------


def test_upper_bound_examples():
    assert upper_bound_throughput(40, 3e9, 1e4, 1) == 1.2e7
    assert upper_bound_throughput(1, 1, 1, 1) == 1
    assert upper_bound_throughput(40, 3e9, 1e4, 2) == 6e6


def test_upper_bound_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        upper_bound_throughput(0, 3e9, 1e4, 1)
    with pytest.raises(ValueError):
        upper_bound_throughput(40, 3e9, -1, 1)


# -- message codec ---------------------------------------------------------


def test_message_pack_unpack_round_trip():
    data = MESSAGE.pack(2, 7, 3, 123456789, 42)
    assert len(data) == MESSAGE_SIZE
    assert MESSAGE.unpack(data) == (2, 7, 3, 123456789, 42)


# -- cost model -------------------------------------------------------------


def test_cost_model_burns_at_least_the_configured_time():
    model = MessageCostModel(0.002, worker_limit=1)
    t0 = time.perf_counter()
    model.charge()
    assert time.perf_counter() - t0 >= 0.002


def test_cost_model_zero_cost_is_free():
    model = MessageCostModel(0.0, worker_limit=1)
    t0 = time.perf_counter()
    for _ in range(1000):
        model.charge()
    assert time.perf_counter() - t0 < 0.1


def test_cost_model_worker_limit_serializes():
    # Two concurrent charges through one worker slot take at least twice
    # the single-charge time.
    model = MessageCostModel(0.005, worker_limit=1)
    t0 = time.perf_counter()
    t = threading.Thread(target=model.charge)
    t.start()
    model.charge()
    t.join()
    assert time.perf_counter() - t0 >= 0.010


def test_server_config_validation():
    with pytest.raises(ValueError):
        ServerConfig(1, frontend="carrier-pigeon")
    for cost in (-1.0, float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError):
            ServerConfig(1, per_message_cost=cost)
    for limit in (0, MAX_CLIENTS + 1):
        with pytest.raises(ValueError):
            ServerConfig(1, worker_limit=limit)
    assert ServerConfig(1, worker_limit=MAX_CLIENTS).worker_limit == MAX_CLIENTS
    assert DEFAULT_SR_MESSAGE_COST == pytest.approx(DEFAULT_TCP_MESSAGE_COST / 10)


# -- end-to-end over the in-process channel frontend ------------------------


@pytest.fixture
def tcp_style_server():
    server = LockServer(ServerConfig(4, FRONTEND_TCP, per_message_cost=0.0))
    yield server
    server.shutdown()


def _channel_client(server, client_id, recorder=None):
    channel = InprocChannel()
    server.attach_channel(channel)
    return ServerLockClient(channel, client_id, recorder)


def test_acquire_release_round_trip_over_channel(tcp_style_server):
    client = _channel_client(tcp_style_server, 1)
    client.acquire(2, shared=False)
    assert tcp_style_server.core.granted_count() == 1
    client.release(2)
    assert tcp_style_server.core.granted_count() == 0


def test_waiting_client_gets_pushed_grant(tcp_style_server):
    holder = _channel_client(tcp_style_server, 1)
    waiter = _channel_client(tcp_style_server, 2)
    holder.acquire(0, shared=False)
    got = []

    def wait_for_lock():
        waiter.acquire(0, shared=False)
        got.append(time.monotonic())

    t = threading.Thread(target=wait_for_lock)
    t.start()
    time.sleep(0.05)
    assert not got  # still queued behind the holder
    released_at = time.monotonic()
    holder.release(0)
    t.join(timeout=5)
    assert got and got[0] >= released_at


def test_duplicate_acquire_raises_protocol_error(tcp_style_server):
    client = _channel_client(tcp_style_server, 1)
    client.acquire(0, shared=True)
    with pytest.raises(ProtocolError):
        client.acquire(0, shared=True)


def test_release_without_hold_raises_locally(tcp_style_server):
    client = _channel_client(tcp_style_server, 1)
    with pytest.raises(ProtocolError):
        client.release(0)


def test_shutdown_wakes_a_client_waiting_for_a_deferred_grant(tcp_style_server):
    holder = _channel_client(tcp_style_server, 1)
    waiter = _channel_client(tcp_style_server, 2)
    holder.acquire(0, shared=False)
    errors = []

    def wait_for_lock():
        try:
            waiter.acquire(0, shared=False)
        except ConnectionError as exc:
            errors.append(exc)

    t = threading.Thread(target=wait_for_lock)
    t.start()
    deadline = time.monotonic() + 5
    while tcp_style_server.core.pending_count() == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert tcp_style_server.core.pending_count() == 1  # the waiter is queued
    tcp_style_server.shutdown()
    t.join(timeout=5)
    assert not t.is_alive() and len(errors) == 1


def test_after_shutdown_every_inproc_rpc_fails_at_once(tcp_style_server):
    bound = _channel_client(tcp_style_server, 1)
    bound.acquire(0, shared=False)
    unused = tcp_style_server.attach_channel(InprocChannel())
    tcp_style_server.shutdown()
    start = time.monotonic()
    for conn in (bound.conn, unused) * 3:
        with pytest.raises(ConnectionError):
            conn.rpc(MSG_RELEASE, 1, 0, 2)
    assert time.monotonic() - start < 1


def test_shared_holders_coexist_exclusive_waits(tcp_style_server):
    readers = [_channel_client(tcp_style_server, i) for i in (1, 2, 3)]
    for reader in readers:
        reader.acquire(0, shared=True)
    assert tcp_style_server.core.granted_count() == 3
    writer = _channel_client(tcp_style_server, 4)
    done = threading.Event()

    def write():
        writer.acquire(0, shared=False)
        done.set()

    t = threading.Thread(target=write)
    t.start()
    assert not done.wait(0.05)
    for reader in readers:
        reader.release(0)
    assert done.wait(5)
    t.join()


# -- end-to-end over the SEND/RECV frontend ---------------------------------


def test_acquire_release_over_send_recv_frontend():
    fabric = InprocFabric()
    server = LockServer(ServerConfig(2, FRONTEND_SEND_RECV, per_message_cost=0.0))
    server.serve_sr_listener(fabric.sr_listen())
    try:
        client = ServerLockClient(QpConn(fabric.connect(1)), 1)
        client.acquire(1, shared=False)
        client.release(1)
        client.acquire(1, shared=True)
        client.release(1)
        client.close()
    finally:
        server.shutdown()
        fabric.close()


def test_send_recv_frontend_pushes_deferred_grants():
    fabric = InprocFabric()
    server = LockServer(ServerConfig(1, FRONTEND_SEND_RECV, per_message_cost=0.0))
    server.serve_sr_listener(fabric.sr_listen())
    try:
        holder = ServerLockClient(QpConn(fabric.connect(1)), 1)
        waiter = ServerLockClient(QpConn(fabric.connect(2)), 2)
        holder.acquire(0, shared=False)
        granted = threading.Event()

        def wait_for_lock():
            waiter.acquire(0, shared=False)
            granted.set()

        t = threading.Thread(target=wait_for_lock)
        t.start()
        assert not granted.wait(0.05)
        holder.release(0)
        assert granted.wait(5)
        t.join()
    finally:
        server.shutdown()
        fabric.close()


# -- real TCP frontend -------------------------------------------------------


def test_acquire_release_over_real_socket():
    server = LockServer(ServerConfig(2, FRONTEND_TCP, per_message_cost=0.0))
    host, port = server.serve_tcp()
    try:
        client = ServerLockClient(SocketConn(host, port), 1)
        client.acquire(0, shared=False)
        client.release(0)
        client.close()
    finally:
        server.shutdown()


# -- the TCP loop: one thread serves every connection -------------------------


@pytest.fixture
def tcp_server():
    server = LockServer(ServerConfig(2, FRONTEND_TCP, per_message_cost=0.0))
    address = server.serve_tcp()
    yield server, address
    server.shutdown()


def _frame(op, client_id, item_id, request_id):
    return struct.pack("<I", MESSAGE_SIZE) + MESSAGE.pack(op, client_id, item_id, request_id, 0)


def test_one_thread_serves_every_socket_connection():
    # Compared as sets, so a thread an earlier test left behind that ends
    # meanwhile does not count.
    before = set(threading.enumerate())
    server = LockServer(ServerConfig(2, FRONTEND_TCP, per_message_cost=0.0))
    address = server.serve_tcp()
    clients = [ServerLockClient(SocketConn(*address), i) for i in range(1, 7)]
    try:
        for client in clients:
            client.acquire(0, shared=True)
            client.release(0)
        added = set(threading.enumerate()) - before
        assert [t.name for t in added] == ["lockserver-tcp-loop"]
    finally:
        for client in clients:
            client.close()
        server.shutdown()


def test_a_prefix_longer_than_a_message_ends_the_connection_at_once(tcp_server):
    _, address = tcp_server
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(struct.pack("<I", 1000) + b"abc")  # 997 bytes short
        assert sock.recv(1) == b""  # EOF; waiting for the body raises TimeoutError


@pytest.mark.parametrize(
    "reply, error",
    [(struct.pack("<I", 3) + b"\x04\x00\x00", ProtocolError), (struct.pack("<I", 1 << 30), ConnectionError)],
    ids=["three-byte-reply", "oversize-prefix"],
)
def test_a_malformed_reply_to_a_socket_client_raises_at_once(stub_peer, reply, error):
    client = ServerLockClient(SocketConn(*stub_peer(reply)), 1)
    try:
        assert isinstance(start_call(client.acquire, 0, False)(5), error)
        assert client._held == {}
    finally:
        client.close()


def _answer_short(server_qp):
    assert server_qp.poll_recv(5).status == CompletionStatus.OK
    server_qp.post_send(b"\x04\x00\x00")


def test_a_reply_of_the_wrong_length_to_a_queue_pair_client_raises_at_once(sr_hosts):
    for host in sr_hosts:
        client, server_qp = host.couple()
        server_qp.post_recv(MESSAGE_SIZE)
        answered = start_call(_answer_short, server_qp)
        lock_client = ServerLockClient(QpConn(client, timeout=5), client.client_id)
        assert isinstance(start_call(lock_client.acquire, 0, False)(5), ProtocolError), host.name
        assert answered(5) is None and lock_client._held == {}


def test_a_frame_sent_byte_by_byte_does_not_hold_up_other_clients(tcp_server):
    _, address = tcp_server
    frame = _frame(MSG_ACQ_EXCL, 1, 0, 1)
    with socket.create_connection(address, timeout=5) as slow:
        slow.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for byte in frame[:-1]:
            slow.sendall(bytes([byte]))
            time.sleep(0.001)
        fast = ServerLockClient(SocketConn(*address), 2)

        def cycles():
            for _ in range(50):
                fast.acquire(1, shared=False)
                fast.release(1)

        t = threading.Thread(target=cycles, daemon=True)
        t.start()
        t.join(timeout=5)
        assert not t.is_alive()  # all 50 cycles done while the frame is partial
        slow.sendall(frame[-1:])
        assert MESSAGE.unpack(recv_frame(slow)) == (MSG_GRANT, 1, 0, 1, 2)
        fast.close()


def test_two_frames_in_one_send_get_two_replies_in_order(tcp_server):
    _, address = tcp_server
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(_frame(MSG_ACQ_EXCL, 1, 0, 1) + _frame(MSG_RELEASE, 1, 0, 2))
        assert MESSAGE.unpack(recv_frame(sock)) == (MSG_GRANT, 1, 0, 1, 2)
        assert MESSAGE.unpack(recv_frame(sock)) == (MSG_ACK, 1, 0, 2, 3)


def _raw_socket(server, fabric):
    sock = socket.create_connection(server.serve_tcp(), timeout=5)
    return (lambda *fields: sock.sendall(_frame(*fields))), lambda: MESSAGE.unpack(recv_frame(sock)), sock.close


def _raw_queue_pair(server, fabric):
    server.serve_sr_listener(fabric.sr_listen())
    qp = fabric.connect(1)

    def send(*fields):
        qp.post_recv(MESSAGE_SIZE)  # for this request's reply or a later grant
        deadline = time.monotonic() + 5
        while qp.post_send(MESSAGE.pack(*fields, 0)).status == CompletionStatus.RECEIVER_NOT_READY:
            assert time.monotonic() < deadline
            time.sleep(0.001)

    return send, lambda: MESSAGE.unpack(qp.poll_recv(5).payload), qp.close


@pytest.mark.parametrize("connect", [_raw_socket, _raw_queue_pair], ids=["socket", "queue-pair"])
def test_a_release_pushes_the_grant_it_frees_before_its_ack(connect):
    # Clients 1 and 2 share one byte connection, so the order the server
    # sends the GRANT and the ACK in is the order they arrive in.
    server = LockServer(ServerConfig(1, FRONTEND_TCP, per_message_cost=0.0))
    fabric = InprocFabric()
    send, recv, close = connect(server, fabric)
    try:
        send(MSG_ACQ_EXCL, 1, 0, 1)
        assert recv() == (MSG_GRANT, 1, 0, 1, 2)
        send(MSG_ACQ_EXCL, 2, 0, 1)  # queued behind client 1: no reply yet
        send(MSG_RELEASE, 1, 0, 2)
        assert [recv(), recv()] == [(MSG_GRANT, 2, 0, 1, 5), (MSG_ACK, 1, 0, 2, 4)]
    finally:
        close()
        server.shutdown()
        fabric.close()


def test_an_in_process_release_pushes_the_grant_it_frees_before_it_returns():
    server = LockServer(ServerConfig(1, FRONTEND_TCP, per_message_cost=0.0))
    holder, waiter = (server.attach_channel(InprocChannel()) for _ in range(2))
    assert holder.rpc(MSG_ACQ_EXCL, 1, 0, 1) == (MSG_GRANT, 1, 0, 1, 2)
    # Client 2's rpc without its wait, so nothing takes the grant early.
    assert server._dispatch(waiter, MSG_ACQ_EXCL, 2, 0, 1) is None
    assert holder.rpc(MSG_RELEASE, 1, 0, 2) == (MSG_ACK, 1, 0, 2, 4)
    assert waiter._replies.get_nowait() == (MSG_GRANT, 2, 0, 1, 5)
    holder.close()
    waiter.close()
    server.shutdown()


class _ShortSendSocket:
    """A server-side socket that takes one byte of each send, as one whose
    client stopped reading replies would once its buffers fill."""

    def __init__(self, sock):
        self._sock = sock

    def send(self, data):
        return self._sock.send(data[:1])

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_a_reply_the_socket_cannot_take_ends_its_connection(tcp_server):
    server, address = tcp_server
    stuck = ServerLockClient(SocketConn(*address), 1)
    stuck.acquire(0, shared=False)
    endpoint = server._endpoints[1]
    endpoint._sock = _ShortSendSocket(endpoint._sock)
    errors = []

    def acquire():
        try:
            stuck.acquire(1, shared=False)  # its grant does not fit
        except ConnectionError as exc:
            errors.append(exc)

    t = threading.Thread(target=acquire, daemon=True)
    t.start()
    t.join(timeout=5)
    assert not t.is_alive() and len(errors) == 1
    _wait_unbound(server, 1)
    assert server.core.granted_count() == 0  # both of its locks are purged
    other = ServerLockClient(SocketConn(*address), 2)
    other.acquire(0, shared=False)
    other.release(0)
    other.close()
    stuck.close()


def test_a_grant_the_waiters_socket_cannot_take_ends_only_its_connection(tcp_server):
    server, address = tcp_server
    holder = ServerLockClient(SocketConn(*address), 1)
    waiter = ServerLockClient(SocketConn(*address), 2)
    holder.acquire(0, shared=False)
    waited = start_call(waiter.acquire, 0, False)
    _wait_queued(server, 1)
    endpoint = server._endpoints[2]
    endpoint._sock = _ShortSendSocket(endpoint._sock)
    released = start_call(holder.release, 0)
    assert released(5) is None  # the ACK follows the failed GRANT
    assert isinstance(waited(5), ConnectionError)
    _wait_unbound(server, 2)
    assert server.core.granted_count() == 0  # the lock it was granted is purged
    holder.close()
    waiter.close()


def test_shutdown_wakes_a_socket_client_waiting_for_a_deferred_grant():
    server = LockServer(ServerConfig(1, FRONTEND_TCP, per_message_cost=0.0))
    address = server.serve_tcp()
    holder = ServerLockClient(SocketConn(*address), 1)
    waiter = ServerLockClient(SocketConn(*address), 2)
    holder.acquire(0, shared=False)
    errors = []

    def wait_for_lock():
        try:
            waiter.acquire(0, shared=False)
        except ConnectionError as exc:
            errors.append(exc)

    t = threading.Thread(target=wait_for_lock, daemon=True)
    t.start()
    _wait_queued(server, 1)
    server.shutdown()
    t.join(timeout=5)
    assert not t.is_alive() and len(errors) == 1
    assert not server._loop.is_alive()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(address, timeout=5).close()
    holder.close()
    waiter.close()


# -- malformed frames from outside the program -------------------------------
# A frame that is not a MESSAGE_SIZE-byte message ends its connection, as EOF does,
# instead of leaving the client waiting for a reply that never comes.


def test_malformed_frame_closes_socket_connection():
    server = LockServer(ServerConfig(2, FRONTEND_TCP, per_message_cost=0.0))
    host, port = server.serve_tcp()
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            send_frame(sock, b"bad")
            assert sock.recv(1) == b""  # EOF; a hang raises TimeoutError
    finally:
        server.shutdown()


def test_malformed_send_closes_queue_pair_connection():
    agent = TcpAgent()
    host, port = agent.start()
    server = LockServer(ServerConfig(2, FRONTEND_SEND_RECV, per_message_cost=0.0))
    server.serve_sr_listener(agent.sr_listen())
    qp = TcpFabric(host, port).connect(1)
    try:
        start = time.monotonic()
        qp.post_recv(MESSAGE_SIZE)
        # Receiver-not-ready until the server's handler has posted its receives.
        while qp.post_send(b"bad").status == CompletionStatus.RECEIVER_NOT_READY:
            assert time.monotonic() - start < 4
            time.sleep(0.001)
        assert qp.poll_recv(5) is None  # the server ended the connection, sending no reply
        assert time.monotonic() - start < 4
    finally:
        qp.close()
        server.shutdown()
        agent.stop()


# -- an unknown op is refused, and its connection serves on --------------------


@pytest.fixture(params=["inproc", "socket", "queue-pair"])
def served_conn(request):
    """A server and one connection to it of each endpoint kind: an
    InprocChannel, a SocketConn, or a QpConn over an in-process fabric."""
    server = LockServer(ServerConfig(2, FRONTEND_TCP, per_message_cost=0.0))
    fabric = InprocFabric()
    if request.param == "inproc":
        conn = server.attach_channel(InprocChannel())
    elif request.param == "socket":
        conn = SocketConn(*server.serve_tcp())
    else:
        server.serve_sr_listener(fabric.sr_listen())
        conn = QpConn(fabric.connect(1), timeout=5)
    yield server, conn
    conn.close()
    server.shutdown()
    fabric.close()


def test_an_unknown_op_gets_an_error_and_the_connection_serves_on(served_conn):
    server, conn = served_conn
    assert conn.rpc(99, 1, 0, 1) == (MSG_ERROR, 1, 0, 1, 0)
    client = ServerLockClient(conn, 1)
    with pytest.raises(ProtocolError):
        client._call(99, 0, MSG_GRANT, "acquire")
    client.acquire(0, shared=False)
    assert server.core.granted_count() == 1
    client.release(0)
    assert server.core.granted_count() == 0 and server.core.pending_count() == 0


def test_ids_and_items_outside_a_message_fail_alike_on_every_connection(served_conn):
    # In process nothing is packed, so the client checks its ID and the
    # byte transports turn a field that does not fit into ProtocolError,
    # the error the server gives for an unknown item.
    server, conn = served_conn
    for client_id in (0, -1, 1 << 32):
        with pytest.raises(ValueError):
            ServerLockClient(conn, client_id)
    client = ServerLockClient(conn, (1 << 32) - 1)
    for item_id in (-1, 1 << 40):
        with pytest.raises(ProtocolError):
            client.acquire(item_id, shared=False)
    client.acquire(0, shared=False)
    assert server.core.granted_count() == 1
    client.release(0)
    assert server.core.granted_count() == 0 and server.core.pending_count() == 0


def test_qp_conn_fails_at_once_after_the_server_closes(sr_hosts):
    # Sends to a closed peer complete receiver-not-ready; the client must
    # not retry them for its whole timeout.
    for host in sr_hosts:
        client, server = host.couple()
        server.close()
        conn = QpConn(client, timeout=5)
        start = time.monotonic()
        with pytest.raises(ConnectionError):
            conn.rpc(MSG_ACQ_EXCL, client.client_id, 0, 1)
        assert time.monotonic() - start < 1, host.name


def test_qp_conn_fails_at_once_when_connected_after_the_fabric_closes():
    # The listener is closed, so no accept will take the server side: the
    # client's queue pair must come back closed, not wait out its timeout.
    fabric = InprocFabric()
    server = LockServer(ServerConfig(1, FRONTEND_SEND_RECV, per_message_cost=0.0))
    server.serve_sr_listener(fabric.sr_listen())
    try:
        fabric.close()
        qp = fabric.connect(1)
        assert qp.closed
        start = time.monotonic()
        with pytest.raises(ConnectionError):
            QpConn(qp, timeout=2).rpc(MSG_ACQ_EXCL, 1, 0, 1)
        assert time.monotonic() - start < 0.5
    finally:
        server.shutdown()


# -- client IDs: bound on first contact, until the connection ends ----------
# A connection owns the first client ID it names; another connection naming
# that ID is rejected and changes no lock state.


@pytest.fixture(params=["inproc", "socket"])
def id_server(request):
    """A server and a connect() giving fresh connections to it, over an
    InprocChannel or a SocketConn."""
    server = LockServer(ServerConfig(2, FRONTEND_TCP, per_message_cost=0.0))
    conns = []
    address = None if request.param == "inproc" else server.serve_tcp()

    def connect():
        if address is None:
            conns.append(InprocChannel())
            server.attach_channel(conns[-1])
        else:
            conns.append(SocketConn(*address))
        return conns[-1]

    yield server, connect
    server.shutdown()
    for conn in conns:
        conn.close()


def _wait_unbound(server, client_id):
    # Over a socket, the server's loop thread drops the binding once it
    # reads EOF.
    deadline = time.monotonic() + 5
    while client_id in server._endpoints and time.monotonic() < deadline:
        time.sleep(0.001)
    assert client_id not in server._endpoints


def test_another_connection_cannot_act_as_a_bound_client(id_server):
    server, connect = id_server
    owner = ServerLockClient(connect(), 1)
    owner.acquire(0, shared=False)
    impostor = ServerLockClient(connect(), 1)
    impostor._held[0] = MODE_EXCLUSIVE  # so its release reaches the server
    with pytest.raises(ProtocolError):
        impostor.release(0)
    assert server.core.granted_count() == 1  # the owner still holds item 0
    with pytest.raises(ProtocolError):
        impostor.acquire(1, shared=True)
    assert server.core.granted_count() == 1 and server.core.pending_count() == 0
    owner.release(0)  # the owner's own release still ACKs
    assert server.core.granted_count() == 0


def test_a_closed_connection_frees_its_client_id(id_server):
    server, connect = id_server
    first = ServerLockClient(connect(), 1)
    first.acquire(0, shared=True)
    first.release(0)
    first.close()
    _wait_unbound(server, 1)
    again = ServerLockClient(connect(), 1)
    again.acquire(0, shared=True)
    again.release(0)


def _queue_then_close_waiter(server, connect):
    """Client 1 holds item 0 exclusively; client 2 queues for it, then its
    connection closes.  Returns the holder."""
    holder = ServerLockClient(connect(), 1)
    waiter = ServerLockClient(connect(), 2)
    holder.acquire(0, shared=False)
    errors = []

    def wait_for_lock():
        try:
            waiter.acquire(0, shared=False)
        except ConnectionError as exc:
            errors.append(exc)

    t = threading.Thread(target=wait_for_lock)
    t.start()
    _wait_queued(server, 1)
    waiter.close()
    t.join(timeout=5)
    assert not t.is_alive() and len(errors) == 1
    _wait_unbound(server, 2)
    return holder


def _wait_queued(server, count):
    deadline = time.monotonic() + 5
    while server.core.pending_count() < count and time.monotonic() < deadline:
        time.sleep(0.001)
    assert server.core.pending_count() == count


def test_deferred_grant_for_a_closed_client_is_dropped(id_server):
    server, connect = id_server
    holder = _queue_then_close_waiter(server, connect)
    holder.release(0)  # must not raise here
    # Over a socket the server's loop must live on to see the holder's EOF.
    holder.close()
    _wait_unbound(server, 1)
    assert server.core.granted_count() == 0


def test_a_closed_waiter_leaves_no_queued_request(id_server):
    server, connect = id_server
    _queue_then_close_waiter(server, connect)
    assert server.core.pending_count() == 0
    assert server.core.granted_count() == 1  # the holder keeps item 0


def test_a_closed_holder_passes_its_lock_to_the_waiter(id_server):
    server, connect = id_server
    holder = ServerLockClient(connect(), 1)
    waiter = ServerLockClient(connect(), 2)
    holder.acquire(0, shared=False)
    t = threading.Thread(target=waiter.acquire, args=(0, False), daemon=True)
    t.start()
    _wait_queued(server, 1)
    holder.close()  # without releasing item 0
    t.join(timeout=5)
    assert not t.is_alive() and waiter._held == {0: MODE_EXCLUSIVE}
    waiter.release(0)
    assert server.core.granted_count() == 0


def test_racing_first_contacts_bind_an_id_to_one_connection():
    # Eight connections name one new ID at once, dispatching on their own
    # threads; exactly one may own it, and it must be the one granted.
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            server = LockServer(ServerConfig(1, FRONTEND_TCP, per_message_cost=0.0))
            channels = [InprocChannel() for _ in range(8)]
            barrier = threading.Barrier(len(channels))
            granted = []

            def claim(channel):
                server.attach_channel(channel)
                barrier.wait(timeout=5)
                reply = channel.rpc(MSG_ACQ_SHARED, 1, 0, 1)
                if reply[0] == MSG_GRANT:
                    granted.append(channel)

            # Daemons: a grant routed to the wrong channel leaves its
            # claimant blocked, which must fail the test, not hang it.
            threads = [threading.Thread(target=claim, args=(c,), daemon=True) for c in channels]
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=5)
                assert not any(t.is_alive() for t in threads)
                assert len(granted) == 1 and server._endpoints == {1: granted[0]}
            finally:
                for channel in channels:
                    channel.close()
    finally:
        sys.setswitchinterval(previous)


def test_close_during_first_contacts_unbinds_cleanly():
    # A first contact binds its ID into the endpoint dict in place; a close
    # scanning that dict at the same moment must neither raise nor skip
    # ending its channel.
    server = LockServer(ServerConfig(1, FRONTEND_TCP, per_message_cost=0.0))
    bulk = InprocChannel()
    server.attach_channel(bulk)
    for client_id in range(1, 200_001):  # a long scan for the contacts to land in
        server._bind(client_id, bulk)
    contact = InprocChannel()
    server.attach_channel(contact)
    stop = threading.Event()

    def first_contacts():
        client_id = 300_000
        while not stop.is_set():
            client_id += 1
            contact.rpc(MSG_RELEASE, client_id, 0, 1)  # binds, then errors

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    t = threading.Thread(target=first_contacts, daemon=True)
    t.start()
    try:
        for k in range(5):
            channel = InprocChannel()
            server.attach_channel(channel)
            channel.rpc(MSG_RELEASE, 250_000 + k, 0, 1)
            channel.close()
            assert 250_000 + k not in server._endpoints
            assert channel._replies.closed and channel._replies.take(0) is None  # the close ended it
    finally:
        stop.set()
        t.join(timeout=10)
        sys.setswitchinterval(previous)
    assert not t.is_alive()
