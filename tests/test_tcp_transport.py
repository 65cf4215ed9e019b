"""TCP-emulated transport: same queue-pair surface, honest RNR, serials.

The shared two-sided SEND/RECV set in test_verbs runs on this transport too.
"""

import struct
import threading
import time

import pytest

from lockbench import framing
from lockbench.errors import ProtocolError
from lockbench.locktable import WORD_SIZE, LockTable, encode
from lockbench.tcp_transport import (
    _POLL,
    _POLL_SLICE,
    HELLO,
    MAX_REQUEST,
    REPLY_HEADER,
    TcpAgent,
    TcpFabric,
)
from lockbench.verbs import CompletionStatus

from conftest import start_call

U64 = 1 << 64


@pytest.fixture
def agent_and_address():
    a = TcpAgent()
    address = a.start()
    yield a, address
    a.stop()


@pytest.fixture
def agent(agent_and_address):
    return agent_and_address[0]


@pytest.fixture
def fabric(agent_and_address):
    _, (host, port) = agent_and_address
    return TcpFabric(host, port)


@pytest.fixture
def region(agent):
    return agent.register_region(32)


def test_one_sided_verbs_round_trip(agent, fabric, region):
    qp = fabric.connect()
    try:
        c = qp.post_cas(region.region_id, 0, 0, encode(qp.client_id, 0))
        assert c.ok and c.value == 0
        c = qp.post_fa(region.region_id, 8, 5)
        assert c.ok and c.value == 0
        c = qp.post_read(region.region_id, 0, 8)
        assert c.ok and c.value == encode(qp.client_id, 0)
        c = qp.post_write(region.region_id, 4, bytes(4))
        assert c.ok
        assert region.snapshot_word(0) == 0
        assert region.snapshot_word(1) == 5
    finally:
        qp.close()


def test_completions_carry_serials_across_the_wire(agent, fabric, region):
    qp = fabric.connect()
    try:
        serials = [
            qp.post_fa(region.region_id, 0, 1).serial,
            qp.post_cas(region.region_id, 0, 1, 2).serial,
            qp.post_read(region.region_id, 0, 8).serial,
            qp.post_write(region.region_id, 4, bytes(4)).serial,
            qp.post_read(region.region_id, 0, 4).serial,
        ]
        assert serials == [1, 2, 3, 4, 5]
        # A READ across a word boundary is rejected and takes no serial.
        c = qp.post_read(region.region_id, 0, 16)
        assert c.status == CompletionStatus.LOCAL_ACCESS_ERROR and c.serial is None
        assert qp.post_read(region.region_id, 8, 8).serial == 1
    finally:
        qp.close()


def test_unknown_region_is_local_access_error(agent, fabric):
    qp = fabric.connect()
    try:
        assert qp.post_read(77, 0, 8).status == CompletionStatus.LOCAL_ACCESS_ERROR
    finally:
        qp.close()


def test_out_of_bounds_is_local_access_error(agent, fabric, region):
    qp = fabric.connect()
    try:
        c = qp.post_fa(region.region_id, 32, 1)
        assert c.status == CompletionStatus.LOCAL_ACCESS_ERROR
        c = qp.post_cas(region.region_id, 4, 0, 1)  # misaligned
        assert c.status == CompletionStatus.LOCAL_ACCESS_ERROR
    finally:
        qp.close()


def test_client_ids_assigned_or_honored(agent, fabric):
    auto = fabric.connect()
    named = fabric.connect(client_id=42)
    try:
        assert auto.client_id >= 1
        assert named.client_id == 42
    finally:
        auto.close()
        named.close()
    with pytest.raises(ValueError):
        fabric.connect(client_id=0)


def test_send_reaches_listener_queue_pair(agent, fabric):
    listener = agent.sr_listen()
    qp = fabric.connect()
    server_qp = listener.accept(timeout=5)
    try:
        assert server_qp is not None
        assert server_qp.client_id == qp.client_id
        server_qp.post_recv(64)
        assert qp.post_send(b"ping").ok
        recv = server_qp.poll_recv(timeout=5)
        assert recv.ok and recv.payload == b"ping"
    finally:
        qp.close()


def test_send_without_server_receive_is_rnr(agent, fabric):
    agent.sr_listen()
    qp = fabric.connect()
    try:
        c = qp.post_send(b"ping")
        assert c.status == CompletionStatus.RECEIVER_NOT_READY
    finally:
        qp.close()


def test_server_send_without_client_receive_is_rnr(agent, fabric):
    listener = agent.sr_listen()
    qp = fabric.connect()
    server_qp = listener.accept(timeout=5)
    try:
        c = server_qp.post_send(b"grant")
        assert c.status == CompletionStatus.RECEIVER_NOT_READY
        qp.post_recv(64)
        assert server_qp.post_send(b"grant").ok
        recv = qp.poll_recv(timeout=5)
        assert recv.ok and recv.payload == b"grant"
    finally:
        qp.close()


def test_undersized_receive_buffer_truncates(agent, fabric):
    listener = agent.sr_listen()
    qp = fabric.connect()
    server_qp = listener.accept(timeout=5)
    try:
        qp.post_recv(2)
        c = server_qp.post_send(b"too big")
        assert c.status == CompletionStatus.TRUNCATED
        recv = qp.poll_recv(timeout=5)
        assert recv.status == CompletionStatus.TRUNCATED
    finally:
        qp.close()


def test_concurrent_atomics_from_processes_of_one_word(agent, fabric, region):
    # Threads here, but each with its own socket: the serialization
    # point is the agent's region, exactly as with real remote clients.
    n, per = 4, 200
    qps = [fabric.connect() for _ in range(n)]
    errors = []

    def bump(qp):
        try:
            for _ in range(per):
                assert qp.post_fa(region.region_id, 0, 1).ok
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=bump, args=(qp,)) for qp in qps]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for qp in qps:
        qp.close()
    assert not errors
    assert region.snapshot_word(0) == n * per


def test_client_close_unblocks_poll(agent, fabric):
    qp = fabric.connect()
    got = []

    def wait():
        got.append(qp.poll_recv(timeout=10))

    t = threading.Thread(target=wait)
    t.start()
    qp.close()
    t.join(timeout=10)
    assert not t.is_alive()
    assert got == [None]


def test_lock_table_allocation_on_agent(agent, fabric):
    table = LockTable.allocate(agent, 3)
    qp = fabric.connect()
    try:
        c = qp.post_fa(table.region_id, 2 * WORD_SIZE, 1)
        assert c.ok
        assert table.words() == [0, 0, 1]
    finally:
        qp.close()


def test_closed_connections_leave_no_verb_socket_behind(agent, fabric):
    for _ in range(20):
        fabric.connect().close()
    # Each verb loop drops its socket once it reads the client's EOF.
    deadline = time.monotonic() + 5
    while agent._conns and time.monotonic() < deadline:
        time.sleep(0.001)
    assert agent._conns == set()


def test_agent_stop_closes_client_channels():
    # Separate agent so the fixture teardown doesn't double-stop.
    agent = TcpAgent()
    host, port = agent.start()
    qp = TcpFabric(host, port).connect()
    agent.stop()
    # The connection drops; polling must not hang.
    assert qp.poll_recv(timeout=5) is None
    qp.close()


def _wait_for(condition, seconds=5):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)
    return condition()


@pytest.fixture
def thread_deaths(monkeypatch):
    """Every exception that ends a thread during the test."""
    deaths = []
    monkeypatch.setattr(threading, "excepthook", deaths.append)
    return deaths


def test_connect_opens_one_socket_and_starts_no_client_thread(agent, fabric):
    def client_threads():
        return {t for t in threading.enumerate() if not t.name.startswith("tcpagent-")}

    before = client_threads()
    qp = fabric.connect()
    try:
        assert client_threads() == before
        assert len(agent._conns) == 1
    finally:
        qp.close()


def test_frame_longer_than_the_limit_ends_the_connection(agent, fabric, thread_deaths):
    listener = agent.sr_listen()
    qp = fabric.connect()
    server = listener.accept(timeout=5)
    try:
        # A length prefix with no payload: the agent must not wait for it.
        qp._sock.sendall(struct.pack("<I", MAX_REQUEST + 1))
        assert server.poll_recv(timeout=5) is None  # the agent-side queue pair closed
        assert server.closed
        assert _wait_for(lambda: not agent._conns)
        assert qp.poll_recv(timeout=5) is None
    finally:
        qp.close()
    assert thread_deaths == []


@pytest.mark.parametrize(
    "sent, agent_hangs_up",
    [(b"", False), (struct.pack("<I", 4) + b"\x01\x00", False), (struct.pack("<I", 3) + b"abc", True)],
    ids=["close-before-hello", "close-during-hello", "three-byte-hello"],
)
def test_bad_or_cut_hello_ends_the_connection(agent_and_address, sent, agent_hangs_up, thread_deaths):
    agent, address = agent_and_address
    sock = framing.connect(*address)
    sock.settimeout(5)
    sock.sendall(sent)
    if agent_hangs_up:
        assert sock.recv(1) == b""
    sock.close()
    assert _wait_for(lambda: not agent._conns)
    assert thread_deaths == []


def test_client_close_during_a_poll_reaches_the_peer(agent, fabric):
    listener = agent.sr_listen()
    qp = fabric.connect()
    server = listener.accept(timeout=5)
    poller = threading.Thread(target=qp.poll_recv)
    poller.start()
    time.sleep(0.05)  # let the poll reach the agent
    qp.close()
    poller.join(timeout=5)
    assert not poller.is_alive()
    assert server.poll_recv(timeout=5) is None
    assert server.closed
    assert _wait_for(lambda: not agent._conns)


def test_stop_ends_every_agent_thread():
    before = set(threading.enumerate())
    agent = TcpAgent()
    host, port = agent.start()
    fabric = TcpFabric(host, port)
    idle, polling = fabric.connect(), fabric.connect()
    silent = framing.connect(host, port)  # never says hello
    polled = []
    poller = threading.Thread(target=lambda: polled.append(polling.poll_recv()))
    poller.start()
    time.sleep(0.05)  # let the poll reach the agent
    agent.stop()
    try:
        assert _wait_for(lambda: not (set(threading.enumerate()) - before))
        assert polled == [None]
    finally:
        idle.close()
        polling.close()
        silent.close()


def test_a_poll_outlasts_the_agents_slice(agent, fabric):
    # The agent answers each POLL frame within one slice; the client polls
    # again until its own deadline, so a SEND delivered during its third
    # frame, after two empty slices, is still received.
    listener = agent.sr_listen()
    qp = fabric.connect()
    server = listener.accept(timeout=5)
    agent_qp = server.peer  # the agent's queue pair for this client
    poll, frames = agent_qp.poll_recv, []

    def counted_poll(timeout):
        frames.append(timeout)
        if len(frames) == 3:
            assert server.post_send(b"late").ok
        return poll(timeout)

    agent_qp.poll_recv = counted_poll
    try:
        qp.post_recv(8)
        start = time.monotonic()
        got = qp.poll_recv(timeout=3 * _POLL_SLICE)
        assert time.monotonic() - start >= 2 * _POLL_SLICE
        assert got is not None and got.ok and got.payload == b"late"
        assert len(frames) == 3 and max(frames) <= _POLL_SLICE
    finally:
        qp.close()


def test_the_agent_answers_a_poll_within_one_slice_whatever_it_asks(agent, fabric):
    qp = fabric.connect()
    try:
        start = time.monotonic()
        c = qp._rpc(_POLL, op_a=60 * 10**6)  # a POLL frame that asks for a minute
        assert c.status == CompletionStatus.RECEIVER_NOT_READY
        assert time.monotonic() - start < _POLL_SLICE + 0.5
    finally:
        qp.close()


def test_a_client_that_hangs_up_mid_poll_frees_its_agent_thread(agent, fabric):
    before = set(threading.enumerate())
    qp = fabric.connect()
    assert _wait_for(lambda: len(agent._conns) == 1)
    (serving,) = {t for t in set(threading.enumerate()) - before if t.name == "tcpagent-conn"}
    poller = threading.Thread(target=qp.poll_recv)
    poller.start()
    time.sleep(_POLL_SLICE / 2)  # let the poll reach the agent
    hung_up = time.monotonic()
    framing.close(qp._sock)  # no half-close, no wait for the agent's EOF
    serving.join(timeout=5)
    assert not serving.is_alive()
    assert time.monotonic() - hung_up < _POLL_SLICE + 0.5
    poller.join(timeout=5)
    assert not poller.is_alive()
    assert not agent._conns


def _framed(payload):
    return struct.pack("<I", len(payload)) + payload


GIB_PREFIX = struct.pack("<I", 1 << 30)  # a length prefix the peer never honours


@pytest.mark.parametrize(
    "reply, error",
    [
        (_framed(b"\x00\x00"), ProtocolError),
        (_framed(REPLY_HEADER.pack(0x55, 0)), ProtocolError),
        (GIB_PREFIX, ConnectionError),
    ],
    ids=["two-byte-reply", "unknown-status", "oversize-prefix"],
)
def test_a_malformed_verb_reply_raises_at_once(stub_peer, reply, error):
    qp = TcpFabric(*stub_peer(_framed(HELLO.pack(1)), reply)).connect(1)
    try:
        assert isinstance(start_call(qp.post_cas, 0, 0, 0, 1)(5), error)
        assert qp.closed == (error is ConnectionError)
    finally:
        qp.close()


@pytest.mark.parametrize("hello", [_framed(b"\x01\x00"), GIB_PREFIX], ids=["two-byte-hello", "oversize-prefix"])
def test_a_malformed_hello_fails_the_connect_at_once(stub_peer, hello):
    exc = start_call(TcpFabric(*stub_peer(hello)).connect)(5)
    assert isinstance(exc, ConnectionError) and "handshake failed" in str(exc)
