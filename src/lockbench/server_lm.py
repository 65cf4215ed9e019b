"""Server-centric lock manager.

A central server keeps one FIFO queue per item, each guarded by its own
mutex, and grants the queue head when compatible, batching consecutive
SHARED requests.  Admission is strict FIFO: a SHARED request arriving
behind a queued EXCLUSIVE request waits even while other SHARED holders
are active, which keeps writers from starving.  Each item's requests,
grants and releases take the next value of the item's counter under its
mutex; GRANT and ACK replies carry that value, and the client stamps it as
the event's `seq`.  Untraced, the core and the client stamp into
`trace.DISCARD`.

A message is five fields: op, client, item, request and seq.  In process
it is those fields, passed as a tuple.  Only the byte transports, framed
sockets and SEND/RECV queue pairs, pack it as a 25-byte `MESSAGE` record;
their connections raise `ProtocolError` for a reply of any other length
or a request field the record cannot hold, and their servers end a
connection that sends a message of another length.

Two frontends carry the same protocol: a socket-style frontend and a
SEND/RECV verb frontend.  Each charges a configurable amount of busy CPU
per inbound message on a bounded worker pool, emulating the kernel
messaging overhead that dominates a socket-based server; the verb
frontend's default charge is one tenth of the socket frontend's.  Both
run one path per transport: in process, an `InprocChannel` that dispatches
on the client's thread and waits for its reply, or a deferred grant, on a
`verbs.Inbox`; over TCP, framed sockets served by one loop thread, so
`worker_limit` bounds concurrent charges only in process.  (`QpConn`
and `serve_sr_listener` serve only lockperf's per-layer timings.)
"""

from __future__ import annotations

import itertools
import queue
import selectors
import socket
import struct
import threading
import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field

from . import framing, trace
from .errors import MAX_DURATION_S, ProtocolError
from .framing import _LEN, recv_frame, send_frame
from .locktable import MAX_CLIENTS
from .trace import (
    MODE_EXCLUSIVE,
    MODE_SHARED,
    OP_ACQ,
    OP_REL,
    OUT_ACK,
    OUT_GRANT,
    OUT_REQ,
    TraceEvent,
    _new_tuple,
)
from .verbs import _CLOSED, _OK, _RNR, Inbox, QueuePair

MESSAGE = struct.Struct("<BIIQQ")  # op, client_id, item_id, request_id, seq
MESSAGE_SIZE = MESSAGE.size
_PREFIX = _LEN.pack(MESSAGE_SIZE)
_FRAME_SIZE = len(_PREFIX) + MESSAGE_SIZE

MSG_ACQ_SHARED = 1
MSG_ACQ_EXCL = 2
MSG_RELEASE = 3
MSG_GRANT = 4
MSG_ACK = 5
MSG_ERROR = 6

FRONTEND_TCP = "tcp"
FRONTEND_SEND_RECV = "send-recv"

# Default busy-CPU charge per inbound message, per frontend.  The verb
# frontend offloads kernel work to the emulated NIC, so it charges 10x less.
DEFAULT_TCP_MESSAGE_COST = 20e-6
DEFAULT_SR_MESSAGE_COST = 2e-6


@dataclass(slots=True)
class LockRequest:
    request_id: int
    client_id: int
    item_id: int
    mode: str
    seq: int = 0  # set when granted


@dataclass(slots=True)
class ItemQueue:
    mutex: threading.Lock = field(default_factory=threading.Lock)
    pending: deque = field(default_factory=deque)
    granted: dict = field(default_factory=dict)  # client_id -> mode
    seqs: itertools.count = field(default_factory=lambda: itertools.count(1))


def grant_scan(item_queue: ItemQueue) -> list[LockRequest]:
    """Pop and grant every request admissible right now (mutex held).

    The head EXCLUSIVE request is granted only on an empty grant set; a
    head SHARED request pulls in the maximal run of consecutive SHARED
    requests behind it.  Anything behind an incompatible head waits.
    """
    newly: list[LockRequest] = []
    pending = item_queue.pending
    granted = item_queue.granted
    if not pending:
        return newly
    if MODE_EXCLUSIVE in granted.values():
        return newly
    if pending[0].mode == MODE_EXCLUSIVE:
        if not granted:
            head = pending.popleft()
            granted[head.client_id] = MODE_EXCLUSIVE
            newly.append(head)
        return newly
    while pending and pending[0].mode == MODE_SHARED:
        req = pending.popleft()
        granted[req.client_id] = MODE_SHARED
        newly.append(req)
    return newly


def _grant(item_queue: ItemQueue) -> list[LockRequest]:
    """`grant_scan`, each grant given the item's next `seq` (mutex held)."""
    newly = grant_scan(item_queue)
    for req in newly:
        req.seq = next(item_queue.seqs)
    return newly


class LockServerCore:
    """Frontend-independent lock state: item queues, grants, validation."""

    def __init__(self, n_items: int, recorder: trace.TraceRecorder | None = None):
        if n_items < 1:
            raise ValueError("need at least one item")
        self.n_items = n_items
        self._items = [ItemQueue() for _ in range(n_items)]
        self._stamp = trace.DISCARD if recorder is None else recorder.stamper(0)

    def acquire(
        self, client_id: int, item_id: int, shared: bool, request_id: int
    ) -> tuple[str | None, list[LockRequest]]:
        """Enqueue an acquire; returns (error, newly granted requests)."""
        if not 0 <= item_id < self.n_items:
            return f"unknown item {item_id}", []
        mode = MODE_SHARED if shared else MODE_EXCLUSIVE
        item = self._items[item_id]
        with item.mutex:
            pending = item.pending
            if client_id in item.granted or (pending and any(r.client_id == client_id for r in pending)):
                return f"client {client_id} already acquired item {item_id}", []
            pending.append(LockRequest(request_id, client_id, item_id, mode))
            self._stamp(_new_tuple(
                TraceEvent, (trace._clock(), client_id, item_id, OP_ACQ, mode, OUT_REQ, next(item.seqs))))
            return None, _grant(item)

    def release(self, client_id: int, item_id: int) -> tuple[str | None, list[LockRequest], int]:
        """Drop a grant; returns (error, follow-on grants, the release's seq)."""
        if not 0 <= item_id < self.n_items:
            return f"unknown item {item_id}", [], 0
        item = self._items[item_id]
        with item.mutex:
            if client_id not in item.granted:
                return f"client {client_id} does not hold item {item_id}", [], 0
            del item.granted[client_id]
            seq = next(item.seqs)
            return None, _grant(item) if item.pending else [], seq

    def drop_client(self, client_id: int) -> list[LockRequest]:
        """Drop a departed client's grants and queued requests; returns
        the follow-on grants."""
        grants = []
        for item in self._items:
            with item.mutex:
                item.granted.pop(client_id, None)
                for req in item.pending:
                    if req.client_id == client_id:
                        item.pending.remove(req)
                        break
                grants += _grant(item)
        return grants

    def pending_count(self) -> int:
        total = 0
        for item in self._items:
            with item.mutex:
                total += len(item.pending)
        return total

    def granted_count(self) -> int:
        total = 0
        for item in self._items:
            with item.mutex:
                total += len(item.granted)
        return total


def upper_bound_throughput(
    cores: float, frequency: float, cycles_per_message: float, messages_per_lock: float
) -> float:
    """Loose upper bound on a message-bound server's lock throughput.

    cores * frequency / (cycles_per_message * messages_per_lock), in locks
    per second.  For 40 cores at 3 GHz and 10^4 cycles per message with one
    message per lock this is exactly 1.2e7; the round figure of "roughly
    30M locks per second" sometimes quoted for that configuration does not
    follow from the formula, which is what this function returns.
    """
    for name, value in (
        ("cores", cores),
        ("frequency", frequency),
        ("cycles_per_message", cycles_per_message),
        ("messages_per_lock", messages_per_lock),
    ):
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
    return cores * frequency / (cycles_per_message * messages_per_lock)


@dataclass
class ServerConfig:
    n_items: int
    frontend: str = FRONTEND_TCP
    per_message_cost: float = 0.0
    worker_limit: int = 4

    def __post_init__(self):
        if self.frontend not in (FRONTEND_TCP, FRONTEND_SEND_RECV):
            raise ValueError(f"unknown frontend {self.frontend!r}")
        if not 0 <= self.per_message_cost <= MAX_DURATION_S:  # false for nan too
            raise ValueError(f"per_message_cost must be in [0, {MAX_DURATION_S:g}] s")
        # No more charges run at once than clients are in flight, and the
        # cost model puts one token per unit of the limit before any lock.
        if not 1 <= self.worker_limit <= MAX_CLIENTS:
            raise ValueError(f"worker_limit must be in [1, {MAX_CLIENTS}]")


class MessageCostModel:
    """Burns `cost` seconds of CPU per message on at most `worker_limit`
    concurrent workers, emulating a bounded core budget.

    The slots are tokens in a C-level `queue.SimpleQueue`: taking and
    returning one costs far less than the modeled charge, unlike a
    `threading.Semaphore`, which is written in Python.  A charge with no
    token free blocks, releasing the GIL, until one is returned.
    """

    def __init__(self, cost: float, worker_limit: int):
        self._cost_ns = int(cost * 1e9)
        self._slots: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(worker_limit):
            self._slots.put(None)

    def charge(self) -> None:
        if self._cost_ns <= 0:
            return
        self._slots.get()
        try:
            end = time.perf_counter_ns() + self._cost_ns
            while time.perf_counter_ns() < end:
                pass
        finally:
            self._slots.put(None)


# ---------------------------------------------------------------------------
# Connection plumbing.  A connection's `rpc(op, client_id, item_id, request_id)`
# returns the reply's five fields, and an endpoint's `send_reply` takes them;
# only the byte transports pack them.  The server binds client_id -> endpoint
# on first contact until the endpoint closes, so grants reach waiting clients
# from whichever thread frees them.


class InprocChannel:
    """In-process connection: `rpc` dispatches on the caller's thread and
    takes the reply, or a grant a releasing thread pushes later, from the
    channel's inbox.  Closing either side closes the inbox and ends the
    channel, as with a socket."""

    def __init__(self):
        self._server: LockServer | None = None
        self._replies = Inbox()

    # client side
    def rpc(self, op: int, client_id: int, item_id: int, request_id: int) -> tuple:
        server = self._server
        if server is None or server._closing:
            self.close()
            raise ConnectionError("channel closed")
        server._dispatch(self, op, client_id, item_id, request_id)
        reply = self._replies.get()  # C-level, not `take`: no rpc waits after the close
        if reply is _CLOSED:
            raise ConnectionError("server closed the channel")
        return reply

    def close(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server._unbind(self)
        self._replies.close()

    # server side
    def send_reply(self, *message: int) -> None:
        self._replies.put(message)


class SocketConn:
    """Client side of the TCP frontend: length-prefixed frames on one
    long-lived connection."""

    def __init__(self, host: str, port: int):
        self._sock = framing.connect(host, port)

    def rpc(self, op: int, client_id: int, item_id: int, request_id: int) -> tuple:
        try:
            request = MESSAGE.pack(op, client_id, item_id, request_id, 0)
        except struct.error:  # in process, the server rejects such a request
            raise ProtocolError(f"request for item {item_id} does not fit a message") from None
        send_frame(self._sock, request)
        reply = recv_frame(self._sock, MESSAGE_SIZE)
        if reply is None:
            raise ConnectionError("server closed the connection or sent an oversize frame")
        if len(reply) != MESSAGE_SIZE:
            raise ProtocolError(f"reply of {len(reply)} bytes for item {item_id}")
        return MESSAGE.unpack(reply)

    def close(self) -> None:
        framing.close(self._sock)


class _SocketEndpoint:
    """Server side of one framed socket, served by the TCP loop thread."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._send_lock = threading.Lock()
        self.inbox = bytearray()

    def send_reply(self, *message: int) -> None:
        # One non-blocking send, locked because a grant may be pushed from
        # an in-process client's thread.  A client that does not drain its
        # replies is shut down, which the loop reads as EOF.
        frame = _PREFIX + MESSAGE.pack(*message)
        with self._send_lock, suppress(OSError):
            with suppress(BlockingIOError):
                if self._sock.send(frame) == _FRAME_SIZE:
                    return
            self._sock.shutdown(socket.SHUT_RDWR)

    def close(self) -> None:
        framing.close(self._sock)


class QpConn:
    """Client side of the SEND/RECV frontend over any queue pair.

    A receive is posted before every request so the reply (or a deferred
    grant) always finds a buffer.  A receiver-not-ready SEND is re-posted
    (it raced the server's accept loop) unless this queue pair is closed.
    """

    RETRY_PAUSE = 0.0005

    def __init__(self, qp, timeout: float = 30.0):
        self._qp = qp
        self._timeout = timeout

    def rpc(self, op: int, client_id: int, item_id: int, request_id: int) -> tuple:
        try:
            message = MESSAGE.pack(op, client_id, item_id, request_id, 0)
        except struct.error:
            raise ProtocolError(f"request for item {item_id} does not fit a message") from None
        self._qp.post_recv(MESSAGE_SIZE)
        deadline = time.monotonic() + self._timeout
        while True:
            completion = self._qp.post_send(message)
            if completion.status == _OK:
                break
            if completion.status != _RNR:
                raise ConnectionError(f"send failed: {completion.status.name}")
            if self._qp.closed:
                raise ConnectionError("connection closed")
            if time.monotonic() > deadline:
                raise ConnectionError("server never posted a receive")
            time.sleep(self.RETRY_PAUSE)
        reply = self._qp.poll_recv(self._timeout)
        if reply is None or reply.status != _OK:
            raise ConnectionError("no reply from server")
        if len(reply.payload) != MESSAGE_SIZE:
            raise ProtocolError(f"reply of {len(reply.payload)} bytes for item {item_id}")
        return MESSAGE.unpack(reply.payload)

    def close(self) -> None:
        self._qp.close()


class _QpEndpoint:
    """Server side of one SEND/RECV connection; keeps receives pre-posted."""

    PIPELINE = 2

    def __init__(self, qp: QueuePair):
        self._qp = qp
        for _ in range(self.PIPELINE):
            self._qp.post_recv(MESSAGE_SIZE)

    def recv_request(self) -> bytes | None:
        completion = self._qp.poll_recv()
        if completion is None or completion.status != _OK:
            return None  # closed or truncated: the handler ends the connection
        self._qp.post_recv(MESSAGE_SIZE)
        return completion.payload

    def send_reply(self, *message: int) -> None:
        # Every awaited reply has a pre-posted receive (clients post before
        # sending), so a failed send means the client is gone — not that it
        # is still waiting.  Dropping it keeps this handler alive to push
        # follow-on grants to other clients.
        self._qp.post_send(MESSAGE.pack(*message))

    def close(self) -> None:
        self._qp.close()


class LockServer:
    """Wires the frontends to LockServerCore."""

    def __init__(self, config: ServerConfig, recorder: trace.TraceRecorder | None = None):
        self.core = LockServerCore(config.n_items, recorder)
        self.cost = MessageCostModel(config.per_message_cost, config.worker_limit)
        self._endpoints: dict[int, object] = {}
        self._endpoint_lock = threading.Lock()
        self._listeners: list[object] = []
        self._loop: threading.Thread | None = None
        self._listener: socket.socket | None = None
        self._closing = False

    # -- frontend attachment -------------------------------------------

    def attach_channel(self, channel: InprocChannel) -> InprocChannel:
        channel._server = self
        return channel

    def serve_sr_listener(self, listener: Inbox) -> None:
        self._listeners.append(listener)

        def accept_loop():
            while True:
                qp = listener.accept()
                if qp is None:
                    return
                self._spawn(self._handle, "handler", _QpEndpoint(qp))

        self._spawn(accept_loop, "sr-accept")

    def serve_tcp(self) -> tuple[str, int]:
        listener = self._listener = framing.listen("127.0.0.1", 0)
        self._loop = self._spawn(self._tcp_loop, "tcp-loop", listener)
        return listener.getsockname()

    def _tcp_loop(self, listener: socket.socket) -> None:
        """Accept and serve every TCP connection on this one thread until
        shutdown, which shuts the listener down to wake it; then close
        every socket the loop owns."""
        selector = selectors.DefaultSelector()
        listener.setblocking(False)
        selector.register(listener, selectors.EVENT_READ)
        while not self._closing:
            for key, _ in selector.select():
                if key.fileobj is listener:
                    with suppress(OSError):
                        conn, _ = listener.accept()
                        conn.setblocking(False)
                        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                        selector.register(conn, selectors.EVENT_READ, _SocketEndpoint(conn))
                elif key.data is not None and not self._serve_frames(key.data):
                    selector.unregister(key.fileobj)
                    self._unbind(key.data)
                    key.data.close()
        for key in list(selector.get_map().values()):
            (key.data or key.fileobj).close()
        selector.close()

    def _serve_frames(self, endpoint: _SocketEndpoint) -> bool:
        """One recv, then dispatch every whole frame in order; False once
        the connection must end: EOF, a reset, a length prefix other than
        MESSAGE_SIZE or a closing server."""
        try:
            data = endpoint._sock.recv(65536)
        except OSError as exc:
            return isinstance(exc, BlockingIOError)
        inbox = endpoint.inbox
        inbox += data
        while len(inbox) >= _FRAME_SIZE and inbox.startswith(_PREFIX):
            if self._closing:
                return False
            op, client_id, item_id, request_id, _ = MESSAGE.unpack_from(inbox, len(_PREFIX))
            del inbox[:_FRAME_SIZE]
            self._dispatch(endpoint, op, client_id, item_id, request_id)
        return bool(data) and _PREFIX.startswith(inbox[: len(_PREFIX)])

    # -- request handling ------------------------------------------------

    def _spawn(self, target, name: str, *args) -> threading.Thread:
        thread = threading.Thread(target=target, args=args, name=f"lockserver-{name}", daemon=True)
        thread.start()
        return thread

    def _bind(self, client_id: int, endpoint) -> bool:
        """Bind an unbound ID to `endpoint`; False if another endpoint owns it."""
        with self._endpoint_lock:
            return self._endpoints.setdefault(client_id, endpoint) is endpoint

    def _unbind(self, endpoint) -> None:
        """Purge the locks of every ID `endpoint` owns, then free the IDs.

        Purging while the IDs are still bound means a new connection cannot
        claim an ID, and take a lock under it, before the purge is done.
        A shutting-down server purges nothing, so its waiters get errors,
        not grants."""
        with self._endpoint_lock:  # a first contact's bind grows the dict in place
            ids = [c for c, e in self._endpoints.items() if e is endpoint]
        grants = [] if self._closing else [g for c in ids for g in self.core.drop_client(c)]
        with self._endpoint_lock:  # lock-free readers see the old dict or the new
            self._endpoints = {c: e for c, e in self._endpoints.items() if e is not endpoint}
        for g in grants:
            if g.client_id not in ids:
                self._push_grant(g)

    def _push_grant(self, g: LockRequest) -> None:
        endpoint = self._endpoints.get(g.client_id)
        if endpoint is not None:
            endpoint.send_reply(MSG_GRANT, g.client_id, g.item_id, g.request_id, g.seq)
        # Else the client's connection closed, and its purge drops the lock.

    def _dispatch(self, endpoint, op: int, client_id: int, item_id: int, request_id: int) -> None:
        """Serve one decoded request from `endpoint`."""
        self.cost.charge()
        if self._endpoints.get(client_id) is not endpoint and not self._bind(client_id, endpoint):
            endpoint.send_reply(MSG_ERROR, client_id, item_id, request_id, 0)
            return
        if op in (MSG_ACQ_SHARED, MSG_ACQ_EXCL):
            error, grants = self.core.acquire(client_id, item_id, op == MSG_ACQ_SHARED, request_id)
        elif op == MSG_RELEASE:
            error, grants, seq = self.core.release(client_id, item_id)
            if error is None:
                endpoint.send_reply(MSG_ACK, client_id, item_id, request_id, seq)
        else:
            error, grants = "unknown op", []
        if error is not None:
            endpoint.send_reply(MSG_ERROR, client_id, item_id, request_id, 0)
        for g in grants:
            self._push_grant(g)

    def _handle(self, endpoint: _QpEndpoint) -> None:
        """Serve one queue-pair connection until it closes, the server shuts
        down or a SEND that is not MESSAGE_SIZE bytes arrives; then close
        the connection."""
        while True:
            data = endpoint.recv_request()
            if data is None or self._closing or len(data) != MESSAGE_SIZE:
                break
            op, client_id, item_id, request_id, _ = MESSAGE.unpack(data)
            self._dispatch(endpoint, op, client_id, item_id, request_id)
        self._unbind(endpoint)
        endpoint.close()

    def shutdown(self) -> None:
        self._closing = True
        for listener in self._listeners:
            listener.close()
        if self._loop is not None:
            with suppress(OSError):  # accept() then fails, and the loop sees _closing
                self._listener.shutdown(socket.SHUT_RDWR)
            if self._loop is not threading.current_thread():
                self._loop.join()
        with self._endpoint_lock:
            endpoints = list(self._endpoints.values())
        for endpoint in endpoints:
            if not isinstance(endpoint, _SocketEndpoint):  # the loop closes those
                with suppress(Exception):
                    endpoint.close()


class ServerLockClient:
    """Client-side driver for the server-centric protocol.

    Closed loop: one outstanding request, so the next message received is
    always the reply (GRANT, ACK or ERROR) for the last request sent.
    """

    def __init__(self, conn, client_id: int, recorder: trace.TraceRecorder | None = None):
        if not 0 < client_id < 1 << 32:  # source 0 is the server's
            raise ValueError("client IDs must be in [1, 2**32 - 1]")
        self.conn = conn
        self.client_id = client_id
        self._stamp = trace.DISCARD if recorder is None else recorder.stamper(client_id)
        self._request_ids = itertools.count(1)
        self._held: dict[int, str] = {}

    def _call(self, op: int, item_id: int, want: int, what: str) -> int:
        """Send one request; the `seq` of its `want` reply.  ProtocolError for
        an ERROR or a reply to another request."""
        request_id = next(self._request_ids)
        rop, _, ritem, rrid, seq = self.conn.rpc(op, self.client_id, item_id, request_id)
        if rop == MSG_ERROR:
            raise ProtocolError(f"{what} rejected for item {item_id}")
        if rop != want or ritem != item_id or rrid != request_id:
            raise ProtocolError(f"unexpected reply op={rop} item={ritem}")
        return seq

    def acquire(self, item_id: int, shared: bool) -> None:
        seq = self._call(MSG_ACQ_SHARED if shared else MSG_ACQ_EXCL, item_id, MSG_GRANT, "acquire")
        mode = MODE_SHARED if shared else MODE_EXCLUSIVE
        self._held[item_id] = mode
        self._stamp(_new_tuple(
            TraceEvent, (trace._clock(), self.client_id, item_id, OP_ACQ, mode, OUT_GRANT, seq)))

    def release(self, item_id: int) -> None:
        mode = self._held.get(item_id)
        if mode is None:
            raise ProtocolError(f"releasing item {item_id} that is not held")
        requested = trace._clock()
        seq = self._call(MSG_RELEASE, item_id, MSG_ACK, "release")
        del self._held[item_id]
        cid, stamp = self.client_id, self._stamp
        stamp(_new_tuple(TraceEvent, (requested, cid, item_id, OP_REL, mode, OUT_REQ, seq)))
        stamp(_new_tuple(TraceEvent, (trace._clock(), cid, item_id, OP_REL, mode, OUT_ACK, seq)))

    def close(self) -> None:
        self.conn.close()
