"""TCP-emulated transport: the queue-pair surface across real sockets.

The passive side runs a `TcpAgent`, which plays the role of the NIC: a
`verbs.InprocFabric` behind a listening socket.  Each connection gets the
fabric's queue pair for its client, and every frame on it runs one call
of that queue pair, so the agent has no verb code and no application
logic of its own.  Every frame is one bounded step: a one-sided verb on
one word, or a poll that waits at most `_POLL_SLICE`.
`TcpFabric.connect()` opens one socket and starts no thread; its
`TcpQueuePair` has the in-process queue pair's surface, so lock managers
run unchanged on either transport.  Each call, two-sided ones included,
is one request/reply frame pair, except that `poll_recv` repeats its
POLL frame until a completion, its own deadline or the close of the
agent-side queue pair.  (Only lockperf's per-layer SEND/RECV timings use
the two-sided calls.)  Serial stamps cross the wire, so linearizability
checks work here too.
"""

from __future__ import annotations

import socket
import struct
import math
import threading
import time
from contextlib import suppress

from . import framing
from .errors import ProtocolError
from .framing import recv_frame, send_frame
from .verbs import (
    _CAS,
    _FA,
    _READ,
    _WRITE,
    Completion,
    CompletionStatus,
    InprocFabric,
    QueuePair,
    VerbKind,
)

# Verb request: kind, region_id, offset, length, operand_a, operand_b
# (+ payload bytes for WRITE and SEND).  RECV posts a receive of `length`
# bytes; POLL waits up to operand_a µs, and never beyond _POLL_SLICE, for one.
VERB_HEADER = struct.Struct("<BIQIQQ")
# Verb reply: status (| _QP_CLOSED), serial+1 (0 = no serial) + payload bytes.
REPLY_HEADER = struct.Struct("<BQ")
# Hello, both directions: the client ID (0 in a request: assign one).
HELLO = struct.Struct("<I")
# The longest frame each side reads; a longer length prefix ends the
# connection before anything is allocated for it.
MAX_REQUEST = VERB_HEADER.size + 64 * 1024
MAX_REPLY = REPLY_HEADER.size + 64 * 1024

_POLL = 7  # wire kind of poll_recv; not a verb
# Reply status bit: the agent-side queue pair is closed (its peer closed it).
_QP_CLOSED = 0x80
# The longest a POLL frame occupies its connection's thread, so the agent
# reads a client's hang-up within this many seconds.
_POLL_SLICE = 0.05
# How long close() waits for the agent's EOF.  Verbs set no timeout: CPython
# polls before every recv on a socket that has one.
CLOSE_WAIT_S = 3.0

_SEND, _RECV = VerbKind.SEND, VerbKind.RECV
_RECEIVED = (CompletionStatus.OK, CompletionStatus.TRUNCATED)
_STATUSES = frozenset(CompletionStatus)
_RECV_POSTED = Completion(_RECV, CompletionStatus.OK)
_EMPTY_POLL = Completion(_RECV, CompletionStatus.RECEIVER_NOT_READY)
_BAD_REQUEST = Completion(_RECV, CompletionStatus.BAD_REQUEST)


def _execute(qp: QueuePair, frame: bytes) -> bytes:
    """Run one request frame on `qp`; returns the reply frame."""
    if len(frame) < VERB_HEADER.size:
        completion = _BAD_REQUEST
    else:
        kind, region_id, offset, length, op_a, op_b = VERB_HEADER.unpack_from(frame)
        if kind == _READ:
            completion = qp.post_read(region_id, offset, length)
        elif kind == _WRITE:
            completion = qp.post_write(region_id, offset, frame[VERB_HEADER.size :])
        elif kind == _CAS:
            completion = qp.post_cas(region_id, offset, op_a, op_b)
        elif kind == _FA:
            completion = qp.post_fa(region_id, offset, op_a)
        elif kind == _SEND:
            completion = qp.post_send(frame[VERB_HEADER.size :])
        elif kind == _RECV:
            qp.post_recv(length)
            completion = _RECV_POSTED
        elif kind == _POLL:
            completion = qp.poll_recv(min(op_a / 1e6, _POLL_SLICE)) or _EMPTY_POLL
        else:
            completion = _BAD_REQUEST
    status, serial = completion.status, completion.serial
    return REPLY_HEADER.pack(
        status | _QP_CLOSED if qp.closed else status, 0 if serial is None else serial + 1
    ) + completion.payload


class TcpAgent(InprocFabric):
    """Passive-side host: an `InprocFabric` served over TCP.

    One thread per connection runs its client's queue pair.  When the
    connection ends, from either side, that thread closes the queue pair,
    and with it the peer, exactly as a client's close does in process.
    """

    def __init__(self):
        super().__init__()
        self._conns: set[socket.socket] = set()
        self._listen_sock: socket.socket | None = None
        self._closing = False

    def start(self) -> tuple[str, int]:
        sock = self._listen_sock = framing.listen("127.0.0.1", 0)
        threading.Thread(target=self._accept_loop, name="tcpagent-accept", daemon=True).start()
        return sock.getsockname()

    def stop(self) -> None:
        """Stop accepting and end every connection (each one's thread then
        closes its queue pair)."""
        with self._lock:
            self._closing = True
            conns = list(self._conns)
        if self._listen_sock is not None:
            framing.close(self._listen_sock)  # the shutdown wakes accept()
        self.close()
        for conn in conns:
            framing.close(conn)

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listen_sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), name="tcpagent-conn", daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        """Serve one connection: a hello, then verb frames until it ends."""
        qp = None
        try:
            with self._lock:
                if self._closing:
                    return
                self._conns.add(conn)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = recv_frame(conn, MAX_REQUEST)
            if hello is None or len(hello) != HELLO.size:
                return
            (client_id,) = HELLO.unpack(hello)
            qp = self.connect(client_id or None)
            send_frame(conn, HELLO.pack(qp.client_id))
            while (frame := recv_frame(conn, MAX_REQUEST)) is not None:
                send_frame(conn, _execute(qp, frame))
        except OSError:
            pass
        finally:
            with self._lock:
                self._conns.discard(conn)
            if qp is not None:
                qp.close()
            framing.close(conn)


class TcpQueuePair:
    """Client-side queue pair: every call is one request/reply frame pair
    on the connection's one socket, run by the agent on its queue pair for
    this client.

    `closed` turns True on this end's close, when the connection is lost,
    and on the first reply after the peer closed the agent-side queue
    pair.  As in process, a peer's close stops no call: a SEND then
    completes RECEIVER_NOT_READY, and one-sided verbs still work.  After
    this end's close, a call raises ConnectionError (a poll returns None).
    """

    def __init__(self, client_id: int, sock: socket.socket):
        self.client_id = client_id
        self.closed = False
        self._sock = sock
        self._lock = threading.Lock()

    def _rpc(self, kind: int, region_id: int = 0, offset: int = 0,
             length: int = 0, op_a: int = 0, op_b: int = 0, payload: bytes = b"") -> Completion:
        try:
            frame = VERB_HEADER.pack(kind, region_id, offset, length, op_a, op_b) + payload
        except struct.error:  # e.g. a negative offset: outside every region, as in process
            return Completion(kind, CompletionStatus.LOCAL_ACCESS_ERROR)
        with self._lock:
            try:
                send_frame(self._sock, frame)
                reply = recv_frame(self._sock, MAX_REPLY)
            except OSError:
                reply = None
        if reply is None:
            self.closed = True
            raise ConnectionError("verb channel closed or reply over MAX_REPLY bytes")
        if len(reply) < REPLY_HEADER.size or reply[0] & ~_QP_CLOSED not in _STATUSES:
            raise ProtocolError(f"malformed verb reply {reply[:REPLY_HEADER.size]!r}")
        status, serial_plus1 = REPLY_HEADER.unpack_from(reply)
        if status & _QP_CLOSED:
            self.closed = True
            status ^= _QP_CLOSED
        serial = serial_plus1 - 1 if serial_plus1 else None
        return Completion(kind, CompletionStatus(status), reply[REPLY_HEADER.size :], serial)

    def post_read(self, region_id: int, offset: int, length: int) -> Completion:
        return self._rpc(_READ, region_id, offset, length)

    def post_write(self, region_id: int, offset: int, payload: bytes) -> Completion:
        return self._rpc(_WRITE, region_id, offset, payload=payload)

    def post_cas(self, region_id: int, offset: int, expected: int, swap: int) -> Completion:
        return self._rpc(_CAS, region_id, offset, op_a=expected, op_b=swap)

    def post_fa(self, region_id: int, offset: int, addend: int) -> Completion:
        return self._rpc(_FA, region_id, offset, op_a=addend)

    def post_send(self, payload: bytes) -> Completion:
        return self._rpc(_SEND, payload=payload)

    def post_recv(self, capacity: int) -> None:
        self._rpc(_RECV, length=capacity)

    def poll_recv(self, timeout: float | None = None) -> Completion | None:
        """Pop the next receive completion; None on timeout or close.  Each
        POLL frame waits at most `_POLL_SLICE` at the agent."""
        deadline = math.inf if timeout is None else time.monotonic() + timeout
        while True:
            left = min(deadline - time.monotonic(), _POLL_SLICE)
            try:
                completion = self._rpc(_POLL, op_a=max(0, round(left * 1e6)))
            except ConnectionError:
                return None
            if completion.status in _RECEIVED:
                return completion._replace(op_kind=_RECV)
            if self.closed or left < _POLL_SLICE:
                return None

    def close(self) -> None:
        """Close this end.  With no call in flight, half-close and wait up
        to CLOSE_WAIT_S for the agent's EOF, which follows its close of the
        agent-side queue pair: the peer sees the close before this returns.
        A call in flight ends when the socket closes."""
        self.closed = True
        if self._lock.acquire(blocking=False):
            try:
                with suppress(OSError):  # socket.timeout included
                    self._sock.settimeout(CLOSE_WAIT_S)
                    self._sock.shutdown(socket.SHUT_WR)
                    self._sock.recv(1)
            finally:
                self._lock.release()
        framing.close(self._sock)


class TcpFabric:
    """Client-side connector to a TcpAgent."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    def connect(self, client_id: int | None = None) -> TcpQueuePair:
        """Open one socket and say hello; the agent confirms `client_id`
        or assigns one."""
        if client_id is not None and client_id < 1:
            raise ValueError("client IDs start at 1")
        hello = HELLO.pack(client_id or 0)
        sock = framing.connect(self.host, self.port)
        try:
            send_frame(sock, hello)
            reply = recv_frame(sock, HELLO.size)
            if reply is None or len(reply) != HELLO.size:
                raise ConnectionError("handshake failed")
        except OSError:  # ConnectionError included
            framing.close(sock)
            raise
        return TcpQueuePair(HELLO.unpack(reply)[0], sock)
