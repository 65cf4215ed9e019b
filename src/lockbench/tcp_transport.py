"""TCP-emulated transport: the queue-pair surface across real sockets.

The passive side runs a `TcpAgent`, which plays the role of the NIC: it
owns the registered regions and executes every one-sided verb that
arrives, without ever calling into application code.  The active side
uses `TcpFabric.connect()` to get a `TcpQueuePair` exposing the same
post_read/post_write/post_cas/post_fa/post_send/post_recv/poll_recv
surface as the in-process queue pair, so lock managers run unchanged on
either transport.

Each connected client holds two sockets:

* the verb channel — client-initiated request/reply frames carrying
  one-sided verbs and outbound SENDs (one in flight per queue pair);
* the delivery channel — agent-initiated frames carrying SENDs addressed
  to the client, each answered with a status byte computed against the
  client's locally posted receive buffers, so receiver-not-ready is
  honest in both directions.

SENDs from a client land in a server-side queue-pair object the agent
offers to its accept queue; only lockperf's per-layer SEND/RECV timings
use it, as the lock server takes framed sockets over TCP.  Both receiving
ends, that object and the client's `TcpQueuePair`, are a `verbs.Mailbox`,
so a SEND is matched against posted receives by the same code as in
process.  On the delivery channel the client matches, puts the status
byte on the wire, and only then makes the completion visible.  Atomic
completions carry the region's per-word serial stamps across the wire, so
linearizability checks work on this transport too.
"""

from __future__ import annotations

import itertools
import socket
import struct
import threading

from . import framing
from .framing import recv_frame, send_frame
from .verbs import (
    _CAS,
    _FA,
    _OK,
    _READ,
    _RNR,
    _SEND,
    _WRITE,
    Completion,
    CompletionStatus,
    Mailbox,
    RegionAccessError,
    RegionRegistry,
    SrListener,
    VerbKind,
)

# Verb request: kind, region_id, offset, length, operand_a, operand_b
# (+ payload bytes for WRITE and SEND).
VERB_HEADER = struct.Struct("<BIQIQQ")
# Verb reply: status, serial+1 (0 = no serial) + payload bytes.
REPLY_HEADER = struct.Struct("<BQ")
# Hello (both directions): kind/status + client_id.
HELLO = struct.Struct("<BI")

CHANNEL_VERB = 1
CHANNEL_DELIVERY = 2

_HELLO_OK = 0
_HELLO_BAD = 1


def _pack_reply(status: CompletionStatus, serial: int | None, payload: bytes = b"") -> bytes:
    return REPLY_HEADER.pack(status, 0 if serial is None else serial + 1) + payload


def _unpack_reply(frame: bytes) -> tuple[CompletionStatus, int | None, bytes]:
    status, serial_plus1 = REPLY_HEADER.unpack_from(frame)
    serial = None if serial_plus1 == 0 else serial_plus1 - 1
    return CompletionStatus(status), serial, frame[REPLY_HEADER.size :]


class _AgentServerQp(Mailbox):
    """Server-side queue pair living inside the agent process.

    Receives are local; a SEND travels the delivery channel and completes
    with the status the remote client reported against its own posted
    receive buffers.
    """

    def __init__(self, client_id: int, delivery_sock: socket.socket):
        super().__init__()
        self.client_id = client_id
        self._sock = delivery_sock
        self._send_lock = threading.Lock()

    def post_send(self, payload: bytes) -> Completion:
        with self._send_lock:
            if self.closed:
                return Completion(_SEND, _RNR)
            try:
                send_frame(self._sock, payload)
                status_frame = recv_frame(self._sock)
            except OSError:
                status_frame = None
            if status_frame is None or len(status_frame) != 1:
                return Completion(_SEND, _RNR)
            return Completion(_SEND, CompletionStatus(status_frame[0]))

    def close(self) -> None:
        if self.closed:
            return
        super().close()
        # Taking the send lock lets an in-flight post_send finish reading
        # its status byte before the socket is torn down; otherwise a reply
        # that was in fact delivered would report a phantom failure.
        with self._send_lock:
            framing.close(self._sock)


class TcpAgent(RegionRegistry):
    """Passive-side host: region registry, verb executor, SEND bridge.

    Runs no application logic — the lock managers' passive side is pure
    memory, exactly as on the in-process fabric.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        super().__init__()
        self._host = host
        self._port = port
        self._lock = threading.Lock()
        self._client_ids = itertools.count(1)
        self._server_qps: dict[int, _AgentServerQp] = {}
        self._verb_socks: set[socket.socket] = set()
        self._listener: SrListener | None = None
        self._listen_sock: socket.socket | None = None
        self._closing = False

    # -- host surface (mirrors InprocFabric) ----------------------------

    def sr_listen(self) -> SrListener:
        with self._lock:
            if self._listener is None:
                self._listener = SrListener()
            return self._listener

    def start(self) -> tuple[str, int]:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(128)
        self._listen_sock = sock
        self._spawn(self._accept_loop, "accept")
        return sock.getsockname()

    def stop(self) -> None:
        self._closing = True
        if self._listen_sock is not None:
            self._listen_sock.close()
        if self._listener is not None:
            self._listener.close()
        with self._lock:
            qps = list(self._server_qps.values())
            socks = list(self._verb_socks)
        for qp in qps:
            qp.close()
        for sock in socks:
            framing.close(sock)

    # -- connection handling ---------------------------------------------

    def _spawn(self, target, name: str, *args) -> None:
        threading.Thread(target=target, args=args, name=f"tcpagent-{name}", daemon=True).start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listen_sock.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._spawn(self._handshake, "hello", conn)

    def _handshake(self, conn: socket.socket) -> None:
        frame = recv_frame(conn)
        if frame is None or len(frame) != HELLO.size:
            conn.close()
            return
        kind, client_id = HELLO.unpack(frame)
        if kind == CHANNEL_VERB:
            if client_id == 0:
                with self._lock:
                    client_id = next(self._client_ids)
            send_frame(conn, HELLO.pack(_HELLO_OK, client_id))
            with self._lock:
                self._verb_socks.add(conn)
            self._verb_loop(conn, client_id)
        elif kind == CHANNEL_DELIVERY and client_id > 0:
            send_frame(conn, HELLO.pack(_HELLO_OK, client_id))
            qp = _AgentServerQp(client_id, conn)
            with self._lock:
                self._server_qps[client_id] = qp
                listener = self._listener
            if listener is not None:
                listener._offer(qp)
        else:
            send_frame(conn, HELLO.pack(_HELLO_BAD, 0))
            conn.close()

    def _verb_loop(self, conn: socket.socket, client_id: int) -> None:
        while True:
            frame = recv_frame(conn)
            if frame is None or self._closing:
                break
            try:
                reply = self._execute(frame, client_id)
            except Exception:
                reply = _pack_reply(CompletionStatus.BAD_REQUEST, None)
            try:
                send_frame(conn, reply)
            except OSError:
                break
        conn.close()
        with self._lock:
            self._verb_socks.discard(conn)
            qp = self._server_qps.pop(client_id, None)
        if qp is not None:
            qp.close()

    def _execute(self, frame: bytes, client_id: int) -> bytes:
        if len(frame) < VERB_HEADER.size:
            return _pack_reply(CompletionStatus.BAD_REQUEST, None)
        kind, region_id, offset, length, op_a, op_b = VERB_HEADER.unpack_from(frame)
        payload = frame[VERB_HEADER.size :]
        if kind == _SEND:
            with self._lock:
                qp = self._server_qps.get(client_id)
            if qp is None:
                return _pack_reply(_RNR, None)
            return _pack_reply(qp._deliver(payload), None)
        region = self._regions.get(region_id)
        if region is None:
            return _pack_reply(CompletionStatus.LOCAL_ACCESS_ERROR, None)
        try:
            if kind == _READ:
                data, serial = region.read(offset, length)
                return _pack_reply(_OK, serial, data)
            if kind == _WRITE:
                serial = region.write(offset, payload)
                return _pack_reply(_OK, serial)
            if kind == _CAS:
                old, serial = region.compare_and_swap(offset, op_a, op_b)
                return _pack_reply(_OK, serial, old.to_bytes(8, "little"))
            if kind == _FA:
                old, serial = region.fetch_and_add(offset, op_a)
                return _pack_reply(_OK, serial, old.to_bytes(8, "little"))
        except RegionAccessError:
            return _pack_reply(CompletionStatus.LOCAL_ACCESS_ERROR, None)
        return _pack_reply(CompletionStatus.BAD_REQUEST, None)


class TcpQueuePair(Mailbox):
    """Client-side queue pair over the two-socket TCP channel pair."""

    def __init__(self, client_id: int, verb_sock: socket.socket, delivery_sock: socket.socket):
        super().__init__()
        self.client_id = client_id
        self._verb_sock = verb_sock
        self._verb_lock = threading.Lock()
        # Only this queue pair's own close() ends the verb channel: after
        # the peer's close, a SEND still reaches the agent and completes
        # RECEIVER_NOT_READY, and one-sided verbs still work.
        self._verbs_open = True
        self._delivery_sock = delivery_sock
        self._reader = threading.Thread(
            target=self._delivery_loop, name=f"tcpqp-delivery-{client_id}", daemon=True
        )
        self._reader.start()

    # -- verb channel ----------------------------------------------------

    def _rpc(self, kind: VerbKind, region_id: int = 0, offset: int = 0,
             length: int = 0, op_a: int = 0, op_b: int = 0, payload: bytes = b"") -> Completion:
        try:
            frame = VERB_HEADER.pack(kind, region_id, offset, length, op_a, op_b) + payload
        except struct.error:  # e.g. a negative offset: outside every region, as in process
            return Completion(kind, CompletionStatus.LOCAL_ACCESS_ERROR)
        with self._verb_lock:
            if not self._verbs_open:
                return Completion(kind, CompletionStatus.LOCAL_ACCESS_ERROR)
            try:
                send_frame(self._verb_sock, frame)
                reply = recv_frame(self._verb_sock)
            except OSError:
                reply = None
        if reply is None:
            raise ConnectionError("verb channel closed")
        status, serial, data = _unpack_reply(reply)
        return Completion(kind, status, data, serial)

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

    # -- delivery channel ------------------------------------------------

    def _delivery_loop(self) -> None:
        while True:
            payload = recv_frame(self._delivery_sock)
            if payload is None:
                Mailbox.close(self)
                return
            completion = self._match(payload)
            status = _RNR if completion is None else completion.status
            # The status byte must be on the wire before the completion is
            # visible locally: a consumer that wakes and closes this queue
            # pair must not be able to cut off the in-flight status reply.
            try:
                send_frame(self._delivery_sock, bytes([status]))
            except OSError:
                pass
            if completion is not None:
                self._inbox.put(completion)

    def close(self) -> None:
        self._verbs_open = False
        super().close()
        framing.close(self._verb_sock)
        framing.close(self._delivery_sock)


class TcpFabric:
    """Client-side connector to a TcpAgent."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    def _open_channel(self, kind: int, client_id: int) -> tuple[socket.socket, int]:
        """Connect one channel and say hello; returns the socket and the
        client ID the agent confirmed or assigned."""
        sock = framing.connect(self.host, self.port)
        send_frame(sock, HELLO.pack(kind, client_id))
        reply = recv_frame(sock)
        if reply is None or len(reply) != HELLO.size or HELLO.unpack(reply)[0] != _HELLO_OK:
            framing.close(sock)
            raise ConnectionError(f"channel {kind} handshake failed")
        return sock, HELLO.unpack(reply)[1]

    def connect(self, client_id: int | None = None) -> TcpQueuePair:
        if client_id is not None and client_id < 1:
            raise ValueError("client IDs start at 1")
        verb_sock, assigned = self._open_channel(CHANNEL_VERB, client_id or 0)
        try:
            delivery_sock, _ = self._open_channel(CHANNEL_DELIVERY, assigned)
        except OSError:  # ConnectionError included
            framing.close(verb_sock)
            raise
        return TcpQueuePair(assigned, verb_sock, delivery_sock)
