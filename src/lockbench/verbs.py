"""Emulated RDMA verb layer.

Provides registered memory regions, queue pairs and completions, with
one-sided READ/WRITE/CAS/FA executed against region memory and two-sided
SEND/RECV between paired endpoints.  A completion is `(status, payload,
serial)`: each call returns its own, so none names its verb.  An
`InprocFabric` registers regions and creates queue pairs; in-process
clients call those directly, and `tcp_transport.TcpAgent` is an
`InprocFabric` that runs each arriving frame on the queue pair of its
connection, so both transports share this code.

Every in-process receive waits on an `Inbox`, one closeable C-level
queue: a queue pair's RECV completions, a listener's accepted queue
pairs and, in `server_lm`, an in-process channel's replies.

A region stores one Python int per 8-byte little-endian word, so CAS and
FA are plain integer operations, and a READ or WRITE is a shift and a
mask.  Every one-sided verb touches one word, the unit of NIC atomics, and
runs under that word's lock, so any mix of CAS, FA, half-word WRITE and
READ on one word is linearizable and a 4-byte release WRITE cannot tear a
concurrent FA on the other half.  A READ or WRITE that crosses a word
boundary is rejected: no verb holds more than one word lock.
"""

from __future__ import annotations

import itertools
import queue
import threading
from collections import deque
from enum import IntEnum
from typing import NamedTuple

WORD_SIZE = 8
U64_MASK = 0xFFFFFFFFFFFFFFFF


class VerbKind(IntEnum):
    READ = 1
    WRITE = 2
    CAS = 3
    FA = 4
    SEND = 5
    RECV = 6


class CompletionStatus(IntEnum):
    OK = 0
    RECEIVER_NOT_READY = 1
    LOCAL_ACCESS_ERROR = 2
    TRUNCATED = 3
    BAD_REQUEST = 4


# Enum members read as module globals: class attribute access on an enum
# costs several times a global lookup, and these sit on every verb.
_OK, _RNR = CompletionStatus.OK, CompletionStatus.RECEIVER_NOT_READY


class Completion(NamedTuple):
    """Result of one posted verb (immutable).

    `payload` carries the old value (little-endian, 8 bytes) for atomics,
    the data snapshot for READ, and the message for RECV.  `serial` is the
    per-word serialization stamp that every successful one-sided verb
    carries (two-sided completions have none); replaying completions in
    serial order reproduces the word's history.
    """

    status: CompletionStatus
    payload: bytes = b""
    serial: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == _OK

    @property
    def value(self) -> int:
        """Payload decoded as a little-endian unsigned integer."""
        return int.from_bytes(self.payload, "little")


class RegionAccessError(Exception):
    """Out-of-bounds, misaligned or word-crossing access to a registered region."""


class MemoryRegion:
    """A registered, zero-initialized byte region.

    8-byte atomics must target 8-byte-aligned offsets; READ/WRITE may
    target any in-bounds (offset, length) that lies inside one word.  Each
    access takes that word's lock and returns its next serial stamp.
    """

    def __init__(self, region_id: int, length: int):
        if length <= 0:
            raise ValueError("region length must be positive")
        self.region_id = region_id
        self.length = length
        n_words = (length + WORD_SIZE - 1) // WORD_SIZE
        self._words = [0] * n_words
        self._word_locks = [threading.Lock() for _ in range(n_words)]
        self._word_serials = [0] * n_words

    def _check_bounds(self, offset: int, length: int) -> None:
        if offset < 0 or length < 1 or offset + length > self.length:
            raise RegionAccessError(
                f"access [{offset}, {offset + length}) outside region of {self.length} bytes"
            )

    def _reject_atomic(self, offset: int) -> None:
        self._check_bounds(offset, WORD_SIZE)
        raise RegionAccessError(f"atomic offset {offset} not 8-byte aligned")

    def read(self, offset: int, length: int) -> tuple[bytes, int]:
        """Atomic snapshot of `length` bytes in one word; returns (data, serial)."""
        self._check_bounds(offset, length)
        w = offset // WORD_SIZE
        if (offset + length - 1) // WORD_SIZE != w:
            raise RegionAccessError(f"access [{offset}, {offset + length}) crosses a word boundary")
        shift = (offset % WORD_SIZE) * 8
        serials = self._word_serials
        with self._word_locks[w]:
            word = self._words[w]
            serial = serials[w] = serials[w] + 1
        return ((word >> shift) & ((1 << 8 * length) - 1)).to_bytes(length, "little"), serial

    def write(self, offset: int, payload: bytes) -> int:
        """Atomic store of `payload` in one word; returns its serial."""
        length = len(payload)
        self._check_bounds(offset, length)
        w = offset // WORD_SIZE
        if (offset + length - 1) // WORD_SIZE != w:
            raise RegionAccessError(f"access [{offset}, {offset + length}) crosses a word boundary")
        shift = (offset % WORD_SIZE) * 8
        keep = ~(((1 << 8 * length) - 1) << shift)
        value = int.from_bytes(payload, "little") << shift
        serials = self._word_serials
        with self._word_locks[w]:
            self._words[w] = (self._words[w] & keep) | value
            serial = serials[w] = serials[w] + 1
            return serial

    def compare_and_swap(self, offset: int, expected: int, swap: int) -> tuple[int, int]:
        """Atomic 8-byte CAS; returns (old value, serial). Old value is
        returned whether or not the swap took place."""
        if offset & 7 or not 0 <= offset <= self.length - WORD_SIZE:
            self._reject_atomic(offset)
        w = offset >> 3
        words, serials = self._words, self._word_serials
        with self._word_locks[w]:
            old = words[w]
            if old == expected:
                words[w] = swap & U64_MASK
            serial = serials[w] = serials[w] + 1
            return old, serial

    def fetch_and_add(self, offset: int, addend: int) -> tuple[int, int]:
        """Atomic 8-byte add modulo 2^64; returns (old value, serial)."""
        if offset & 7 or not 0 <= offset <= self.length - WORD_SIZE:
            self._reject_atomic(offset)
        w = offset >> 3
        words, serials = self._words, self._word_serials
        with self._word_locks[w]:
            old = words[w]
            words[w] = (old + addend) & U64_MASK
            serial = serials[w] = serials[w] + 1
            return old, serial

    def snapshot_word(self, item: int) -> int:
        """Read word `item` (for assertions and quiescence checks)."""
        data, _ = self.read(item * WORD_SIZE, WORD_SIZE)
        return int.from_bytes(data, "little")


# Builds an OK completion without the NamedTuple constructor's Python frame.
_new_tuple = tuple.__new__

_ACCESS_ERROR = Completion(CompletionStatus.LOCAL_ACCESS_ERROR)
_TRUNCATED = Completion(CompletionStatus.TRUNCATED)

_CLOSED = object()  # what `Inbox.close` queues


class Inbox(queue.SimpleQueue):
    """A closeable C-level queue: every in-process receive waits on one.

    `put` is the C-level put.  `close` queues a sentinel behind every item
    put so far: those are still taken, and the take that reaches the
    sentinel puts it back (waking any other taker) and returns None, as
    does every later take, even of an item put after the close.
    """

    closed = False
    _ended = False

    def take(self, timeout: float | None = None):
        """The next item; None on timeout or close."""
        if self._ended:
            return None
        try:
            item = self.get(True, timeout)
        except queue.Empty:
            return None
        if item is _CLOSED:
            self._ended = True
            self.put(_CLOSED)
            return None
        return item

    accept = take  # a listener's items are the server sides of connects

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.put(_CLOSED)


class QueuePair:
    """A fabric's queue pair, called by an in-process client or by a TCP
    agent's connection for its client.

    One-sided verbs execute directly against the fabric's region registry
    (the passive side runs no code, mirroring RNIC DMA).  Two-sided SEND
    targets the peer queue pair and requires a pre-posted RECEIVE there.
    A queue pair is owned by one actor: callers post at most one verb at a
    time, and only the owner polls receives.  Posted receives sit in a
    deque, whose `append`/`popleft` are atomic, so posting and matching
    take no lock, even with several senders.
    """

    def __init__(self, fabric: "InprocFabric", client_id: int):
        self._regions = fabric._regions
        self.client_id = client_id
        self.peer: QueuePair | None = None
        self._recv_buffers: deque[int] = deque()
        self._inbox = Inbox()

    @property
    def closed(self) -> bool:
        return self._inbox.closed

    # -- one-sided -----------------------------------------------------
    # An unknown region (KeyError from the registry's live dict) or a
    # rejected access completes LOCAL_ACCESS_ERROR.

    def post_read(self, region_id: int, offset: int, length: int) -> Completion:
        try:
            data, serial = self._regions[region_id].read(offset, length)
        except (KeyError, RegionAccessError):
            return _ACCESS_ERROR
        return _new_tuple(Completion, (_OK, data, serial))

    def post_write(self, region_id: int, offset: int, payload: bytes) -> Completion:
        try:
            serial = self._regions[region_id].write(offset, payload)
        except (KeyError, RegionAccessError):
            return _ACCESS_ERROR
        return _new_tuple(Completion, (_OK, b"", serial))

    def post_cas(self, region_id: int, offset: int, expected: int, swap: int) -> Completion:
        try:
            old, serial = self._regions[region_id].compare_and_swap(offset, expected, swap)
        except (KeyError, RegionAccessError):
            return _ACCESS_ERROR
        return _new_tuple(Completion, (_OK, old.to_bytes(8, "little"), serial))

    def post_fa(self, region_id: int, offset: int, addend: int) -> Completion:
        try:
            old, serial = self._regions[region_id].fetch_and_add(offset, addend)
        except (KeyError, RegionAccessError):
            return _ACCESS_ERROR
        return _new_tuple(Completion, (_OK, old.to_bytes(8, "little"), serial))

    # -- two-sided -----------------------------------------------------

    def post_send(self, payload: bytes) -> Completion:
        """Complete the peer's oldest posted receive on its inbox (TRUNCATED
        if too small); receiver-not-ready without one or once it closed."""
        peer = self.peer
        if peer is None or peer._inbox.closed:
            return Completion(_RNR)
        try:
            capacity = peer._recv_buffers.popleft()
        except IndexError:
            return Completion(_RNR)
        completion = _TRUNCATED if capacity < len(payload) else _new_tuple(Completion, (_OK, payload, None))
        peer._inbox.put(completion)
        return Completion(completion.status)

    def post_recv(self, capacity: int) -> None:
        """Post a receive buffer; must happen before the matching SEND."""
        self._recv_buffers.append(capacity)

    def poll_recv(self, timeout: float | None = None) -> Completion | None:
        """Pop the next receive completion; None on timeout or close."""
        return self._inbox.take(timeout)

    def close(self) -> None:
        self._inbox.close()
        peer = self.peer
        if peer is not None and not peer.closed:
            self.peer = None
            peer.close()


class InprocFabric:
    """A verb host: the region registry plus queue-pair wiring.

    Regions are only ever added, under `_lock`, to `_regions`; a dict read
    is atomic, so lookups on the verb path take no lock, and a reference
    to the dict is a live view of every region registered later.
    """

    def __init__(self):
        self._regions: dict[int, MemoryRegion] = {}
        self._region_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._client_ids = itertools.count(1)
        self._listener: Inbox | None = None

    def register_region(self, length: int) -> MemoryRegion:
        with self._lock:
            region = MemoryRegion(next(self._region_ids), length)
            self._regions[region.region_id] = region
            return region

    def sr_listen(self) -> Inbox:
        with self._lock:
            if self._listener is None:
                self._listener = Inbox()
            return self._listener

    def connect(self, client_id: int | None = None) -> QueuePair:
        """Create a client-side queue pair; dense client IDs are assigned
        starting at 1 when the caller does not supply one, and a supplied
        one must lie in 1..2**32 - 1.  Once the listener is closed, the
        pair comes back already closed."""
        with self._lock:
            if client_id is None:
                client_id = next(self._client_ids)
            if not 0 < client_id < 1 << 32:  # a hello and a lock word's owner half hold 32 bits
                raise ValueError("client IDs must be in [1, 2**32 - 1]")
            qp = QueuePair(self, client_id)
            if self._listener is not None:
                qp.peer = server_qp = QueuePair(self, client_id)
                server_qp.peer = qp
                if self._listener.closed:
                    server_qp.close()  # no accept would ever take it
                else:
                    self._listener.put(server_qp)
            return qp

    def close(self) -> None:
        """Close the listener, if any; queue pairs stay open."""
        if self._listener is not None:  # set once, never unset
            self._listener.close()
