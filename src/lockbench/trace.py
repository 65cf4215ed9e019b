"""Trace events and the on-disk trace format.

One event per line: `timestamp_ns,client_id,item_id,op,mode,outcome,seq`
with mode in {SHARED, EXCLUSIVE} and (op, outcome) one of the six pairs
recorders stamp, `STAMPED_PAIRS`: ACQ with REQ, GRANT or TIMEOUT; REL with
REQ, TIMEOUT or ACK.  The set orders nothing.
`seq` is the event's position in its item's linearization: the serial of
the verb on the item's lock word (client-centric) or the item queue's
counter under its mutex (server designs).  One client's events may share a
`seq`; they keep program order.  Timestamps come from the shared monotonic
clock and feed only latencies.  They never decrease within a client's
buffer, stamped in place or shipped from the client's process, so a
stable sort by stamp keeps each client's program order.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple

OP_ACQ = "ACQ"
OP_REL = "REL"
OPS = (OP_ACQ, OP_REL)

MODE_SHARED = "SHARED"
MODE_EXCLUSIVE = "EXCLUSIVE"
MODES = (MODE_SHARED, MODE_EXCLUSIVE)

OUT_REQ = "REQ"
OUT_GRANT = "GRANT"
OUT_ACK = "ACK"
OUT_TIMEOUT = "TIMEOUT"
OUTCOMES = (OUT_REQ, OUT_GRANT, OUT_ACK, OUT_TIMEOUT)

# The (op, outcome) pairs recorders stamp.
STAMPED_PAIRS = frozenset(
    {
        (OP_ACQ, OUT_REQ),
        (OP_ACQ, OUT_GRANT),
        (OP_ACQ, OUT_TIMEOUT),
        (OP_REL, OUT_REQ),
        (OP_REL, OUT_TIMEOUT),
        (OP_REL, OUT_ACK),
    }
)


class TraceEvent(NamedTuple):
    timestamp_ns: int
    client_id: int
    item_id: int
    op: str
    mode: str
    outcome: str
    seq: int = 0


class TraceParseError(Exception):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def format_event(event: TraceEvent) -> str:
    return ",".join(
        (
            str(event.timestamp_ns),
            str(event.client_id),
            str(event.item_id),
            event.op,
            event.mode,
            event.outcome,
            str(event.seq),
        )
    )


def parse_line(line: str, lineno: int) -> TraceEvent:
    parts = line.strip().split(",")
    if len(parts) != 7:
        raise TraceParseError(lineno, f"expected 7 fields, got {len(parts)}")
    ts_s, client_s, item_s, op, mode, outcome, seq_s = parts
    try:
        ts, client, item, seq = int(ts_s), int(client_s), int(item_s), int(seq_s)
    except ValueError as exc:
        raise TraceParseError(lineno, str(exc)) from None
    if mode not in MODES:
        raise TraceParseError(lineno, f"unknown mode {mode!r}")
    if (op, outcome) not in STAMPED_PAIRS:
        raise TraceParseError(lineno, f"no recorder stamps {op}/{outcome}")
    return TraceEvent(ts, client, item, op, mode, outcome, seq)


def write_trace(path, events: Iterable[TraceEvent]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for event in events:
            fh.write(format_event(event))
            fh.write("\n")


def read_trace(path) -> list[TraceEvent]:
    events = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("ascii")
            except UnicodeDecodeError as exc:
                raise TraceParseError(lineno, f"non-ASCII byte {raw[exc.start]:#04x}") from None
            if line.strip():
                events.append(parse_line(line, lineno))
    return events


_timestamp = itemgetter(0)


def sort_events(events) -> list[TraceEvent]:
    """Order by stamp; equal stamps keep input order."""
    return sorted(events, key=_timestamp)


_clock = time.monotonic_ns
_new_tuple = tuple.__new__

# The stamper of every actor built without a recorder: a C-level append
# that keeps nothing and is safe to share between threads.
DISCARD = deque(maxlen=0).append


class TraceRecorder:
    """Append-only event buffers, one per recording source (client ID, or 0
    for the server), and no other store.  An actor appends
    `tuple.__new__(TraceEvent, (trace._clock(), ..., seq))` to its source's
    `stamper` inline, taking no lock (list.append is atomic under the GIL),
    or to `DISCARD` if built without a recorder; a client that recorded
    elsewhere ships its events to its source's buffer with `extend`.
    `sorted_events` merges the buffers by stamp.  The in-process server's
    buffer is appended to from several client threads, so its append order
    need not be its stamp order; per item it is, since each item's stamps
    are taken under the item's mutex."""

    def __init__(self):
        self._buffers: defaultdict[int, list[TraceEvent]] = defaultdict(list)

    def stamper(self, source: int):
        """The bound `append` of `source`'s buffer."""
        return self._buffers[source].append

    def record(self, source: int, client_id: int, item_id: int, op: str, mode: str, outcome: str) -> None:
        """Stamp one event now, with `seq` 0."""
        event = (_clock(), client_id, item_id, op, mode, outcome, 0)
        self._buffers[source].append(_new_tuple(TraceEvent, event))

    def extend(self, source: int, events: Iterable[TraceEvent]) -> None:
        """Append `source`'s events, recorded elsewhere, to its buffer."""
        self._buffers[source].extend(events)

    def sorted_events(self) -> list[TraceEvent]:
        return sort_events(chain(*self._buffers.values()))
