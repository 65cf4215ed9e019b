"""Trace events and the on-disk trace format.

One event per line: `timestamp_ns,client_id,item_id,op,mode,outcome` with
mode in {SHARED, EXCLUSIVE} and (op, outcome) one of the six pairs in
`PHASE_RANK`: ACQ with REQ, GRANT or TIMEOUT; REL with REQ, TIMEOUT or ACK.
Timestamps come from the shared monotonic clock. In a merged trace they
are strictly increasing per recording source, so a sorted trace preserves
each client's program order.
"""

from __future__ import annotations

import time
from collections import defaultdict
from itertools import chain, islice
from operator import itemgetter, lt
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

# The (op, outcome) pairs recorders stamp, each with its lifecycle phase,
# which orders equal stamps: REQ precedes GRANT precedes release.
PHASE_RANK = {
    (OP_ACQ, OUT_REQ): 0,
    (OP_ACQ, OUT_GRANT): 1,
    (OP_ACQ, OUT_TIMEOUT): 1,
    (OP_REL, OUT_REQ): 2,
    (OP_REL, OUT_TIMEOUT): 2,
    (OP_REL, OUT_ACK): 3,
}


class TraceEvent(NamedTuple):
    timestamp_ns: int
    client_id: int
    item_id: int
    op: str
    mode: str
    outcome: str


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
        )
    )


def parse_line(line: str, lineno: int) -> TraceEvent:
    parts = line.strip().split(",")
    if len(parts) != 6:
        raise TraceParseError(lineno, f"expected 6 fields, got {len(parts)}")
    ts_s, client_s, item_s, op, mode, outcome = parts
    try:
        ts, client, item = int(ts_s), int(client_s), int(item_s)
    except ValueError as exc:
        raise TraceParseError(lineno, str(exc)) from None
    if mode not in MODES:
        raise TraceParseError(lineno, f"unknown mode {mode!r}")
    if (op, outcome) not in PHASE_RANK:
        raise TraceParseError(lineno, f"no recorder stamps {op}/{outcome}")
    return TraceEvent(ts, client, item, op, mode, outcome)


def write_trace(path, events: Iterable[TraceEvent]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for event in events:
            fh.write(format_event(event))
            fh.write("\n")


def read_trace(path) -> list[TraceEvent]:
    events = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                events.append(parse_line(line, lineno))
    return events


_timestamp = itemgetter(0)


def sort_key(e: TraceEvent):
    """Stamp; equal stamps by lifecycle phase, client, item."""
    return e[0], PHASE_RANK[(e[3], e[5])], e[1], e[2]


def sort_events(events) -> list[TraceEvent]:
    """Order by `sort_key`; full ties keep input order."""
    return sorted(events, key=sort_key)


def _bump(buffer):
    """One source's events by stamp (stable), each moved to `max(ts, last + 1)`."""
    last = -1
    for e in sorted(buffer, key=_timestamp):
        last = max(e[0], last + 1)
        yield e if e[0] == last else e._replace(timestamp_ns=last)


_clock = time.monotonic_ns
_new_tuple = tuple.__new__


class TraceRecorder:
    """Append-only event buffers, one per recording source (client ID, or 0
    for the server).  An actor appends `tuple.__new__(TraceEvent,
    (trace._clock(), ...))` to its source's `stamper` inline, taking no lock
    (list.append is atomic under the GIL).  `sorted_events` merges by stamp;
    only when two stamps are equal does it `_bump` each buffer's equal stamps
    apart.  The in-process server's buffer is appended to from several client
    threads, so its append order need not be its stamp order."""

    def __init__(self):
        self._buffers: defaultdict[int, list[TraceEvent]] = defaultdict(list)
        self._extended: list[TraceEvent] = []

    def stamper(self, source: int):
        """The bound `append` of `source`'s buffer."""
        return self._buffers[source].append

    def record(self, source: int, client_id: int, item_id: int, op: str, mode: str, outcome: str) -> None:
        self._buffers[source].append(_new_tuple(TraceEvent, (_clock(), client_id, item_id, op, mode, outcome)))

    def extend(self, events: Iterable[TraceEvent]) -> None:
        self._extended.extend(events)

    def sorted_events(self) -> list[TraceEvent]:
        ordered = sorted(chain(self._extended, *self._buffers.values()), key=_timestamp)
        stamps = list(map(_timestamp, ordered))
        if all(map(lt, stamps, islice(stamps, 1, None))):  # no two stamps equal
            return ordered
        return sort_events(chain(self._extended, *map(_bump, self._buffers.values())))
