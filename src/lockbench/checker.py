"""Offline safety and fairness oracle over recorded traces.

Every check is a view of one replay.  The replay buckets events by item
and replays each item in `seq` order, its position in the item's
linearization; equal `seq`s keep input order, which for a recorder's
merge is each client's program order.  No verdict reads a timestamp.

Why replaying `seq` order is sound:

- Client-centric: `seq` is the serial of the verb on the item's lock word,
  so the replay is the word's own history.  A grant takes the serial of
  the CAS that won, or of the FA or READ that saw no owner; a release, the
  serial of its WRITE or FA(-1).
- Server designs: `seq` is the item queue's counter, taken under the item
  mutex by each request, grant and release, so the replay is the server's
  own order.  The server's [grant, release] interval contains what the
  client believes it holds: the client learns of the grant after the
  server makes it, and releases before the server drops it.  A clean
  replay therefore means clean client beliefs.

See Herlihy & Wing, *Linearizability*, TOPLAS 1990, and Lamport, *Time,
Clocks, and the Ordering of Events*, CACM 1978.

The FIFO replay re-derives the server's admission rule from scratch (queue
arrival order from server-stamped REQ events, grants admissible only from
the compatible head batch) instead of importing the server's own scanner,
so a server bug cannot hide from its own checker.

An exhaustive model checker backs the trace oracle: `explore` registers a
one-word lock table and drives the real ClientSession through its handle,
by replay, through every interleaving of its verbs, rollback included.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from operator import itemgetter

from .client_lm import ClientSession
from .errors import AcquisitionTimeout, ProtocolError
from .locktable import TableHandle
from .trace import (
    MODE_EXCLUSIVE,
    MODE_SHARED,
    OP_ACQ,
    OUT_ACK,
    OUT_GRANT,
    OUT_REQ,
    OUT_TIMEOUT,
    TraceEvent,
    sort_events,  # re-exported: the recorder's merge order
)
from .verbs import WORD_SIZE, InprocFabric

DOUBLE_EXCLUSIVE = "DOUBLE_EXCLUSIVE"
SHARED_EXCLUSIVE_OVERLAP = "SHARED_EXCLUSIVE_OVERLAP"
FIFO_VIOLATION = "FIFO_VIOLATION"
CONSERVATION = "CONSERVATION"
ORPHAN_EVENT = "ORPHAN_EVENT"

DESIGN_SERVER_TCP = "server-tcp"
DESIGN_SERVER_SR = "server-sr"
DESIGN_CLIENT_CENTRIC = "client-centric"
SERVER_DESIGNS = (DESIGN_SERVER_TCP, DESIGN_SERVER_SR)
DESIGNS = SERVER_DESIGNS + (DESIGN_CLIENT_CENTRIC,)


class NotApplicableError(ValueError):
    """The requested check makes no claim about this design."""


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str
    events: tuple[TraceEvent, ...] = ()

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


_seq = itemgetter(6)


def _replay(events: list, fifo: bool) -> tuple[list, list, list]:
    """(safety, conservation, FIFO) violations, the FIFO list empty unless
    `fifo`.  Per item, in `seq` order: count lifecycles, replay holders
    (a GRANT checks the current holders, a REL/REQ removes one) and, if
    `fifo`, the queue: arrival order from server-stamped REQs, admission
    by the compatible head batch."""
    by_item: dict[int, list] = defaultdict(list)
    for event in events:
        by_item[event[2]].append(event)
    safety, fifo_violations, counts = [], [], {}
    for item, bucket in by_item.items():
        bucket.sort(key=_seq)
        # client -> requests, grants, shared and exclusive timeouts,
        # releases, release acks, rollbacks
        lifecycles: dict[int, list] = defaultdict(lambda: [0] * 7)
        holders: dict[int, TraceEvent] = {}  # client -> grant
        pending: deque = deque()  # (client, mode, REQ event)
        for event in bucket:
            _, client, _, op, mode, outcome, _ = event
            c = lifecycles[client]
            if op == OP_ACQ:
                if outcome == OUT_GRANT:
                    c[1] += 1
                    previous = holders.get(client)
                    if previous is not None:
                        message = f"client {client} granted item {item} twice"
                        safety.append(Violation(ORPHAN_EVENT, message, (previous, event)))
                    for other in holders.values():
                        if other[1] != client and MODE_EXCLUSIVE in (mode, other[4]):
                            kind = DOUBLE_EXCLUSIVE if mode == other[4] else SHARED_EXCLUSIVE_OVERLAP
                            message = (
                                f"item {item}: client {client} ({mode}) "
                                f"overlaps client {other[1]} ({other[4]})"
                            )
                            safety.append(Violation(kind, message, (other, event)))
                    if fifo and not holders and pending and pending[0][0] == client:
                        # The common case: _admits would say yes and the scan
                        # below would remove the head.
                        pending.popleft()
                    elif fifo:
                        if not _admits(pending, holders, client):  # noted, replay goes on
                            message = f"item {item}: grant to client {client} jumps the queue"
                            cited = (pending[0][2], event) if pending else (event,)
                            fifo_violations.append(Violation(FIFO_VIOLATION, message, cited))
                        for k, req in enumerate(pending):
                            if req[0] == client:
                                del pending[k]
                                break
                    holders[client] = event
                elif outcome == OUT_REQ:
                    c[0] += 1
                    if fifo:
                        pending.append((client, mode, event))
                elif outcome == OUT_TIMEOUT:
                    c[2 if mode == MODE_SHARED else 3] += 1
            elif outcome == OUT_REQ:
                c[4] += 1
                if holders.pop(client, None) is None:
                    message = f"client {client} released item {item} without holding it"
                    safety.append(Violation(ORPHAN_EVENT, message, (event,)))
            elif outcome == OUT_ACK:
                c[5] += 1
            elif outcome == OUT_TIMEOUT:
                c[6] += 1
        for client, c in lifecycles.items():
            counts[client, item] = c
    return safety, _conservation(events, counts), fifo_violations


def _admits(pending: deque, holders: dict, client: int) -> bool:
    """Whether the FIFO admission rule may grant `client` right now."""
    if not pending or any(h[4] == MODE_EXCLUSIVE for h in holders.values()):
        return False
    head_client, head_mode, _ = pending[0]
    if head_mode == MODE_EXCLUSIVE:
        return not holders and head_client == client
    for req_client, req_mode, _ in pending:
        if req_mode != MODE_SHARED:
            return False
        if req_client == client:
            return True
    return False


def _conservation(events: list, counts: dict) -> list[Violation]:
    flagged = []
    for key in sorted(counts):
        req, grant, timeout_shared, timeout_excl, rel_req, rel_ack, rollback = counts[key]
        answered = grant + timeout_shared + timeout_excl
        if req != answered:
            flagged.append((key, f"{req} acquire request(s) but {answered} grant(s)/timeout(s)"))
        if grant != rel_req:
            flagged.append((key, f"{grant} grant(s) but {rel_req} release(s)"))
        if rel_req != rel_ack:
            flagged.append((key, f"{rel_req} release(s) but {rel_ack} ack(s)"))
        if timeout_shared != rollback:
            flagged.append(
                (key, f"{timeout_shared} shared timeout(s) but {rollback} rollback(s)")
            )
    if not flagged:
        return []
    last_event = {(e[1], e[2]): e for e in events}  # the last in input order
    return [
        Violation(CONSERVATION, f"client {key[0]} item {key[1]}: {message}", (last_event[key],))
        for key, message in flagged
    ]


def check_safety(events) -> list[Violation]:
    """Replay holders per item; flag conflicting concurrent holders.

    A GRANT while an incompatible holder has not yet released is
    DOUBLE_EXCLUSIVE (both exclusive) or SHARED_EXCLUSIVE_OVERLAP.  Releases of locks the trace never granted,
    and grants to a client already holding the item, are ORPHAN_EVENT.
    """
    return _replay(list(events), False)[0]


def check_fifo(events, design: str) -> list[Violation]:
    """Verify grant order against arrival order, allowing only the
    consecutive-SHARED batch exception.  Only the server designs promise
    FIFO; a client-centric trace raises NotApplicableError."""
    if design == DESIGN_CLIENT_CENTRIC:
        raise NotApplicableError("the client-centric design makes no FIFO claim")
    if design not in SERVER_DESIGNS:
        raise ValueError(f"unknown design {design!r}")
    return _replay(list(events), True)[2]


def check_conservation(events) -> list[Violation]:
    """End-of-run accounting per (client, item): every request answered,
    every grant released, every release acknowledged, every shared timeout
    rolled back.  Counting is order-insensitive."""
    return _replay(list(events), False)[1]


def check_all(events, design: str | None) -> list[Violation]:
    """Every applicable check for one run's trace: safety, conservation,
    then FIFO for the server designs.  Without a design, no FIFO; a
    design not in DESIGNS raises ValueError."""
    if design is not None and design not in DESIGNS:
        raise ValueError(f"unknown design {design!r}")
    safety, conservation, fifo = _replay(list(events), design in SERVER_DESIGNS)
    return safety + conservation + fifo


# ---------------------------------------------------------------------------
# Exhaustive model check of the client-centric protocol, by replay.

# Bounds each retry loop; one retry reaches every holder state and the shared-timeout rollback.
MODEL_MAX_RETRIES = 1


@dataclass
class ModelResult:
    states_explored: int
    unsafe: list = field(default_factory=list)
    bad_terminal: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.unsafe and not self.bad_terminal


class _ModelSession(ClientSession):
    def _pause(self) -> None:
        pass  # time is not modeled: a retry's pause changes no state


class _Pending(Exception):
    """The session posted a verb its replay has no completion for."""


class _ReplayQp:
    """Answers a session's verbs with `completions`, in order, and raises
    _Pending carrying (verb name, arguments) at the first verb past them."""

    def __init__(self, completions):
        self._completions = iter(completions)

    def __getattr__(self, name):  # post_read, post_write, post_cas, post_fa
        def post(*args):
            completion = next(self._completions, None)
            if completion is None:
                raise _Pending(name, args)
            return completion

        return post


def _resume(table: TableHandle, client_id: int, mode: str, completions):
    """Replay `completions` into a fresh session that acquires item 0 in
    `mode`, then releases it: (the mode it holds the item in or None, its
    next verb as (name, args)), or (None, None) once it has released,
    timed out or raised ProtocolError."""
    session = _ModelSession(_ReplayQp(completions), table, client_id, max_retries=MODEL_MAX_RETRIES)
    try:
        session.acquire(0, mode == MODE_SHARED)
        session.release(0)
    except _Pending as pending:
        return session.held_locks().get(0), pending.args
    except (AcquisitionTimeout, ProtocolError):
        pass
    return None, None


def explore(modes) -> ModelResult:
    """Enumerate every interleaving of one `ClientSession` per entry of
    `modes` acquiring and releasing one item.

    A state is the lock word plus, per client, the completions its verbs
    have returned; a session is deterministic given those, so replaying
    them rebuilds it.  A state is unsafe when the sessions holding the item
    have conflicting modes, and a bad terminal when every session is done
    and the word is nonzero.
    """
    modes = list(modes)
    for mode in modes:
        if mode not in (MODE_SHARED, MODE_EXCLUSIVE):
            raise ValueError(f"unknown mode {mode!r}")
    fabric = InprocFabric()
    region = fabric.register_region(WORD_SIZE)
    table = TableHandle(region.region_id, 1)
    qp = fabric.connect()
    initial = (0, ((),) * len(modes))
    seen = {initial}
    frontier = deque([initial])
    result = ModelResult(states_explored=0)
    while frontier:
        state = frontier.popleft()
        word, histories = state
        result.states_explored += 1
        resumed = [_resume(table, i + 1, m, h) for i, (m, h) in enumerate(zip(modes, histories))]
        held = [mode for mode, _ in resumed if mode]
        exclusive = held.count(MODE_EXCLUSIVE)
        if exclusive >= 2 or (exclusive and len(held) > exclusive):
            result.unsafe.append(state)
        if word and not any(verb for _, verb in resumed):
            result.bad_terminal.append(state)
        for i, (_, verb) in enumerate(resumed):
            if verb is None:
                continue
            name, args = verb
            region.write(0, word.to_bytes(WORD_SIZE, "little"))
            completion = getattr(qp, name)(*args)._replace(serial=None)
            history = histories[i] + (completion,)
            following = (region.snapshot_word(0), histories[:i] + (history,) + histories[i + 1 :])
            if following not in seen:
                seen.add(following)
                frontier.append(following)
    return result
