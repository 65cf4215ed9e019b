"""Offline safety and fairness oracle over recorded traces.

Every check is a view of one replay: the trace is sorted once, then one
pass pairs each grant with its release stamp and counts each (client,
item)'s lifecycle events, and a second replays each item's holders and,
for the server designs, its FIFO queue.  check_all takes every verdict
from a single replay.

Hold intervals are reconstructed per client as [ACQ/GRANT stamp, REL/REQ
stamp].  Grants are stamped by the acquirer after the lock is won and
release requests are stamped before the releasing verb or message is
issued, so every stamped interval is contained in the true hold interval;
on a shared monotonic clock an overlap between stamped intervals is
therefore a real overlap, never a stamping artifact.

The FIFO replay re-derives the server's admission rule from scratch (queue
arrival order from server-stamped REQ events, grants admissible only from
the compatible head batch) instead of importing the server's own scanner,
so a server bug cannot hide from its own checker.

A small brute-force model checker over the client-driven protocol
(lock word x per-client program counters) backs the trace oracle: it
enumerates every interleaving of the protocol's atomic steps and asserts
no reachable state has conflicting holders and every terminal state
leaves the word zero.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

from .locktable import U32_MASK, decode, encode
from .trace import (
    MODE_EXCLUSIVE,
    MODE_SHARED,
    OP_ACQ,
    OP_REL,
    OUT_ACK,
    OUT_GRANT,
    OUT_REQ,
    OUT_TIMEOUT,
    TraceEvent,
    sort_events,  # re-exported: the order every verdict replays
)

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


_NEVER = float("inf")


def _replay(events: list, fifo: bool) -> tuple[list, list, list]:
    """Sort `events` once and replay them: (safety, conservation, FIFO)
    violations, the FIFO list empty unless `fifo`."""
    ordered = sort_events(events)

    # Pass 1.  Hold intervals are half-open: a grant stamped at the same
    # nanosecond as the previous holder's release is adjacent, not
    # overlapping, so pair each grant with its release stamp up front.
    # Conservation counts per (client, item): requests, grants, shared and
    # exclusive timeouts, releases, release acks, rollbacks.
    release_at = [_NEVER] * len(ordered)
    open_grants: dict[tuple[int, int], list[int]] = defaultdict(list)
    counts: dict[tuple[int, int], list[int]] = defaultdict(lambda: [0] * 7)
    for i, (ts, client, item, op, mode, outcome) in enumerate(ordered):
        key = (client, item)
        c = counts[key]
        if op == OP_ACQ:
            if outcome == OUT_GRANT:
                c[1] += 1
                open_grants[key].append(i)
            elif outcome == OUT_REQ:
                c[0] += 1
            elif outcome == OUT_TIMEOUT:
                c[2 if mode == MODE_SHARED else 3] += 1
        elif outcome == OUT_REQ:
            c[4] += 1
            stack = open_grants.get(key)
            if stack:
                release_at[stack.pop()] = ts
        elif outcome == OUT_ACK:
            c[5] += 1
        elif outcome == OUT_TIMEOUT:
            c[6] += 1

    # Pass 2: holders per item and, for the server designs, the FIFO
    # queue: arrival order from server-stamped REQs, admission by the
    # compatible head batch.
    safety: list[Violation] = []
    fifo_violations: list[Violation] = []
    holders: dict[int, dict] = defaultdict(dict)  # item -> client -> (grant, release)
    pre_released: set[tuple[int, int]] = set()
    pending: dict[int, deque] = defaultdict(deque)  # item -> (client, mode, REQ event)
    granted: dict[int, dict] = defaultdict(dict)  # item -> client -> mode
    for i, event in enumerate(ordered):
        ts, client, item, op, mode, outcome = event
        if op == OP_ACQ:
            if outcome == OUT_GRANT:
                item_holders = holders[item]
                if item_holders:
                    expired = [c for c, (_, rel) in item_holders.items() if rel <= ts]
                    for c in expired:
                        del item_holders[c]
                        pre_released.add((item, c))
                    previous = item_holders.get(client)
                    if previous is not None:
                        message = f"client {client} granted item {item} twice"
                        safety.append(Violation(ORPHAN_EVENT, message, (previous[0], event)))
                    for other, _ in item_holders.values():
                        if other[1] == client:
                            continue
                        if mode == MODE_EXCLUSIVE and other[4] == MODE_EXCLUSIVE:
                            kind = DOUBLE_EXCLUSIVE
                        elif MODE_EXCLUSIVE in (mode, other[4]):
                            kind = SHARED_EXCLUSIVE_OVERLAP
                        else:
                            continue
                        safety.append(
                            Violation(
                                kind,
                                f"item {item}: client {client} ({mode}) "
                                f"overlaps client {other[1]} ({other[4]})",
                                (other, event),
                            )
                        )
                item_holders[client] = (event, release_at[i])
                if fifo:
                    item_pending = pending[item]
                    item_granted = granted[item]
                    if not _admits(item_pending, item_granted, client):
                        fifo_violations.append(
                            Violation(
                                FIFO_VIOLATION,
                                f"item {item}: grant to client {client} jumps the queue",
                                (item_pending[0][2], event) if item_pending else (event,),
                            )
                        )
                        # Keep simulating past the violation.
                    for k, req in enumerate(item_pending):
                        if req[0] == client:
                            del item_pending[k]
                            break
                    item_granted[client] = mode
            elif outcome == OUT_REQ and fifo:
                pending[item].append((client, mode, event))
        elif outcome == OUT_REQ:
            if pre_released and (item, client) in pre_released:
                pre_released.discard((item, client))
            elif holders[item].pop(client, None) is None:
                safety.append(
                    Violation(
                        ORPHAN_EVENT,
                        f"client {client} released item {item} without holding it",
                        (event,),
                    )
                )
            if fifo:
                granted[item].pop(client, None)
    return safety, _conservation(events, counts), fifo_violations


def _admits(pending: deque, granted: dict, client: int) -> bool:
    """Whether the FIFO admission rule may grant `client` right now."""
    if not pending or MODE_EXCLUSIVE in granted.values():
        return False
    head_client, head_mode, _ = pending[0]
    if head_mode == MODE_EXCLUSIVE:
        return not granted and head_client == client
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
    """Replay hold intervals per item; flag conflicting concurrent holders.

    A GRANT while an incompatible holder is still inside its stamped
    interval is DOUBLE_EXCLUSIVE (both exclusive) or
    SHARED_EXCLUSIVE_OVERLAP.  Releases of locks the trace never granted,
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
    rolled back.  Counting is order-insensitive, so it tolerates the
    nanosecond-scale stamp ties interval replay cannot."""
    return _replay(list(events), False)[1]


def check_all(events, design: str | None) -> list[Violation]:
    """Every applicable check for one run's trace: safety, conservation,
    then FIFO for the server designs.  Without a design, no FIFO."""
    safety, conservation, fifo = _replay(list(events), design in SERVER_DESIGNS)
    return safety + conservation + fifo


# ---------------------------------------------------------------------------
# Brute-force model check of the client-driven protocol.

_START = "start"
_POLL = "poll"
_HOLD = "hold"
_DONE = "done"


@dataclass
class ModelResult:
    states_explored: int
    unsafe: list = field(default_factory=list)
    bad_terminal: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.unsafe and not self.bad_terminal


def _step(word: int, phase: str, mode: str, client_id: int, full_word_release: bool):
    """The client's next atomic step from `phase`, or None if it is a
    no-progress retry (failed CAS, failed poll) that leaves state unchanged."""
    owner, count = decode(word)
    if mode == MODE_EXCLUSIVE:
        if phase == _START:
            if word == 0:
                return encode(client_id, 0), _HOLD
            return None
        if phase == _HOLD:
            released = 0 if full_word_release else encode(0, count)
            return released, _DONE
    else:
        if phase == _START:
            new_word = (word + 1) & ((1 << 64) - 1)
            return new_word, (_HOLD if owner == 0 else _POLL)
        if phase == _POLL:
            if owner == 0:
                return word, _HOLD
            return None
        if phase == _HOLD:
            return (word - 1) & ((1 << 64) - 1), _DONE
    raise AssertionError(f"no step from phase {phase!r}")


def _is_unsafe(phases, modes) -> bool:
    holders = [modes[i] for i, p in enumerate(phases) if p == _HOLD]
    exclusive = sum(1 for m in holders if m == MODE_EXCLUSIVE)
    return exclusive >= 2 or (exclusive >= 1 and len(holders) > exclusive)


def explore(modes, full_word_release: bool = False) -> ModelResult:
    """Enumerate every interleaving of the client-driven protocol for one
    item and the given client modes.

    `full_word_release` swaps the half-word exclusive release for a write
    that zeroes the whole word — a deliberately broken variant that erases
    pre-registered shared counts, used as the negative control.
    """
    modes = list(modes)
    for mode in modes:
        if mode not in (MODE_SHARED, MODE_EXCLUSIVE):
            raise ValueError(f"unknown mode {mode!r}")
    initial = (0, tuple(_START for _ in modes))
    seen = {initial}
    frontier = deque([initial])
    result = ModelResult(states_explored=0)
    while frontier:
        word, phases = frontier.popleft()
        result.states_explored += 1
        if _is_unsafe(phases, modes):
            result.unsafe.append((word, phases))
        if all(p == _DONE for p in phases):
            if word != 0:
                result.bad_terminal.append((word, phases))
            continue
        for i, phase in enumerate(phases):
            if phase == _DONE:
                continue
            step = _step(word, phase, modes[i], i + 1, full_word_release)
            if step is None:
                continue
            new_word, new_phase = step
            state = (new_word, phases[:i] + (new_phase,) + phases[i + 1 :])
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    return result
