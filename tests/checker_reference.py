"""The trace checker as it was before its checks shared one replay: one
sort and one walk per check.  Kept unchanged as the reference that
`test_checker_reference.py` compares `lockbench.checker` against."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from lockbench.checker import (
    CONSERVATION,
    DESIGN_CLIENT_CENTRIC,
    DOUBLE_EXCLUSIVE,
    FIFO_VIOLATION,
    ORPHAN_EVENT,
    SERVER_DESIGNS,
    SHARED_EXCLUSIVE_OVERLAP,
    NotApplicableError,
    Violation,
)
from lockbench.trace import (
    MODE_EXCLUSIVE,
    MODE_SHARED,
    OP_ACQ,
    OP_REL,
    OUT_ACK,
    OUT_GRANT,
    OUT_REQ,
    OUT_TIMEOUT,
    TraceEvent,
)


# Causality-friendly tiebreak for identical nanosecond stamps: within a
# lock's lifecycle REQ precedes GRANT precedes release.
_PHASE_RANK = {
    (OP_ACQ, OUT_REQ): 0,
    (OP_ACQ, OUT_GRANT): 1,
    (OP_ACQ, OUT_TIMEOUT): 1,
    (OP_REL, OUT_REQ): 2,
    (OP_REL, OUT_TIMEOUT): 2,
    (OP_REL, OUT_ACK): 3,
}


def sort_events(events) -> list[TraceEvent]:
    return sorted(
        events,
        key=lambda e: (e.timestamp_ns, _PHASE_RANK[(e.op, e.outcome)], e.client_id, e.item_id),
    )


def check_safety(events) -> list[Violation]:
    """Replay hold intervals per item; flag conflicting concurrent holders.

    A GRANT while an incompatible holder is still inside its stamped
    interval is DOUBLE_EXCLUSIVE (both exclusive) or
    SHARED_EXCLUSIVE_OVERLAP.  Releases of locks the trace never granted,
    and grants to a client already holding the item, are ORPHAN_EVENT.
    """
    ordered = sort_events(events)

    # Hold intervals are half-open: a grant stamped at the same nanosecond
    # as the previous holder's release is adjacent, not overlapping.  Map
    # each grant to its release stamp up front so ties can be resolved.
    open_grants: dict[tuple[int, int], list[TraceEvent]] = {}
    release_at: dict[int, int] = {}
    for event in ordered:
        key = (event.item_id, event.client_id)
        if event.op == OP_ACQ and event.outcome == OUT_GRANT:
            open_grants.setdefault(key, []).append(event)
        elif event.op == OP_REL and event.outcome == OUT_REQ:
            stack = open_grants.get(key)
            if stack:
                release_at[id(stack.pop())] = event.timestamp_ns

    violations: list[Violation] = []
    holders: dict[int, dict[int, TraceEvent]] = {}  # item -> client -> grant event
    pre_released: set[tuple[int, int]] = set()
    for event in ordered:
        item_holders = holders.setdefault(event.item_id, {})
        if event.op == OP_ACQ and event.outcome == OUT_GRANT:
            expired = [
                client_id
                for client_id, held in item_holders.items()
                if release_at.get(id(held), event.timestamp_ns + 1) <= event.timestamp_ns
            ]
            for client_id in expired:
                del item_holders[client_id]
                pre_released.add((event.item_id, client_id))
            previous = item_holders.get(event.client_id)
            if previous is not None:
                violations.append(
                    Violation(
                        ORPHAN_EVENT,
                        f"client {event.client_id} granted item {event.item_id} twice",
                        (previous, event),
                    )
                )
            for other in item_holders.values():
                if other.client_id == event.client_id:
                    continue
                if event.mode == MODE_EXCLUSIVE and other.mode == MODE_EXCLUSIVE:
                    kind = DOUBLE_EXCLUSIVE
                elif MODE_EXCLUSIVE in (event.mode, other.mode):
                    kind = SHARED_EXCLUSIVE_OVERLAP
                else:
                    continue
                violations.append(
                    Violation(
                        kind,
                        f"item {event.item_id}: client {event.client_id} ({event.mode}) "
                        f"overlaps client {other.client_id} ({other.mode})",
                        (other, event),
                    )
                )
            item_holders[event.client_id] = event
        elif event.op == OP_REL and event.outcome == OUT_REQ:
            key = (event.item_id, event.client_id)
            if key in pre_released:
                pre_released.discard(key)
            elif item_holders.pop(event.client_id, None) is None:
                violations.append(
                    Violation(
                        ORPHAN_EVENT,
                        f"client {event.client_id} released item {event.item_id} "
                        "without holding it",
                        (event,),
                    )
                )
    return violations


@dataclass
class _PendingReq:
    client_id: int
    mode: str
    event: TraceEvent


def _admissible(pending: deque, granted: dict) -> set[int]:
    """Clients the FIFO admission rule may grant right now."""
    if not pending or MODE_EXCLUSIVE in granted.values():
        return set()
    if pending[0].mode == MODE_EXCLUSIVE:
        return {pending[0].client_id} if not granted else set()
    admissible = set()
    for req in pending:
        if req.mode != MODE_SHARED:
            break
        admissible.add(req.client_id)
    return admissible


def check_fifo(events, design: str) -> list[Violation]:
    """Verify grant order against arrival order, allowing only the
    consecutive-SHARED batch exception.  Only the server designs promise
    FIFO; a client-centric trace raises NotApplicableError."""
    if design == DESIGN_CLIENT_CENTRIC:
        raise NotApplicableError("the client-centric design makes no FIFO claim")
    if design not in SERVER_DESIGNS:
        raise ValueError(f"unknown design {design!r}")
    violations: list[Violation] = []
    pending: dict[int, deque] = {}
    granted: dict[int, dict[int, str]] = {}
    for event in sort_events(events):
        item_pending = pending.setdefault(event.item_id, deque())
        item_granted = granted.setdefault(event.item_id, {})
        if event.op == OP_ACQ and event.outcome == OUT_REQ:
            item_pending.append(_PendingReq(event.client_id, event.mode, event))
        elif event.op == OP_ACQ and event.outcome == OUT_GRANT:
            admissible = _admissible(item_pending, item_granted)
            if event.client_id not in admissible:
                cited = (item_pending[0].event, event) if item_pending else (event,)
                violations.append(
                    Violation(
                        FIFO_VIOLATION,
                        f"item {event.item_id}: grant to client {event.client_id} "
                        "jumps the queue",
                        cited,
                    )
                )
                # Keep simulating past the violation.
            for req in item_pending:
                if req.client_id == event.client_id:
                    item_pending.remove(req)
                    break
            item_granted[event.client_id] = event.mode
        elif event.op == OP_REL and event.outcome == OUT_REQ:
            item_granted.pop(event.client_id, None)
    return violations


def check_conservation(events) -> list[Violation]:
    """End-of-run accounting per (client, item): every request answered,
    every grant released, every release acknowledged, every shared timeout
    rolled back.  Counting is order-insensitive, so it tolerates the
    nanosecond-scale stamp ties interval replay cannot."""
    counts: dict[tuple[int, int], dict[str, int]] = {}
    last_event: dict[tuple[int, int], TraceEvent] = {}
    for event in events:
        key = (event.client_id, event.item_id)
        c = counts.setdefault(
            key,
            {"req": 0, "grant": 0, "timeout_shared": 0, "timeout_excl": 0,
             "rel_req": 0, "rel_ack": 0, "rollback": 0},
        )
        last_event[key] = event
        if event.op == OP_ACQ:
            if event.outcome == OUT_REQ:
                c["req"] += 1
            elif event.outcome == OUT_GRANT:
                c["grant"] += 1
            elif event.outcome == OUT_TIMEOUT:
                c["timeout_shared" if event.mode == MODE_SHARED else "timeout_excl"] += 1
        else:
            if event.outcome == OUT_REQ:
                c["rel_req"] += 1
            elif event.outcome == OUT_ACK:
                c["rel_ack"] += 1
            elif event.outcome == OUT_TIMEOUT:
                c["rollback"] += 1
    violations: list[Violation] = []

    def flag(key, message):
        client_id, item_id = key
        violations.append(
            Violation(
                CONSERVATION,
                f"client {client_id} item {item_id}: {message}",
                (last_event[key],),
            )
        )

    for key, c in sorted(counts.items()):
        answered = c["grant"] + c["timeout_shared"] + c["timeout_excl"]
        if c["req"] != answered:
            flag(key, f"{c['req']} acquire request(s) but {answered} grant(s)/timeout(s)")
        if c["grant"] != c["rel_req"]:
            flag(key, f"{c['grant']} grant(s) but {c['rel_req']} release(s)")
        if c["rel_req"] != c["rel_ack"]:
            flag(key, f"{c['rel_req']} release(s) but {c['rel_ack']} ack(s)")
        if c["timeout_shared"] != c["rollback"]:
            flag(
                key,
                f"{c['timeout_shared']} shared timeout(s) but {c['rollback']} rollback(s)",
            )
    return violations


def check_all(events, design: str) -> list[Violation]:
    """Every applicable check for one run's trace."""
    events = list(events)
    violations = check_safety(events)
    violations.extend(check_conservation(events))
    if design in SERVER_DESIGNS:
        violations.extend(check_fifo(events, design))
    return violations
