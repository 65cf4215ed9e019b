"""The per-item `seq` replay against the stamp-ordered reference checker it
replaced: small random traces with duplicated events and injected faults
of every violation kind must get identical verdicts from all five public
functions.  No two stamps tie, except a duplicate's, and `seq` is each
event's rank by stamp, so stamp order is every item's linearization and
both checkers replay the same order.  (On tied stamps the reference orders
by a lifecycle-phase guess, which `seq` replaces; there the two need not
agree.)"""

import itertools
import random
from collections import Counter

import checker_reference as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from lockbench import checker
from lockbench.checker import (
    CONSERVATION,
    DESIGN_SERVER_TCP,
    DESIGNS,
    DOUBLE_EXCLUSIVE,
    FIFO_VIOLATION,
    ORPHAN_EVENT,
    SERVER_DESIGNS,
    SHARED_EXCLUSIVE_OVERLAP,
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

ALL_KINDS = {
    CONSERVATION, DOUBLE_EXCLUSIVE, FIFO_VIOLATION, ORPHAN_EVENT, SHARED_EXCLUSIVE_OVERLAP
}
# Every (op, outcome) a recorder stamps, in lifecycle order.
PHASES = [
    (OP_ACQ, OUT_REQ),
    (OP_ACQ, OUT_GRANT),
    (OP_ACQ, OUT_TIMEOUT),
    (OP_REL, OUT_REQ),
    (OP_REL, OUT_TIMEOUT),
    (OP_REL, OUT_ACK),
]


def random_trace(rnd: random.Random) -> list[TraceEvent]:
    """Lock lifecycles of 1-4 clients on 1-2 items, then faults: dropped,
    duplicated and stray events, and a shuffled input order.  Each event is
    stamped `raw * 64 + k`, with `raw` drawn from a few ticks and `k` its
    creation index, so no stamps tie but a duplicate's; its `seq` is its
    stamp's rank.

    A duplicate is an equal but distinct event, as every trace source
    makes them; the reference tells events apart by identity.
    """
    n_items = rnd.randint(1, 2)
    horizon = rnd.choice([3, 8, 30])
    created = itertools.count()  # at most 51 events, so k < 64
    events = []

    def add(raw, client, item, op, mode, out):
        events.append(TraceEvent(raw * 64 + next(created), client, item, op, mode, out))

    for client in range(1, rnd.randint(1, 4) + 1):
        t = 0
        for _ in range(rnd.randint(0, 3)):
            item = rnd.randrange(n_items)
            mode = rnd.choice([MODE_SHARED, MODE_EXCLUSIVE])
            stamps = sorted(t + rnd.randrange(horizon) for _ in range(4))
            t = stamps[-1]
            if rnd.random() < 0.15:  # a timed-out acquire; a shared one is rolled back
                phases = [PHASES[0], PHASES[2]] + ([PHASES[4]] if mode == MODE_SHARED else [])
            else:
                phases = [PHASES[0], PHASES[1], PHASES[3], PHASES[5]]
            for raw, (op, out) in zip(stamps, phases):
                add(raw, client, item, op, mode, out)
    for _ in range(rnd.randint(0, 3)):
        fault = rnd.randrange(3)
        if fault == 0 and events:
            del events[rnd.randrange(len(events))]
        elif fault == 1 and events:
            events.append(TraceEvent(*rnd.choice(events)))
        else:
            op, out = rnd.choice(PHASES)
            add(
                rnd.randrange(horizon), rnd.randint(1, 4), rnd.randrange(n_items),
                op, rnd.choice([MODE_SHARED, MODE_EXCLUSIVE]), out,
            )
    rank = {ts: r for r, ts in enumerate(sorted({e.timestamp_ns for e in events}))}
    events = [e._replace(seq=rank[e.timestamp_ns]) for e in events]
    if rnd.random() < 0.5:
        rnd.shuffle(events)
    return events


def assert_same_verdicts(events):
    """Identical violations; the checker reports them item by item, the
    reference in stamp order, so they are compared in any order."""
    assert [id(e) for e in checker.sort_events(events)] == [
        id(e) for e in reference.sort_events(events)
    ]
    assert Counter(checker.check_safety(events)) == Counter(reference.check_safety(events))
    assert checker.check_conservation(events) == reference.check_conservation(events)
    for design in SERVER_DESIGNS:
        assert Counter(checker.check_fifo(events, design)) == Counter(reference.check_fifo(events, design))
    for design in DESIGNS + (None,):
        assert Counter(checker.check_all(events, design)) == Counter(reference.check_all(events, design))


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_checker_matches_the_reference(rnd):
    assert_same_verdicts(random_trace(rnd))


def test_random_traces_inject_every_violation_kind():
    seen = set()
    for seed in range(300):
        events = random_trace(random.Random(seed))
        seen.update(v.kind for v in reference.check_all(events, DESIGN_SERVER_TCP))
    assert seen == ALL_KINDS
