"""The one-replay checker against the reference checker it replaced: small
random traces with many equal stamps, duplicated events and injected
faults of every violation kind must get identical verdicts from all five
public functions."""

import random

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
    """Lock lifecycles of 1-4 clients on 1-2 items, stamped from a few
    nanoseconds so stamps tie, then faults: dropped, duplicated and stray
    events, and a shuffled input order.

    A duplicate is an equal but distinct event, as every trace source
    makes them; the reference tells events apart by identity.
    """
    n_items = rnd.randint(1, 2)
    horizon = rnd.choice([3, 8, 30])
    events = []
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
            for ts, (op, out) in zip(stamps, phases):
                events.append(TraceEvent(ts, client, item, op, mode, out))
    for _ in range(rnd.randint(0, 3)):
        fault = rnd.randrange(3)
        if fault == 0 and events:
            del events[rnd.randrange(len(events))]
        elif fault == 1 and events:
            events.append(TraceEvent(*rnd.choice(events)))
        else:
            op, out = rnd.choice(PHASES)
            events.append(
                TraceEvent(
                    rnd.randrange(horizon), rnd.randint(1, 4), rnd.randrange(n_items),
                    op, rnd.choice([MODE_SHARED, MODE_EXCLUSIVE]), out,
                )
            )
    if rnd.random() < 0.5:
        rnd.shuffle(events)
    return events


def assert_same_verdicts(events):
    assert [id(e) for e in checker.sort_events(events)] == [
        id(e) for e in reference.sort_events(events)
    ]
    assert checker.check_safety(events) == reference.check_safety(events)
    assert checker.check_conservation(events) == reference.check_conservation(events)
    for design in SERVER_DESIGNS:
        assert checker.check_fifo(events, design) == reference.check_fifo(events, design)
    for design in DESIGNS + (None,):
        assert checker.check_all(events, design) == reference.check_all(events, design)


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
