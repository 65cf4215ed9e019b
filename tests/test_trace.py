"""Trace format round-trips and recorder timestamp discipline."""

import itertools
import time

import pytest
from hypothesis import given, strategies as st

from lockbench import bench, checker, trace
from lockbench.checker import DESIGN_CLIENT_CENTRIC, DESIGN_SERVER_SR, DESIGNS
from lockbench.trace import (
    MODES,
    OPS,
    OUTCOMES,
    STAMPED_PAIRS,
    TraceEvent,
    TraceParseError,
    TraceRecorder,
    format_event,
    parse_line,
    read_trace,
    sort_events,
    write_trace,
)

events = st.builds(
    lambda ts, client, item, mode, pair, seq: TraceEvent(ts, client, item, pair[0], mode, pair[1], seq),
    st.integers(min_value=0, max_value=2**63 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(MODES),
    st.sampled_from(sorted(STAMPED_PAIRS)),
    st.integers(min_value=0, max_value=2**63 - 1),
)

# Every (op, outcome) pair a recorder stamps: the client and server
# recorders' REQ, GRANT, TIMEOUT, release REQ, rollback TIMEOUT and ACK.
STAMPED = {
    ("ACQ", "REQ"),
    ("ACQ", "GRANT"),
    ("ACQ", "TIMEOUT"),
    ("REL", "REQ"),
    ("REL", "TIMEOUT"),
    ("REL", "ACK"),
}


@given(events)
def test_format_parse_round_trip(event):
    assert parse_line(format_event(event), 1) == event


def test_format_is_the_documented_line_shape():
    event = TraceEvent(123456789, 7, 2, "ACQ", "SHARED", "GRANT", 41)
    assert format_event(event) == "123456789,7,2,ACQ,SHARED,GRANT,41"


def test_an_event_built_from_six_fields_has_seq_zero():
    assert TraceEvent(1, 1, 0, "ACQ", "SHARED", "REQ").seq == 0


@pytest.mark.parametrize(
    "line",
    [
        "1,2,3,ACQ,SHARED",  # five fields
        "1,2,3,ACQ,SHARED,GRANT,extra",
        "x,2,3,ACQ,SHARED,GRANT",
        "1,2,3,FOO,SHARED,GRANT",
        "1,2,3,ACQ,MUTEX,GRANT",
        "1,2,3,ACQ,SHARED,MAYBE",
    ],
)
def test_parse_rejects_malformed_lines(line):
    with pytest.raises(TraceParseError) as exc_info:
        parse_line(line + ",5", 17)  # each with a well-formed seq column
    assert exc_info.value.lineno == 17


def test_checker_tie_rule_covers_exactly_the_stamped_pairs():
    # STAMPED_PAIRS is the set of pairs a trace line may carry; no rule orders them.
    assert set(STAMPED_PAIRS) == STAMPED
    assert checker.sort_events is sort_events


@pytest.mark.parametrize("line", ["10,1,0,ACQ,SHARED,ACK", "10,1,0,REL,SHARED,GRANT"])
def test_parse_rejects_pairs_no_recorder_stamps(line):
    with pytest.raises(TraceParseError, match="no recorder stamps"):
        parse_line(line + ",5", 1)


def test_parse_accepts_exactly_the_stamped_pairs():
    accepted = set()
    for op in OPS:
        for outcome in OUTCOMES:
            try:
                parse_line(f"1,1,0,{op},SHARED,{outcome},1", 1)
            except TraceParseError:
                continue
            accepted.add((op, outcome))
    assert accepted == STAMPED


def test_file_round_trip(tmp_path):
    trace = [
        TraceEvent(1, 1, 0, "ACQ", "EXCLUSIVE", "REQ", 1),
        TraceEvent(2, 1, 0, "ACQ", "EXCLUSIVE", "GRANT", 1),
        TraceEvent(3, 1, 0, "REL", "EXCLUSIVE", "REQ", 2),
        TraceEvent(4, 1, 0, "REL", "EXCLUSIVE", "ACK", 2),
    ]
    path = tmp_path / "run.trace"
    write_trace(path, trace)
    assert read_trace(path) == trace


def test_read_skips_blank_lines(tmp_path):
    path = tmp_path / "run.trace"
    path.write_text("1,1,0,ACQ,SHARED,REQ,1\n\n2,1,0,ACQ,SHARED,GRANT,1\n")
    assert len(read_trace(path)) == 2


def test_read_reports_line_number(tmp_path):
    path = tmp_path / "run.trace"
    path.write_text("1,1,0,ACQ,SHARED,REQ,1\nnot a trace line\n")
    with pytest.raises(TraceParseError) as exc_info:
        read_trace(path)
    assert exc_info.value.lineno == 2


def test_recorder_timestamps_strictly_increase_per_source():
    rec = TraceRecorder()
    for _ in range(1000):
        rec.record(1, 1, 0, "ACQ", "SHARED", "REQ")
    stamps = [e.timestamp_ns for e in rec.sorted_events()]
    assert all(b > a for a, b in zip(stamps, stamps[1:]))


def test_recorder_sources_are_independent():
    rec = TraceRecorder()
    rec.record(1, 1, 0, "ACQ", "SHARED", "REQ")
    rec.record(2, 2, 0, "ACQ", "SHARED", "REQ")
    # Distinct sources may tie; sorting must still be stable and total.
    assert len(rec.sorted_events()) == 2


def test_recorder_extend_merges_foreign_events():
    rec = TraceRecorder()
    rec.record(1, 1, 0, "ACQ", "SHARED", "REQ")
    rec.extend([TraceEvent(1, 2, 0, "ACQ", "SHARED", "REQ")])
    assert len(rec.sorted_events()) == 2


def test_merge_is_one_stable_sort_by_stamp():
    rec = TraceRecorder()
    stamp = rec.stamper(0)
    for ts, client in ((7, 1), (5, 2), (5, 3), (6, 4)):  # appended out of stamp order
        stamp(TraceEvent(ts, client, client, "ACQ", "SHARED", "REQ"))
    rec.extend([TraceEvent(5, 9, 0, "ACQ", "SHARED", "REQ")])  # foreign events first
    assert [(e.timestamp_ns, e.client_id) for e in rec.sorted_events()] == [
        (5, 9), (5, 2), (5, 3), (6, 4), (7, 1)
    ]


# -- the merge through real actors --------------------------------------------


def _run(monkeypatch, design, clock):
    """A 2-client in-process run on `clock`: (its recorder, merged trace)."""
    recorders = []

    class Recorder(TraceRecorder):
        def __init__(self):
            super().__init__()
            recorders.append(self)

    monkeypatch.setattr(trace, "_clock", clock)
    monkeypatch.setattr(bench, "TraceRecorder", Recorder)
    spec = bench.WorkloadSpec(design=design, n_clients=2, n_items=4, ops_per_client=300)
    _, events = bench.run_workload(spec)
    return recorders[0], events


@pytest.mark.parametrize("design", DESIGNS)
def test_every_design_checks_clean_on_a_coarse_clock(monkeypatch, design):
    # One shared clock that ticks on every 4th read, so stamps from
    # different threads tie all the time.  Each item replays in `seq`
    # order, which no tie can change: every run must pass its checker.
    counter = itertools.count()
    monkeypatch.setattr(trace, "_clock", lambda: next(counter) // 4 * 1000)
    for seed in range(10):
        spec = bench.WorkloadSpec(
            design=design, n_clients=2, n_items=4, ops_per_client=2000, rng_seed=seed
        )
        _, events = bench.run_workload(spec)
        stamps = [e.timestamp_ns for e in events]
        assert len(set(stamps)) < len(stamps)  # stamps did tie


@pytest.mark.parametrize("design", [DESIGN_CLIENT_CENTRIC, DESIGN_SERVER_SR])
def test_merge_moves_no_stamp_when_none_are_equal(monkeypatch, design):
    reads = []

    def clock(real=time.monotonic_ns):
        ts = real()
        reads.append(ts)
        return ts

    recorder, events = _run(monkeypatch, design, clock)
    assert len(set(reads)) == len(reads)
    assert [e.timestamp_ns for e in events] == sorted(reads)
    appended = {id(e) for buffer in recorder._buffers.values() for e in buffer}
    assert {id(e) for e in events} == appended
