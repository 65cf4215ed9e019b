"""The benchmark's own derivations, checked on hand-built inputs.

Run with `python3 -m pytest lockperf/tests` from the repository root.
"""

import json
import os

import pytest

from lockbench import TraceEvent, WorkloadSpec
from lockbench.trace import MODE_EXCLUSIVE as X
from lockbench.trace import MODE_SHARED as S
from lockperf import derive, report
from lockperf.workloads import BENCHMARK_WORKLOADS, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def ev(ts, client, item, op, mode, outcome):
    return TraceEvent(ts, client, item, op, mode, outcome)


def test_lock_cycles_are_gaps_between_a_clients_release_acks():
    events = [
        ev(100, 1, 0, "REL", X, "ACK"),
        ev(105, 2, 0, "REL", S, "ACK"),
        ev(130, 1, 3, "REL", S, "ACK"),
        ev(125, 2, 0, "REL", S, "ACK"),
        ev(190, 1, 0, "REL", X, "ACK"),
        ev(120, 1, 0, "ACQ", X, "GRANT"),  # other events are ignored
    ]
    assert sorted(derive.lock_cycles_ns(events)) == [20, 30, 60]


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert derive.percentile(samples, 50) == 50
    assert derive.percentile(samples, 99) == 99
    assert derive.percentile([7], 99) == 7
    assert derive.percentile([5, 1, 3], 50) == 3
    with pytest.raises(ValueError):
        derive.percentile([], 50)


def test_queue_depth_and_deferral_at_each_server_request():
    events = [
        ev(10, 1, 0, "ACQ", S, "REQ"),  # empty queue: depth 0, granted at once
        ev(11, 1, 0, "ACQ", S, "GRANT"),
        ev(20, 2, 0, "ACQ", S, "REQ"),  # behind a shared holder: depth 1, not deferred
        ev(21, 2, 0, "ACQ", S, "GRANT"),
        ev(30, 3, 0, "ACQ", X, "REQ"),  # exclusive behind two holders: deferred
        ev(40, 4, 0, "ACQ", S, "REQ"),  # shared behind a queued exclusive: deferred
        ev(50, 1, 0, "REL", S, "REQ"),
        ev(51, 1, 0, "REL", S, "ACK"),
        ev(52, 2, 0, "REL", S, "REQ"),
        ev(53, 2, 0, "REL", S, "ACK"),
        ev(54, 3, 0, "ACQ", X, "GRANT"),
        ev(60, 5, 1, "ACQ", X, "REQ"),  # another item: its own empty queue
    ]
    depths, deferred = derive.server_queue_depths(events)
    assert depths == [0, 1, 2, 3, 0]
    assert deferred == 2


def test_failed_op_share_counts_every_operation_of_a_run_that_raises():
    spec = WorkloadSpec(design="server-tcp", n_clients=2, ops_per_client=50)

    def raising_run(_spec):
        raise ConnectionError("client process produced no result")

    outcome = derive.measure_design(spec, raising_run)
    assert outcome["attempted"] == 100
    assert outcome["completed"] == 0
    assert "ConnectionError" in outcome["error"]
    ok = {"attempted": 300, "completed": 300}
    assert derive.failed_op_share([outcome, ok]) == (100, 400)


def test_client_self_time_covers_only_acquire_and_release_subtrees():
    spans = [
        # client actor: acquire with a CAS child (itself with a region child) and a record
        (1, 0, "client_lm.acquire", 0, 100, "c1:i0#1", "exclusive", "a"),
        (2, 1, "verbs.qp.cas", 10, 50, "c1:i0#1", "failed", "a"),
        (3, 2, "verbs.region.cas", 20, 30, "c1:i0#1", None, "a"),
        (4, 1, "verbs.qp.cas", 55, 80, "c1:i0#1", "ok", "a"),
        (5, 1, "trace.record", 85, 95, "c1:i0#1", None, "a"),
        (6, 0, "client_lm.release", 120, 150, "c1:i0#1", None, "a"),
        # set-up on the client's thread, outside any acquire or release
        (7, 0, "bench.op_stream", -50, -10, None, None, "a"),
        # a server thread is not on the client's blocking path
        (1, 0, "server_lm.charge", 0, 40, None, None, "b"),
    ]
    summary = derive.span_summary(spans)
    assert summary["root_self_ns"] == (100 - 40 - 25 - 10) + 30
    assert summary["client_self_ns"] == {"client_lm": 55, "verbs": 30 + 10 + 25, "trace": 10}
    assert summary["root_verbs"] == 2
    assert (summary["cas"], summary["cas_failed"]) == (2, 1)
    assert summary["acquire_ns"]["exclusive"] == [100]
    assert summary["charge_ns"] == 40
    assert (summary["op_stream_ns"], summary["first_op_stream_ns"]) == ([40], -50)


def test_benchmark_json_mirrors_the_metric_map_and_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["workloads"] == [
        {"name": name, "why": WORKLOADS[name].why} for name in BENCHMARK_WORKLOADS
    ]
    assert bench["end_to_end"] == report.METRIC_MAP["end_to_end"]
    assert bench["per_layer"] == [
        {key: m[key] for key in ("name", "unit", "better")} for m in report.METRIC_MAP["per_layer"]
    ]
