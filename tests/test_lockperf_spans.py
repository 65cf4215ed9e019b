"""The benchmark's traced run wraps lockbench's methods by name.

`lockperf.spans.install` replaces methods on `QueuePair` and `TcpQueuePair`,
and `client_op_stream` and `check_all` in `lockbench.bench`'s globals; a
refactor that moves, renames or stops calling them through those names must
fail here, not only in the benchmark's traced run.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from lockperf.spans import SpanRecorder, install  # noqa: E402

from lockbench.bench import WorkloadSpec, run_workload  # noqa: E402
from lockbench.checker import DESIGN_SERVER_SR  # noqa: E402
from lockbench.verbs import InprocFabric  # noqa: E402


def test_inproc_send_recv_ping_records_queue_pair_spans():
    recorder = SpanRecorder()
    install(recorder)
    try:
        fabric = InprocFabric()
        listener = fabric.sr_listen()
        client = fabric.connect(1)
        server = listener.accept(timeout=5)
        server.post_recv(8)
        assert client.post_send(b"ping").ok
        assert server.poll_recv(timeout=5).payload == b"ping"
        fabric.close()
    finally:
        recorder.uninstall()
    names = {span[2] for span in recorder.spans}
    assert {"verbs.qp.send", "verbs.qp.recv", "verbs.qp.poll_recv"} <= names


def test_an_inproc_run_records_one_op_stream_per_client_and_its_check():
    # `bench.op_stream_ms`, `bench.client_spawn_ms` and the checker's
    # per-event cost are derived from these spans.
    recorder = SpanRecorder()
    install(recorder)
    try:
        spec = WorkloadSpec(
            design=DESIGN_SERVER_SR, n_clients=2, n_items=4, ops_per_client=20, per_message_cost=0.0
        )
        result, _ = run_workload(spec)
    finally:
        recorder.uninstall()
    assert result.total_locks_granted == 40
    names = [span[2] for span in recorder.spans]
    assert names.count("bench.op_stream") == 2
    op_stream_actors = {span[7] for span in recorder.spans if span[2] == "bench.op_stream"}
    assert len(op_stream_actors) == 2  # one per client thread
    assert "checker.check_all" in names
