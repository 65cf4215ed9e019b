"""The benchmark's traced run wraps lockbench's queue-pair methods by name.

`lockperf.spans.install` replaces methods on `QueuePair` and `TcpQueuePair`;
a refactor that moves or renames them must fail here, not only in the
benchmark's traced run.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from lockperf.spans import SpanRecorder, install  # noqa: E402

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
