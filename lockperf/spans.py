"""Span recording around the public surface of each lockbench layer.

`install(recorder)` replaces methods of lockbench's public classes (and
two public functions of `lockbench.bench`) with wrappers that time each
call.  A span is `(span_id, parent_id, name, start_ns, end_ns, lock_id,
tag, actor)`: the parent is the span open on the same thread when the
call began, the lock id names one client's acquire/release pair (server
spans carry the client and item they served), and the actor is
`pid:thread`.  Spans stay in memory until the run ends.

Only the benchmark's traced run installs these wrappers; the end-to-end
runs execute lockbench unmodified.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time

# Set in the traced interpreter's environment; TCP client processes inherit
# it and write their spans into this directory when their client closes.
SPAN_DIR_ENV = "LOCKPERF_SPAN_DIR"


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.actor = f"{os.getpid()}:{threading.get_ident()}"
            local.lock = None
            local.locks_opened = 0
        return local

    def wrap(self, owner, attr: str, name: str, tag=None, opens_lock=None, lock=None) -> None:
        """Time every call of `owner.attr`.

        `tag(args, result)` labels the span; `opens_lock(args)` starts a new
        lock id that later spans on the thread inherit; `lock(args)` gives
        this span alone a lock id.
        """
        original = getattr(owner, attr)
        spans = self.spans
        ids = self._ids
        state = self._thread_state
        clock = time.monotonic_ns

        def wrapper(*args, **kwargs):
            local = state()
            if opens_lock is not None:
                local.locks_opened += 1
                local.lock = f"{opens_lock(args)}#{local.locks_opened}"
            stack = local.stack
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append(
                (
                    span_id,
                    parent,
                    name,
                    start,
                    end,
                    local.lock if lock is None else lock(args),
                    None if tag is None else tag(args, result),
                    local.actor,
                )
            )
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)
        os.replace(tmp, path)


def _mode_tag(args, _result):
    return "shared" if args[2] else "exclusive"


def _cas_tag(args, completion):
    # post_cas(region_id, offset, expected, swap): the swap landed iff the
    # old value equals the expected one.
    return "ok" if completion.value == args[3] else "failed"


def _client_lock(args):
    return f"c{args[0].client_id}:i{args[1]}"


def _core_lock(args):
    return f"c{args[1]}:i{args[2]}"


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from lockbench import bench, client_lm, server_lm, tcp_transport, trace, verbs

    wrap = recorder.wrap
    wrap(client_lm.ClientSession, "acquire", "client_lm.acquire", _mode_tag, _client_lock)
    wrap(client_lm.ClientSession, "release", "client_lm.release")
    wrap(server_lm.ServerLockClient, "acquire", "server_lm.client.acquire", _mode_tag, _client_lock)
    wrap(server_lm.ServerLockClient, "release", "server_lm.client.release")
    for conn in (server_lm.InprocChannel, server_lm.QpConn, server_lm.SocketConn):
        wrap(conn, "rpc", "server_lm.rpc")
    wrap(server_lm.LockServerCore, "acquire", "server_lm.core.acquire", lock=_core_lock)
    wrap(server_lm.LockServerCore, "release", "server_lm.core.release", lock=_core_lock)
    wrap(server_lm.MessageCostModel, "charge", "server_lm.charge")
    for prefix, qp in (("verbs.qp", verbs.QueuePair), ("tcp_transport.qp", tcp_transport.TcpQueuePair)):
        wrap(qp, "post_cas", f"{prefix}.cas", _cas_tag)
        for verb in ("fa", "read", "write", "send", "recv"):
            wrap(qp, f"post_{verb}", f"{prefix}.{verb}")
        wrap(qp, "poll_recv", f"{prefix}.poll_recv")
    for method, short in (
        ("compare_and_swap", "cas"),
        ("fetch_and_add", "fa"),
        ("read", "read"),
        ("write", "write"),
    ):
        wrap(verbs.MemoryRegion, method, f"verbs.region.{short}")
    wrap(tcp_transport.TcpFabric, "connect", "tcp_transport.connect")
    wrap(trace.TraceRecorder, "record", "trace.record")
    wrap(bench, "check_all", "checker.check_all", lambda args, _r: len(args[0]))
    wrap(bench, "client_op_stream", "bench.op_stream")


def install_in_client_process(span_dir: str) -> None:
    """Trace a TCP client process and write its spans to `span_dir` when
    its client closes (the worker closes its client before reporting)."""
    from lockbench import client_lm, server_lm

    recorder = SpanRecorder()
    install(recorder)
    path = os.path.join(span_dir, f"spans-{os.getpid()}.json")
    for cls in (client_lm.ClientSession, server_lm.ServerLockClient):
        close = cls.close

        def close_and_dump(self, _close=close):
            _close(self)
            recorder.dump(path)

        cls.close = close_and_dump
