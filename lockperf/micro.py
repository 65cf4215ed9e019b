"""Isolated µs/op timings of each layer's public surface.

Each timing is the median over BATCHES batches of one call repeated;
everything runs in one process, so the TCP and socket round trips below
include a thread handoff on the same interpreter as well as loopback.
"""

from __future__ import annotations

import socket
import statistics
import threading
import time

from lockbench import InprocFabric, TraceRecorder
from lockbench.framing import recv_frame, send_frame
from lockbench.server_lm import (
    DEFAULT_SR_MESSAGE_COST,
    DEFAULT_TCP_MESSAGE_COST,
    FRONTEND_SEND_RECV,
    FRONTEND_TCP,
    MESSAGE_SIZE,
    InprocChannel,
    LockServer,
    MessageCostModel,
    QpConn,
    ServerConfig,
    ServerLockClient,
    SocketConn,
)
from lockbench.tcp_transport import TcpAgent, TcpFabric
from lockbench.trace import MODE_SHARED, OP_ACQ, OUT_REQ

BATCHES = 7


def per_call_us(fn, calls: int) -> float:
    """Median over BATCHES of the mean µs of `calls` back-to-back calls."""
    fn()  # lazy set-up on the first call stays out of the timing
    batches = []
    for _ in range(BATCHES):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter_ns() - start) / calls / 1e3)
    return statistics.median(batches)


def _echo_qp(qp) -> threading.Thread:
    """Serve one queue pair: echo every received message back."""

    def loop():
        qp.post_recv(MESSAGE_SIZE)
        while True:
            completion = qp.poll_recv()
            if completion is None:
                return
            qp.post_recv(MESSAGE_SIZE)
            qp.post_send(completion.payload)

    thread = threading.Thread(target=loop, name="lockperf-echo", daemon=True)
    thread.start()
    return thread


def _ping(qp, message: bytes):
    def call():
        qp.post_recv(MESSAGE_SIZE)
        while not qp.post_send(message).ok:  # the echo loop reposts its receive
            pass
        qp.poll_recv()

    return call


def _sendrecv_rtt_us(fabric, client_qp, calls: int) -> float:
    server_qp = fabric.sr_listen().accept(timeout=10)
    echo = _echo_qp(server_qp)
    try:
        return per_call_us(_ping(client_qp, bytes(MESSAGE_SIZE)), calls)
    finally:
        client_qp.close()
        server_qp.close()
        echo.join(timeout=10)


def verbs_metrics() -> dict:
    fabric = InprocFabric()
    region = fabric.register_region(64)
    qp = fabric.connect(1)
    rid = region.region_id
    zero4 = bytes(4)
    out = {
        "verbs.qp_cas_us": per_call_us(lambda: qp.post_cas(rid, 0, 0, 0), 2000),
        "verbs.qp_fa_us": per_call_us(lambda: qp.post_fa(rid, 8, 1), 2000),
        "verbs.qp_read4_us": per_call_us(lambda: qp.post_read(rid, 4, 4), 2000),
        "verbs.qp_write4_us": per_call_us(lambda: qp.post_write(rid, 4, zero4), 2000),
        "verbs.region_cas_us": per_call_us(lambda: region.compare_and_swap(0, 0, 0), 4000),
        "verbs.region_fa_us": per_call_us(lambda: region.fetch_and_add(8, 1), 4000),
        "verbs.region_read4_us": per_call_us(lambda: region.read(4, 4), 4000),
    }
    qp.close()
    sr_fabric = InprocFabric()
    sr_fabric.sr_listen()
    out["verbs.sendrecv_rtt_us"] = _sendrecv_rtt_us(sr_fabric, sr_fabric.connect(1), 1000)
    sr_fabric.close()
    return out


def _rpc_pair_us(server: LockServer, conn, calls: int) -> float:
    client = ServerLockClient(conn, 1)

    def pair():
        client.acquire(0, False)
        client.release(0)

    try:
        return per_call_us(pair, calls)
    finally:
        client.close()
        server.shutdown()


def server_metrics() -> dict:
    """Acquire+release through ServerLockClient at cost 0, per frontend
    connection, and the cost model's observed charge."""
    inproc = LockServer(ServerConfig(4, FRONTEND_TCP, 0.0))
    channel = InprocChannel()
    inproc.attach_channel(channel)
    out = {"server_lm.rpc_pair_us.inproc_channel": _rpc_pair_us(inproc, channel, 500)}

    sr = LockServer(ServerConfig(4, FRONTEND_SEND_RECV, 0.0))
    fabric = InprocFabric()
    sr.serve_sr_listener(fabric.sr_listen())
    out["server_lm.rpc_pair_us.qp_conn"] = _rpc_pair_us(sr, QpConn(fabric.connect(1)), 500)
    fabric.close()

    tcp = LockServer(ServerConfig(4, FRONTEND_TCP, 0.0))
    host, port = tcp.serve_tcp()
    out["server_lm.rpc_pair_us.socket_conn"] = _rpc_pair_us(tcp, SocketConn(host, port), 500)

    # Two messages per pair; the gap is per message.
    out["server_lm.frontend_gap_us"] = (
        out["server_lm.rpc_pair_us.qp_conn"] - out["server_lm.rpc_pair_us.inproc_channel"]
    ) / 2
    for frontend, cost in (("tcp", DEFAULT_TCP_MESSAGE_COST), ("sr", DEFAULT_SR_MESSAGE_COST)):
        model = MessageCostModel(cost, 4)
        out[f"server_lm.charge_us.{frontend}"] = per_call_us(model.charge, 1000)
    return out


def tcp_transport_metrics() -> dict:
    agent = TcpAgent()
    host, port = agent.start()
    try:
        region = agent.register_region(64)
        rid = region.region_id
        fabric = TcpFabric(host, port)
        qp = fabric.connect(1)
        out = {
            "tcp_transport.cas_rtt_us": per_call_us(lambda: qp.post_cas(rid, 0, 0, 0), 500),
            "tcp_transport.read4_rtt_us": per_call_us(lambda: qp.post_read(rid, 4, 4), 500),
        }
        qp.close()
        connects = []
        for _ in range(15):
            start = time.perf_counter_ns()
            extra = fabric.connect()
            connects.append((time.perf_counter_ns() - start) / 1e6)
            extra.close()
        out["tcp_transport.connect_ms"] = statistics.median(connects)
        agent.sr_listen()
        out["tcp_transport.sendrecv_rtt_us"] = _sendrecv_rtt_us(agent, fabric.connect(2), 300)
        return out
    finally:
        agent.stop()


def framing_metrics() -> dict:
    near, far = socket.socketpair()

    def echo():
        while (frame := recv_frame(far)) is not None:
            send_frame(far, frame)

    thread = threading.Thread(target=echo, name="lockperf-frame-echo", daemon=True)
    thread.start()
    message = bytes(MESSAGE_SIZE)

    def round_trip():
        send_frame(near, message)
        recv_frame(near)

    try:
        return {"framing.frame_rtt_us": per_call_us(round_trip, 1000)}
    finally:
        near.close()
        thread.join(timeout=10)
        far.close()


def trace_metrics() -> dict:
    recorder = TraceRecorder()
    out = {
        "trace.record_us": per_call_us(
            lambda: recorder.record(1, 1, 0, OP_ACQ, MODE_SHARED, OUT_REQ), 5000
        )
    }
    events = 20000
    recorder = TraceRecorder()
    for i in range(events):
        recorder.record(i % 3, i % 3, i % 64, OP_ACQ, MODE_SHARED, OUT_REQ)
    out["trace.sort_us_per_event"] = per_call_us(recorder.sorted_events, 1) / events
    return out


def run_all() -> dict:
    out = {}
    for part in (verbs_metrics, server_metrics, tcp_transport_metrics, framing_metrics, trace_metrics):
        out.update(part())
    return out
