"""Fixtures shared across the test modules."""

import threading

import pytest

from lockbench import framing
from lockbench.tcp_transport import TcpAgent, TcpFabric
from lockbench.verbs import InprocFabric


class SrHost:
    """One transport's passive host and the connect() its clients use.

    `couple()` connects a client queue pair and accepts its server-side
    peer, so a two-sided case runs unchanged on either transport.
    """

    def __init__(self, name, host, connect):
        self.name = name
        self.host = host
        self._connect = connect
        self.clients = []

    def couple(self):
        listener = self.host.sr_listen()
        client = self._connect()
        self.clients.append(client)
        server = listener.accept(timeout=5)
        assert server is not None and server.client_id == client.client_id, self.name
        return client, server


@pytest.fixture
def sr_hosts():
    """The in-process fabric and a TCP agent: the two-sided tests run every
    case on both."""
    fabric = InprocFabric()
    agent = TcpAgent()
    hosts = [
        SrHost("inproc", fabric, fabric.connect),
        SrHost("tcp", agent, TcpFabric(*agent.start()).connect),
    ]
    yield hosts
    for host in hosts:
        for client in host.clients:
            client.close()
    fabric.close()
    agent.stop()


@pytest.fixture
def stub_peer():
    """`start(*replies)` starts a peer that accepts one connection and, for
    each frame it reads, sends the next of `replies` as raw bytes; then it
    holds the connection open until the client closes it, so a client
    waiting for more bytes blocks instead of reading EOF.  Returns the
    peer's address."""
    listener = framing.listen("127.0.0.1", 0)
    conns = []

    def serve(replies):
        conn, _ = listener.accept()
        conns.append(conn)
        for reply in replies:
            if framing.recv_frame(conn) is None:
                break
            conn.sendall(reply)
        while framing.recv_frame(conn) is not None:
            pass
        framing.close(conn)

    def start(*replies):
        threading.Thread(target=serve, args=(replies,), daemon=True).start()
        return listener.getsockname()

    yield start
    for conn in conns:
        framing.close(conn)
    framing.close(listener)
