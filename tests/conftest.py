"""Fixtures shared by the verb-layer and TCP-transport tests."""

import pytest

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
