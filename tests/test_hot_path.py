"""The hot paths: one-sided verbs on both transports, the region atomics'
aligned fast path, the live region registry, and the layer boundaries of
one lock cycle (`ClientSession.acquire`/`release`, `QueuePair.post_*` and
the stamps appended through `TraceRecorder.stamper`, or into
`trace.DISCARD` when untraced), and an in-process server cycle, which
packs no message, queues no reply and runs no grant scan."""

import pytest

from lockbench.client_lm import ClientSession
from lockbench import server_lm
from lockbench.server_lm import FRONTEND_TCP, InprocChannel, LockServer, ServerConfig, ServerLockClient
from lockbench.tcp_transport import TcpAgent, TcpFabric
from lockbench.trace import DISCARD, TraceRecorder
from lockbench.verbs import CompletionStatus, InprocFabric, RegionAccessError, VerbKind

from helpers import lock_table, words
from test_client_lm import CountingQp

ACCESS_ERROR = CompletionStatus.LOCAL_ACCESS_ERROR
REGION_BYTES = 32


class Host:
    """One transport's passive host and a connect() for its queue pairs."""

    def __init__(self, host, connect):
        self.host = host
        self._connect = connect
        self.qps = []

    def connect(self):
        qp = self._connect()
        self.qps.append(qp)
        return qp


@pytest.fixture(params=["inproc", "tcp"])
def host(request):
    if request.param == "inproc":
        fabric = InprocFabric()
        h = Host(fabric, fabric.connect)
        yield h
        fabric.close()
    else:
        agent = TcpAgent()
        h = Host(agent, TcpFabric(*agent.start()).connect)
        yield h
        for qp in h.qps:
            qp.close()
        agent.stop()


def post(qp, kind, region_id, offset):
    """Post one verb of `kind` on the word at `offset`."""
    if kind is VerbKind.READ:
        return qp.post_read(region_id, offset, 8)
    if kind is VerbKind.WRITE:
        return qp.post_write(region_id, offset, bytes(8))
    if kind is VerbKind.CAS:
        return qp.post_cas(region_id, offset, 0, 7)
    return qp.post_fa(region_id, offset, 7)


def words(region):
    return [region.snapshot_word(i) for i in range(REGION_BYTES // 8)]


ONE_SIDED = [VerbKind.READ, VerbKind.WRITE, VerbKind.CAS, VerbKind.FA]
ATOMICS = [VerbKind.CAS, VerbKind.FA]
# Before the region, at its length, and inside it but not 8-byte aligned.
BAD_ATOMIC_OFFSETS = [-8, REGION_BYTES, 12]


@pytest.mark.parametrize("kind", ONE_SIDED, ids=lambda k: k.name)
def test_every_one_sided_verb_on_an_unknown_region_is_an_access_error(host, kind):
    region = host.host.register_region(REGION_BYTES)
    c = post(host.connect(), kind, region.region_id + 100, 0)
    assert c.status == ACCESS_ERROR


@pytest.mark.parametrize("kind", ATOMICS, ids=lambda k: k.name)
def test_atomics_on_the_last_word_succeed(host, kind):
    region = host.host.register_region(REGION_BYTES)
    last = REGION_BYTES - 8
    c = post(host.connect(), kind, region.region_id, last)
    assert c.ok and c.value == 0 and c.serial == 1
    assert region.snapshot_word(last // 8) == 7


@pytest.mark.parametrize("offset", BAD_ATOMIC_OFFSETS)
def test_region_atomics_reject_out_of_bounds_and_misaligned_offsets(offset):
    region = InprocFabric().register_region(REGION_BYTES)
    with pytest.raises(RegionAccessError):
        region.compare_and_swap(offset, 0, 7)
    with pytest.raises(RegionAccessError):
        region.fetch_and_add(offset, 7)
    assert words(region) == [0] * (REGION_BYTES // 8)


@pytest.mark.parametrize("offset", BAD_ATOMIC_OFFSETS)
@pytest.mark.parametrize("kind", ATOMICS, ids=lambda k: k.name)
def test_queue_pair_atomics_at_bad_offsets_are_access_errors(host, kind, offset):
    region = host.host.register_region(REGION_BYTES)
    c = post(host.connect(), kind, region.region_id, offset)
    assert c.status == ACCESS_ERROR
    assert words(region) == [0] * (REGION_BYTES // 8)


@pytest.mark.parametrize("offset, length", [(4, 8), (0, 16), (7, 2)])
@pytest.mark.parametrize("kind", [VerbKind.READ, VerbKind.WRITE], ids=lambda k: k.name)
def test_a_read_or_write_across_a_word_boundary_is_an_access_error(host, kind, offset, length):
    region = host.host.register_region(REGION_BYTES)
    region.write(0, (0x1111111122222222).to_bytes(8, "little"))  # serial 1 on each word
    region.write(8, (0x3333333344444444).to_bytes(8, "little"))
    qp = host.connect()
    if kind is VerbKind.READ:
        c = qp.post_read(region.region_id, offset, length)
    else:
        c = qp.post_write(region.region_id, offset, bytes(length))
    assert c.status == ACCESS_ERROR and c.serial is None
    # Both words keep their value, and the rejected verb took neither's serial.
    for w, value in enumerate((0x1111111122222222, 0x3333333344444444)):
        c = qp.post_read(region.region_id, 8 * w, 8)
        assert c.ok and c.value == value and c.serial == 2


def test_a_region_registered_after_connect_is_reachable(host):
    qp = host.connect()
    region = host.host.register_region(REGION_BYTES)
    assert qp.post_cas(region.region_id, 8, 0, 5).ok
    assert qp.post_fa(region.region_id, 8, 1).value == 5
    assert region.snapshot_word(1) == 6


# -- the boundaries of one lock cycle -----------------------------------------


class CountingRecorder(TraceRecorder):
    def __init__(self):
        super().__init__()
        self.stamps = 0

    def stamper(self, source):
        append = super().stamper(source)

        def stamp(event):
            self.stamps += 1
            append(event)

        return stamp


CYCLE_VERBS = {False: {VerbKind.CAS: 1, VerbKind.WRITE: 1}, True: {VerbKind.FA: 2}}


@pytest.mark.parametrize(
    "shared, make_recorder",
    [(False, CountingRecorder), (True, CountingRecorder), (False, None), (True, None)],
    ids=["exclusive", "shared", "exclusive-untraced", "shared-untraced"],
)
def test_an_uncontended_cycle_posts_its_verbs_and_stamps_four_events(shared, make_recorder):
    fabric = InprocFabric()
    region, table = lock_table(fabric, 4)
    qp = CountingQp(fabric.connect(1))
    recorder = make_recorder and make_recorder()
    session = ClientSession(qp, table, 1, recorder=recorder)
    session.acquire(2, shared)
    session.release(2)
    if recorder is not None:
        assert recorder.stamps == 4 == len(recorder.sorted_events())
    assert {kind: n for kind, n in qp.counts.items() if n} == CYCLE_VERBS[shared]
    assert words(region) == [0, 0, 0, 0]
    fabric.close()


class NoCodec:
    """Stands in for `server_lm.MESSAGE`: any pack or unpack fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"MESSAGE.{name} called in process")


@pytest.mark.parametrize("shared", [False, True], ids=["exclusive", "shared"])
def test_an_uncontended_server_cycle_packs_no_message_and_stamps_four_events(shared, monkeypatch):
    monkeypatch.setattr(server_lm, "MESSAGE", NoCodec())
    scans, puts = [], []
    real_scan = server_lm.grant_scan
    monkeypatch.setattr(server_lm, "grant_scan", lambda item_queue: scans.append(1) or real_scan(item_queue))
    server_recorder, client_recorder = CountingRecorder(), CountingRecorder()
    server = LockServer(ServerConfig(4, FRONTEND_TCP), server_recorder)
    channel = server.attach_channel(InprocChannel())
    real_put = channel._replies.put
    channel._replies.put = lambda item: puts.append(item) or real_put(item)
    client = ServerLockClient(channel, 1, client_recorder)
    client.acquire(2, shared)
    client.release(2)
    # Both replies come back from the dispatch call itself.
    assert scans == [] and puts == []
    # The server stamps the acquire's request; the client stamps its grant
    # and the release's request and ACK.
    assert server_recorder.stamps == 1 and client_recorder.stamps == 3
    assert server.core.granted_count() == 0 and server.core.pending_count() == 0
    client.close()
    server.shutdown()


def test_untraced_actors_stamp_into_a_sink_that_keeps_nothing():
    # A long-lived untraced client or server (the model checker's, or
    # lockperf's micro timings') must not grow with the locks it takes.
    fabric = InprocFabric()
    region, table = lock_table(fabric, 4)
    session = ClientSession(fabric.connect(1), table, 1)
    server = LockServer(ServerConfig(4, FRONTEND_TCP))
    channel = InprocChannel()
    server.attach_channel(channel)
    client = ServerLockClient(channel, 2)
    assert session._stamp is client._stamp is server.core._stamp is DISCARD
    for i in range(1000):
        for actor in (session, client):
            actor.acquire(i % 4, i % 2 == 0)
            actor.release(i % 4)
    assert DISCARD.__self__.maxlen == 0 and len(DISCARD.__self__) == 0
    assert words(region) == [0, 0, 0, 0] and server.core.granted_count() == 0
    client.close()
    server.shutdown()
    fabric.close()
