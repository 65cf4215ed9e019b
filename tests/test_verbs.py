"""Verb-layer contracts: region atomics, serial stamps, SEND/RECV flow."""

import itertools
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from lockbench.verbs import (
    Completion,
    CompletionStatus,
    Inbox,
    InprocFabric,
    MemoryRegion,
    RegionAccessError,
)

U64 = 1 << 64


@pytest.fixture
def fabric():
    f = InprocFabric()
    yield f
    f.close()


@pytest.fixture
def region(fabric):
    return fabric.register_region(64)


def test_region_starts_zeroed(region):
    assert [region.read(offset, 8) for offset in range(0, 64, 8)] == [(bytes(8), 1)] * 8


def test_write_then_read_round_trip(region):
    region.write(8, b"\x11\x22\x33\x44\x55\x66\x77\x88")
    data, _ = region.read(8, 8)
    assert data == b"\x11\x22\x33\x44\x55\x66\x77\x88"


def test_cas_success_returns_old_and_swaps(region):
    old, _ = region.compare_and_swap(0, 0, 42)
    assert old == 0
    assert region.snapshot_word(0) == 42


def test_cas_failure_returns_old_without_swapping(region):
    region.write(0, (7).to_bytes(8, "little"))
    old, _ = region.compare_and_swap(0, 0, 42)
    assert old == 7
    assert region.snapshot_word(0) == 7


def test_fetch_and_add_wraps_modulo_2_64(region):
    old, _ = region.fetch_and_add(0, U64 - 1)
    assert old == 0
    assert region.snapshot_word(0) == U64 - 1
    old, _ = region.fetch_and_add(0, 2)
    assert old == U64 - 1
    assert region.snapshot_word(0) == 1


def test_half_word_write_leaves_other_half_intact(region):
    region.write(0, (0x1111111122222222).to_bytes(8, "little"))
    region.write(4, bytes(4))  # zero the high half only
    assert region.snapshot_word(0) == 0x22222222


def test_serials_strictly_increase_per_word(region):
    serials = [
        region.fetch_and_add(0, 1)[1],
        region.compare_and_swap(0, 1, 5)[1],
        region.write(0, bytes(8)),
        region.read(0, 8)[1],
    ]
    assert serials == sorted(serials)
    assert len(set(serials)) == len(serials)


def test_serials_are_per_word_not_per_region(region):
    s0 = region.fetch_and_add(0, 1)[1]
    s1 = region.fetch_and_add(8, 1)[1]
    # Independent counters: the second word starts its own sequence.
    assert s0 == s1 == 1


def test_word_crossing_access_raises(region):
    low, high = (0x1111111122222222).to_bytes(8, "little"), (0x3333333344444444).to_bytes(8, "little")
    region.write(0, low)
    region.write(8, high)
    for offset, length in [(0, 16), (4, 8), (7, 2), (0, 64)]:
        with pytest.raises(RegionAccessError, match="crosses a word boundary"):
            region.read(offset, length)
        with pytest.raises(RegionAccessError, match="crosses a word boundary"):
            region.write(offset, bytes(length))
    # Neither word changed, and neither counted a serial for a rejected access.
    assert region.read(0, 8) == (low, 2)
    assert region.read(8, 8) == (high, 2)


@pytest.mark.parametrize(
    "offset,length",
    [(-1, 8), (60, 8), (0, 0), (64, 1), (0, 65)],
)
def test_out_of_bounds_access_raises(region, offset, length):
    with pytest.raises(RegionAccessError):
        region.read(offset, length)


def test_misaligned_atomic_raises(region):
    with pytest.raises(RegionAccessError):
        region.compare_and_swap(4, 0, 1)
    with pytest.raises(RegionAccessError):
        region.fetch_and_add(1, 1)


def test_concurrent_fa_from_many_threads_is_atomic(region):
    n_threads, per_thread = 8, 500

    def bump():
        for _ in range(per_thread):
            region.fetch_and_add(0, 1)

    threads = [threading.Thread(target=bump) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert region.snapshot_word(0) == n_threads * per_thread


def test_overlapping_half_write_does_not_tear_fa(region):
    # A 4-byte write to the high half must serialize against whole-word FAs;
    # the low half's count survives every interleaving.
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            region.write(4, b"\xff\xff\xff\xff")
            region.write(4, bytes(4))

    t = threading.Thread(target=writer)
    t.start()
    try:
        for _ in range(2000):
            region.fetch_and_add(0, 1)
    finally:
        stop.set()
        t.join()
    assert region.snapshot_word(0) & 0xFFFFFFFF == 2000


def test_one_sided_verbs_via_queue_pair(fabric, region):
    qp = fabric.connect()
    c = qp.post_cas(region.region_id, 0, 0, 99)
    assert c.ok and c.value == 0
    c = qp.post_fa(region.region_id, 0, 1)
    assert c.ok and c.value == 99
    c = qp.post_read(region.region_id, 0, 8)
    assert c.ok and c.value == 100
    c = qp.post_write(region.region_id, 0, bytes(8))
    assert c.ok
    assert region.snapshot_word(0) == 0


def test_unknown_region_yields_local_access_error(fabric):
    qp = fabric.connect()
    c = qp.post_read(999, 0, 8)
    assert c.status == CompletionStatus.LOCAL_ACCESS_ERROR
    assert not c.ok


def test_out_of_bounds_verb_yields_local_access_error(fabric, region):
    qp = fabric.connect()
    c = qp.post_write(region.region_id, 60, bytes(8))
    assert c.status == CompletionStatus.LOCAL_ACCESS_ERROR


# -- two-sided: every case runs on each transport (see conftest.sr_hosts) --

RNR = CompletionStatus.RECEIVER_NOT_READY


def test_send_without_posted_receive_is_rnr(sr_hosts):
    for host in sr_hosts:
        client, server = host.couple()
        c = client.post_send(b"hello")
        assert c.status == RNR, host.name
        # The failed SEND consumed nothing; a posted receive fixes the next one.
        server.post_recv(16)
        assert client.post_send(b"hello").ok, host.name
        recv = server.poll_recv(timeout=5)
        assert recv is not None and recv.ok and recv.payload == b"hello", host.name


def test_send_larger_than_receive_buffer_truncates(sr_hosts):
    for host in sr_hosts:
        client, server = host.couple()
        for sender, receiver in ((client, server), (server, client)):
            receiver.post_recv(4)
            c = sender.post_send(b"way too long")
            assert c.status == CompletionStatus.TRUNCATED, host.name
            recv = receiver.poll_recv(timeout=5)
            assert recv.status == CompletionStatus.TRUNCATED, host.name
            assert recv.payload == b"", host.name


def test_receives_consume_buffers_in_order(sr_hosts):
    for host in sr_hosts:
        client, server = host.couple()
        server.post_recv(8)
        server.post_recv(8)
        assert client.post_send(b"one").ok, host.name
        assert client.post_send(b"two").ok, host.name
        assert client.post_send(b"three").status == RNR, host.name
        assert server.poll_recv(timeout=5).payload == b"one", host.name
        assert server.poll_recv(timeout=5).payload == b"two", host.name


def test_reply_flows_server_to_client(sr_hosts):
    for host in sr_hosts:
        client, server = host.couple()
        assert server.post_send(b"grant").status == RNR, host.name
        client.post_recv(8)
        assert server.post_send(b"grant").ok, host.name
        assert client.poll_recv(timeout=5).payload == b"grant", host.name


def test_poll_recv_times_out(sr_hosts):
    for host in sr_hosts:
        client, server = host.couple()
        assert server.poll_recv(timeout=0.01) is None, host.name
        assert client.poll_recv(timeout=0.01) is None, host.name


def test_close_unblocks_peer_poll(sr_hosts):
    # A blocked poll at either end ends when either end closes.
    for host in sr_hosts:
        for poller_end, closer_end in itertools.product((0, 1), repeat=2):
            ends = host.couple()
            result = []
            t = threading.Thread(target=lambda: result.append(ends[poller_end].poll_recv(timeout=5)))
            t.start()
            ends[closer_end].close()
            t.join(timeout=5)
            assert not t.is_alive(), (host.name, poller_end, closer_end)
            assert result == [None], (host.name, poller_end, closer_end)


def test_send_after_peer_close_is_rnr(sr_hosts):
    # Whether or not the sender has seen the close yet (its own inbox
    # closes with the peer), the SEND completes RNR.
    for host in sr_hosts:
        for sender_end, seen in itertools.product((0, 1), (False, True)):
            ends = host.couple()
            sender, receiver = ends[sender_end], ends[1 - sender_end]
            receiver.post_recv(8)
            receiver.close()
            if seen:
                assert sender.poll_recv(timeout=5) is None, (host.name, sender_end)
            status = sender.post_send(b"x").status
            assert status == RNR, (host.name, sender_end, seen)


def test_one_sided_verbs_work_after_peer_close(sr_hosts):
    for host in sr_hosts:
        region = host.host.register_region(8)
        client, server = host.couple()
        server.close()
        assert client.poll_recv(timeout=5) is None, host.name  # the close reached the client
        c = client.post_cas(region.region_id, 0, 0, 7)
        assert c.ok and c.value == 0, (host.name, c.status)
        assert region.snapshot_word(0) == 7, host.name


def test_listener_close_unblocks_accept(sr_hosts):
    for host in sr_hosts:
        listener = host.host.sr_listen()
        got = []
        t = threading.Thread(target=lambda: got.append(listener.accept(timeout=5)))
        t.start()
        listener.close()
        t.join(timeout=5)
        assert got == [None], host.name


def test_a_closed_listener_never_yields_a_queue_pair_connected_after_its_close(sr_hosts):
    for host in sr_hosts:
        listener = host.host.sr_listen()
        host.host.close()
        host.clients.append(host._connect())  # its server side lands behind the close
        start = time.monotonic()
        assert [listener.accept(timeout=5) for _ in range(3)] == [None] * 3, host.name
        assert time.monotonic() - start < 4, host.name  # closed, not timed out


def test_inbox_takes_what_came_before_its_close_and_nothing_after():
    inbox = Inbox()
    assert inbox.take(timeout=0.01) is None and not inbox.closed  # a timeout
    inbox.put("a")
    inbox.put("b")
    inbox.close()
    inbox.close()  # a second close changes nothing
    inbox.put("late")
    assert inbox.closed
    assert [inbox.take(timeout=5) for _ in range(5)] == ["a", "b", None, None, None]
    assert inbox.accept(timeout=5) is None


def test_concurrent_sends_match_exactly_the_posted_receives(sr_hosts):
    # Several server handler threads push grants to one client: each posted
    # receive is matched by exactly one SEND, the rest are RNR.
    n_senders, n_posted = 16, 5
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for host in sr_hosts:
            client, server = host.couple()
            for _ in range(n_posted):
                client.post_recv(8)
            start = threading.Barrier(n_senders)
            statuses = [None] * n_senders

            def send(i):
                start.wait()
                statuses[i] = server.post_send(bytes([i])).status

            threads = [threading.Thread(target=send, args=(i,)) for i in range(n_senders)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads), host.name
            delivered = {i for i, status in enumerate(statuses) if status == CompletionStatus.OK}
            assert len(delivered) == n_posted, host.name
            assert statuses.count(RNR) == n_senders - n_posted, host.name
            polled = [client.poll_recv(timeout=5) for _ in range(n_posted)]
            assert sorted(c.payload[0] for c in polled) == sorted(delivered), host.name
            assert client.poll_recv(timeout=0.05) is None, host.name
    finally:
        sys.setswitchinterval(old_interval)


def test_close_drains_delivered_then_every_poll_is_none(sr_hosts):
    for host in sr_hosts:
        client, server = host.couple()
        server.post_recv(8)
        server.post_recv(8)
        assert client.post_send(b"a").ok, host.name
        assert client.post_send(b"b").ok, host.name
        server.close()
        start = time.monotonic()
        polled = [server.poll_recv(timeout=5) for _ in range(5)]
        assert [c and c.payload for c in polled] == [b"a", b"b", None, None, None], host.name
        assert time.monotonic() - start < 4, host.name  # closed, not timed out


def test_connect_assigns_dense_client_ids(fabric):
    assert fabric.connect().client_id == 1
    assert fabric.connect().client_id == 2
    assert fabric.connect(client_id=10).client_id == 10


def test_connect_rejects_nonpositive_client_id(fabric):
    with pytest.raises(ValueError):
        fabric.connect(client_id=0)


def test_a_completion_is_its_status_payload_and_serial():
    # Each verb returns its completion to its poster: none names its verb.
    assert Completion._fields == ("status", "payload", "serial")


def test_completion_value_decodes_little_endian():
    c = Completion(CompletionStatus.OK, (258).to_bytes(8, "little"), 1)
    assert c.value == 258
    assert c.ok


def test_completion_is_immutable_with_defaults(fabric, region):
    c = Completion(CompletionStatus.LOCAL_ACCESS_ERROR)
    assert (c.payload, c.serial, c.value, c.ok) == (b"", None, 0, False)
    with pytest.raises(AttributeError):
        c.status = CompletionStatus.OK
    posted = fabric.connect().post_read(region.region_id, 0, 2)
    assert isinstance(posted, Completion)
    assert (posted.status, posted.payload) == (CompletionStatus.OK, b"\0\0")
    with pytest.raises(AttributeError):
        posted.payload = b"x"


U64S = st.integers(min_value=0, max_value=U64 - 1)


def _read_words(region, serials):
    """The whole region, one in-word READ per word; each READ must take its
    word's next serial."""
    data = b""
    for offset in range(0, region.length, 8):
        chunk, serial = region.read(offset, min(8, region.length - offset))
        assert serial == serials.get(offset // 8, 0) + 1
        serials[offset // 8] = serial
        data += chunk
    return data


@settings(max_examples=150, deadline=None)
@given(length=st.integers(min_value=1, max_value=40), data=st.data())
def test_region_matches_bytearray_model(length, data):
    """Random in-word READ/WRITE and aligned CAS/FA against a plain
    bytearray; every access takes its word's next serial.  A READ or WRITE
    across a word boundary raises and changes no byte and no serial."""
    region = MemoryRegion(1, length)
    model = bytearray(length)
    serials = {}
    kinds = ["read", "write"] + (["cas", "fa"] if length >= 8 else []) + (["span"] if length > 8 else [])
    for _ in range(data.draw(st.integers(min_value=1, max_value=25))):
        kind = data.draw(st.sampled_from(kinds))
        if kind == "span":
            boundary = 8 * data.draw(st.integers(min_value=1, max_value=(length - 1) // 8))
            offset = data.draw(st.integers(min_value=boundary - 7, max_value=boundary - 1))
            size = data.draw(st.integers(min_value=boundary - offset + 1, max_value=length - offset))
            with pytest.raises(RegionAccessError):
                if data.draw(st.booleans()):
                    region.read(offset, size)
                else:
                    region.write(offset, data.draw(st.binary(min_size=size, max_size=size)))
            assert _read_words(region, serials) == bytes(model)
            continue
        if kind in ("read", "write"):
            offset = data.draw(st.integers(min_value=0, max_value=length - 1))
            word_end = min(offset // 8 * 8 + 8, length)
            size = data.draw(st.integers(min_value=1, max_value=word_end - offset))
            if kind == "read":
                got, serial = region.read(offset, size)
                assert got == bytes(model[offset : offset + size])
            else:
                payload = data.draw(st.binary(min_size=size, max_size=size))
                serial = region.write(offset, payload)
                model[offset : offset + size] = payload
            word = offset // 8
        else:
            word = data.draw(st.integers(min_value=0, max_value=length // 8 - 1))
            offset = word * 8
            before = int.from_bytes(model[offset : offset + 8], "little")
            if kind == "cas":
                expected = data.draw(st.one_of(st.just(before), U64S))
                swap = data.draw(U64S)
                old, serial = region.compare_and_swap(offset, expected, swap)
                after = swap if before == expected else before
            else:
                addend = data.draw(U64S)
                old, serial = region.fetch_and_add(offset, addend)
                after = (before + addend) % U64
            assert old == before
            model[offset : offset + 8] = after.to_bytes(8, "little")
        assert serial == serials.get(word, 0) + 1
        serials[word] = serial
        assert _read_words(region, serials) == bytes(model)


def test_region_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        MemoryRegion(1, 0)
    fabric = InprocFabric()
    with pytest.raises(ValueError):
        fabric.register_region(-8)
