"""Client-centric protocol: CAS loop, FA pre-registration, half-word release."""

import threading

import pytest

from lockbench.checker import DESIGN_CLIENT_CENTRIC, check_all
from lockbench.client_lm import ClientSession
from lockbench.errors import AcquisitionTimeout, ProtocolError, ReleaseError
from lockbench.locktable import HALF_SIZE, WORD_SIZE, LockTable, encode
from lockbench.trace import (
    MODE_EXCLUSIVE,
    MODE_SHARED,
    OUT_GRANT,
    OUT_TIMEOUT,
    TraceRecorder,
)
from lockbench.verbs import Completion, CompletionStatus, InprocFabric, VerbKind


class CountingQp:
    """Delegating wrapper that tallies posted verbs by kind."""

    def __init__(self, qp):
        self._qp = qp
        self.counts = {kind: 0 for kind in VerbKind}

    def _posted(self, kind, completion):
        self.counts[kind] += 1
        return completion

    def post_read(self, *a):
        return self._posted(VerbKind.READ, self._qp.post_read(*a))

    def post_write(self, *a):
        return self._posted(VerbKind.WRITE, self._qp.post_write(*a))

    def post_cas(self, *a):
        return self._posted(VerbKind.CAS, self._qp.post_cas(*a))

    def post_fa(self, *a):
        return self._posted(VerbKind.FA, self._qp.post_fa(*a))

    def close(self):
        self._qp.close()


class FailOnceQp(CountingQp):
    """Fails the next WRITE or FA of kind `fail_next` with
    LOCAL_ACCESS_ERROR, without executing it; later verbs go through."""

    fail_next = None

    def _fail(self, kind):
        if kind is self.fail_next:
            self.fail_next = None
            return Completion(kind, CompletionStatus.LOCAL_ACCESS_ERROR)
        return None

    def post_write(self, *a):
        return self._fail(VerbKind.WRITE) or super().post_write(*a)

    def post_fa(self, *a):
        return self._fail(VerbKind.FA) or super().post_fa(*a)


@pytest.fixture
def fabric():
    f = InprocFabric()
    yield f
    f.close()


@pytest.fixture
def table(fabric):
    return LockTable.allocate(fabric, 4)


def make_session(fabric, table, client_id, **kwargs):
    qp = CountingQp(fabric.connect(client_id))
    return ClientSession(qp, table, client_id, **kwargs)


def set_word(table, item, word):
    table.region.write(item * WORD_SIZE, word.to_bytes(8, "little"))


# -- exclusive acquire --------------------------------------------------------


def test_exclusive_uncontended_first_cas_wins(fabric, table):
    s = make_session(fabric, table, 3)
    s.acquire(0, shared=False)
    assert s.held_locks() == {0: MODE_EXCLUSIVE}
    assert table.region.snapshot_word(0) == encode(3, 0)
    assert s.qp.counts[VerbKind.CAS] == 1


def test_exclusive_succeeds_after_owner_departs(fabric, table):
    set_word(table, 0, encode(7, 0))
    s = make_session(fabric, table, 3, backoff=0.001)

    def depart():
        # Owner 7 releases: zero its half, leaving the count alone.
        table.region.write(HALF_SIZE, bytes(4))

    t = threading.Timer(0.02, depart)
    t.start()
    try:
        s.acquire(0, shared=False)
    finally:
        t.join()
    assert table.region.snapshot_word(0) == encode(3, 0)
    assert s.qp.counts[VerbKind.CAS] >= 2  # at least one failed attempt


def test_exclusive_blocked_by_shared_count(fabric, table):
    # Two pre-registered readers: CAS(expected=0) keeps failing and leaves
    # the word untouched each time.
    set_word(table, 0, encode(0, 2))
    s = make_session(fabric, table, 3, max_retries=5)
    with pytest.raises(AcquisitionTimeout):
        s.acquire(0, shared=False)
    assert table.region.snapshot_word(0) == encode(0, 2)
    assert s.held_locks() == {}


def test_exclusive_timeout_records_trace_marker(fabric, table):
    set_word(table, 0, encode(9, 0))
    rec = TraceRecorder()
    s = ClientSession(fabric.connect(3), table, 3, max_retries=2, recorder=rec)
    with pytest.raises(AcquisitionTimeout):
        s.acquire(0, shared=False)
    outcomes = [(e.op, e.outcome) for e in rec.sorted_events()]
    assert ("ACQ", OUT_TIMEOUT) in outcomes
    assert ("ACQ", OUT_GRANT) not in outcomes


def test_exclusive_retry_budget_counts_failures(fabric, table):
    set_word(table, 0, encode(9, 0))
    s = make_session(fabric, table, 3, max_retries=4)
    with pytest.raises(AcquisitionTimeout):
        s.acquire(0, shared=False)
    assert s.qp.counts[VerbKind.CAS] == 5  # initial attempt + 4 retries


# -- shared acquire -----------------------------------------------------------


def test_shared_uncontended_single_fa(fabric, table):
    s = make_session(fabric, table, 2)
    s.acquire(1, shared=True)
    assert s.held_locks() == {1: MODE_SHARED}
    assert table.region.snapshot_word(1) == encode(0, 1)
    assert s.qp.counts[VerbKind.FA] == 1
    assert s.qp.counts[VerbKind.READ] == 0


def test_shared_coexists_with_other_readers(fabric, table):
    set_word(table, 1, encode(0, 3))
    s = make_session(fabric, table, 2)
    s.acquire(1, shared=True)
    assert table.region.snapshot_word(1) == encode(0, 4)


def test_shared_polls_owner_half_never_second_fa(fabric, table):
    set_word(table, 1, encode(9, 0))
    s = make_session(fabric, table, 2, backoff=0.001)

    def owner_releases():
        table.region.write(WORD_SIZE + HALF_SIZE, bytes(4))

    t = threading.Timer(0.02, owner_releases)
    t.start()
    try:
        s.acquire(1, shared=True)
    finally:
        t.join()
    assert table.region.snapshot_word(1) == encode(0, 1)
    assert s.qp.counts[VerbKind.FA] == 1  # pre-registration happens exactly once
    assert s.qp.counts[VerbKind.READ] >= 1


def test_shared_timeout_rolls_back_the_increment(fabric, table):
    set_word(table, 2, encode(6, 1))
    rec = TraceRecorder()
    s = ClientSession(fabric.connect(4), table, 4, max_retries=3, recorder=rec)
    with pytest.raises(AcquisitionTimeout):
        s.acquire(2, shared=True)
    # encode(6,1) -> FA(+1) -> encode(6,2) -> rollback -> encode(6,1).
    assert table.region.snapshot_word(2) == encode(6, 1)
    outcomes = [(e.op, e.outcome) for e in rec.sorted_events()]
    assert ("ACQ", OUT_TIMEOUT) in outcomes
    assert ("REL", OUT_TIMEOUT) in outcomes  # the rollback marker


@pytest.mark.parametrize("item", [-1, 4])
def test_acquire_rejects_out_of_range_items(fabric, table, item):
    s = make_session(fabric, table, 2)
    with pytest.raises(ValueError):
        s.acquire(item, shared=True)
    assert all(count == 0 for count in s.qp.counts.values())


def test_duplicate_acquire_raises_before_any_verb(fabric, table):
    s = make_session(fabric, table, 2)
    s.acquire(0, shared=True)
    posted = dict(s.qp.counts)
    with pytest.raises(ProtocolError):
        s.acquire(0, shared=False)
    assert s.qp.counts == posted


# -- release ------------------------------------------------------------------


def test_exclusive_release_zeroes_owner_half_only(fabric, table):
    s = make_session(fabric, table, 5)
    s.acquire(0, shared=False)
    # Five shared waiters pre-increment while the writer holds the lock.
    for _ in range(5):
        table.region.fetch_and_add(0, 1)
    s.release(0)
    assert table.region.snapshot_word(0) == encode(0, 5)


def test_exclusive_release_of_clean_word_leaves_zero(fabric, table):
    s = make_session(fabric, table, 5)
    s.acquire(3, shared=False)
    s.release(3)
    assert table.region.snapshot_word(3) == 0
    assert s.held_locks() == {}


def test_shared_release_decrements_count(fabric, table):
    set_word(table, 1, encode(0, 3))
    s = make_session(fabric, table, 2)
    s.acquire(1, shared=True)  # -> count 4
    s.release(1)
    assert table.region.snapshot_word(1) == encode(0, 3)


def test_last_shared_release_returns_word_to_zero(fabric, table):
    s = make_session(fabric, table, 2)
    s.acquire(1, shared=True)
    s.release(1)
    assert table.region.snapshot_word(1) == 0


def test_release_without_hold_raises_before_any_verb(fabric, table):
    s = make_session(fabric, table, 2)
    with pytest.raises(ProtocolError):
        s.release(0)
    assert all(count == 0 for count in s.qp.counts.values())


def test_shared_count_underflow_is_a_protocol_error(fabric, table):
    s = make_session(fabric, table, 2)
    s.acquire(1, shared=True)
    # Something else (a buggy peer) steals the count out from under us.
    table.region.fetch_and_add(8, (1 << 64) - 1)
    with pytest.raises(ProtocolError):
        s.release(1)


@pytest.mark.parametrize(
    "shared, verb", [(False, VerbKind.WRITE), (True, VerbKind.FA)], ids=["exclusive", "shared"]
)
def test_failed_release_keeps_the_lock_for_a_retry(fabric, table, shared, verb):
    qp = FailOnceQp(fabric.connect(2))
    rec = TraceRecorder()
    s = ClientSession(qp, table, 2, recorder=rec)
    s.acquire(1, shared)
    held = s.held_locks()
    word = table.region.snapshot_word(1)
    posted = qp.counts[verb]
    qp.fail_next = verb
    with pytest.raises(ReleaseError):
        s.release(1)
    assert s.held_locks() == held == {1: MODE_SHARED if shared else MODE_EXCLUSIVE}
    assert table.region.snapshot_word(1) == word != 0
    s.release(1)
    assert s.held_locks() == {}
    assert table.region.snapshot_word(1) == 0
    assert qp.counts[verb] == posted + 1  # the failed attempt never reached the region
    assert check_all(rec.sorted_events(), DESIGN_CLIENT_CENTRIC) == []  # one release in the trace


class SerialQp(CountingQp):
    """Also records each completion's serial, in posting order."""

    def __init__(self, qp):
        super().__init__(qp)
        self.serials = []

    def _posted(self, kind, completion):
        self.serials.append(completion.serial)
        return super()._posted(kind, completion)


def test_each_event_carries_the_serial_of_its_verb(fabric, table):
    qp = SerialQp(fabric.connect(2))
    rec = TraceRecorder()
    s = ClientSession(qp, table, 2, backoff=0.001, max_retries=1, recorder=rec)
    s.acquire(0, shared=False)  # CAS wins
    s.release(0)  # WRITE
    set_word(table, 1, encode(9, 0))
    with pytest.raises(AcquisitionTimeout):
        s.acquire(1, shared=True)  # FA, READ, then the rollback FA
    cas, write, fa, read, rollback = qp.serials
    s.max_retries = None
    owner_leaves = threading.Timer(0.02, table.region.write, (WORD_SIZE + HALF_SIZE, bytes(4)))
    owner_leaves.start()
    try:
        s.acquire(1, shared=True)  # FA, then READs until one sees no owner
    finally:
        owner_leaves.join()
    polled = qp.serials[-1]
    s.release(1)  # FA(-1)
    assert [e.seq for e in rec.sorted_events()] == [
        cas, cas, write, write,  # REQ, GRANT, REL/REQ, REL/ACK
        fa, read, rollback,  # REQ, ACQ/TIMEOUT, REL/TIMEOUT
        qp.serials[5], polled, qp.serials[-1], qp.serials[-1],
    ]
    assert polled != qp.serials[5]  # granted by a READ, not by the FA


# -- interleavings and accounting --------------------------------------------


def test_writers_and_readers_quiesce_to_zero_words(fabric, table):
    n_clients, per_client = 6, 40
    sessions = [make_session(fabric, table, i) for i in range(1, n_clients + 1)]
    barrier = threading.Barrier(n_clients)
    failures = []

    def work(s):
        try:
            barrier.wait()
            for k in range(per_client):
                item = k % 4
                if (k + s.client_id) % 3 == 0:
                    s.acquire(item, shared=False)
                else:
                    s.acquire(item, shared=True)
                s.release(item)
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(s,)) for s in sessions]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
    assert table.words() == [0, 0, 0, 0]


def test_session_validates_construction(fabric, table):
    with pytest.raises(ValueError):
        ClientSession(fabric.connect(1), table, 0)
    with pytest.raises(ValueError):
        ClientSession(fabric.connect(1), table, 1, max_retries=-1)
    for backoff in (-1.0, float("nan"), float("inf"), 1e10):
        with pytest.raises(ValueError):
            ClientSession(fabric.connect(1), table, 1, backoff=backoff)
