"""Client-centric lock manager.

Clients acquire and release locks by issuing one-sided verbs straight at
the lock-table region; the host runs no lock logic at all.  Exclusive
acquisition is a CAS of the whole word from 0 to (client_id | 0), retried
with identical parameters until it lands.  Shared acquisition is a single
FA(+1) that pre-registers the reader in the count, followed — if an
exclusive owner was present — by 4-byte READ-polling of the owner half
until it reads zero; the FA is never repeated.  Exclusive release WRITEs
four zero bytes over the owner half, leaving pre-registered reader counts
intact; shared release is FA(2^64-1), a modular decrement of the count.

There is no fairness here: readers that pre-increment while a writer
holds the lock keep CAS(0) failing after the writer leaves, so a steady
reader stream can starve writers.  That behavior is intentional; the
trace stamps every request and grant, so it can be measured.

A session's surface is `acquire(item, shared)` and `release(item)`, as for
the server-centric client; the session records each held lock's mode.  A
release whose verb fails raises ReleaseError and leaves the lock held, so
the release may be retried.

Each trace event carries the per-word serial of a verb as its `seq`: a
GRANT the serial of the CAS that won, or of the FA or READ that saw no
owner; REL/REQ and REL/ACK that of the release WRITE or FA(-1); ACQ/REQ
that of the first verb; a TIMEOUT that of the last verb or of the
rollback FA.  A request reads the clock before its first verb but is
appended once that verb returns, so a REL/REQ is stamped only for a
release that succeeded.  An untraced session stamps into `trace.DISCARD`.

A shared acquirer that exhausts its retry budget must undo its
pre-increment with FA(-1), otherwise the leaked count would block
writers forever; the rollback is recorded as a REL/TIMEOUT trace event so
the checker can confirm the count returned to balance.
"""

from __future__ import annotations

import time

from . import trace
from .errors import MAX_DURATION_S, AcquisitionTimeout, ProtocolError, ReleaseError
from .locktable import HALF_SIZE, U32_MASK, WORD_SIZE, encode
from .trace import (
    MODE_EXCLUSIVE,
    MODE_SHARED,
    OP_ACQ,
    OP_REL,
    OUT_ACK,
    OUT_GRANT,
    OUT_REQ,
    OUT_TIMEOUT,
    TraceEvent,
    _new_tuple,
)
from .verbs import _OK

U64_MINUS_ONE = (1 << 64) - 1
_ZERO_HALF = bytes(HALF_SIZE)


class ClientSession:
    """One client's handle on the lock table.

    Strictly sequential: one in-flight verb, so the per-client trace is
    totally ordered.  `backoff` is the pause between retries for both the
    exclusive CAS loop and the shared READ poll.  The default 0 calls
    `time.sleep(0)`, which releases the GIL but on Linux still sleeps for
    the thread's timer slack (about 50 us), so even a zero backoff is a
    short pause, not a bare yield.
    `max_retries=None` retries forever (benchmark setting); a finite value
    bounds failed CAS attempts / READ polls before acquisition-timeout.
    """

    def __init__(
        self,
        qp,
        table,
        client_id: int,
        backoff: float = 0.0,
        max_retries: int | None = None,
        recorder: trace.TraceRecorder | None = None,
    ):
        if client_id < 1:
            raise ValueError("client_id must be >= 1")
        if max_retries is not None and max_retries < 0:
            raise ValueError("max_retries must be >= 0 or None")
        if not 0 <= backoff <= MAX_DURATION_S:  # false for nan too
            raise ValueError(f"backoff must be in [0, {MAX_DURATION_S:g}] s")
        self.qp = qp
        self._region_id = table.region_id
        self._item_count = table.item_count
        self.client_id = client_id
        self.backoff = backoff
        self.max_retries = max_retries
        self._stamp = trace.DISCARD if recorder is None else recorder.stamper(client_id)
        self._held: dict[int, str] = {}
        self._owner_word = encode(client_id, 0)

    def _pause(self) -> None:
        # sleep(0) releases the GIL, letting peer threads run between
        # zero-backoff retries; on Linux it also sleeps for the timer slack.
        time.sleep(self.backoff)

    def held_locks(self) -> dict[int, str]:
        return dict(self._held)

    # -- acquire ---------------------------------------------------------

    def acquire(self, item_id: int, shared: bool) -> None:
        """Acquire `item_id`: shared by FA(+1) and READ polls, exclusive by a CAS loop."""
        if item_id in self._held:
            raise ProtocolError(
                f"client {self.client_id} already holds item {item_id} ({self._held[item_id]})"
            )
        if not 0 <= item_id < self._item_count:
            raise ValueError(f"item {item_id} out of range [0, {self._item_count})")
        offset = item_id * WORD_SIZE
        qp, region_id, max_retries = self.qp, self._region_id, self.max_retries
        stamp, cid = self._stamp, self.client_id
        mode = MODE_SHARED if shared else MODE_EXCLUSIVE
        requested = trace._clock()
        if shared:
            completion = qp.post_fa(region_id, offset, 1)
            if completion.status != _OK:
                raise ProtocolError(f"shared FA failed: {completion.status.name}")
            stamp(_new_tuple(
                TraceEvent, (requested, cid, item_id, OP_ACQ, mode, OUT_REQ, completion.serial)))
            owner = int.from_bytes(completion.payload, "little") >> 32
            polls = 0
            while owner:
                polls += 1
                if max_retries is not None and polls > max_retries:
                    stamp(_new_tuple(TraceEvent, (
                        trace._clock(), cid, item_id, OP_ACQ, mode, OUT_TIMEOUT, completion.serial)))
                    completion = qp.post_fa(region_id, offset, U64_MINUS_ONE)  # the rollback
                    if completion.status != _OK:
                        raise ProtocolError(f"shared release FA failed: {completion.status.name}")
                    if not int.from_bytes(completion.payload, "little") & U32_MASK:
                        raise ProtocolError(f"shared count underflow on item {item_id}")
                    stamp(_new_tuple(TraceEvent, (
                        trace._clock(), cid, item_id, OP_REL, mode, OUT_TIMEOUT, completion.serial)))
                    raise AcquisitionTimeout(
                        f"shared acquire of item {item_id} gave up after {polls - 1} polls"
                    )
                self._pause()
                completion = qp.post_read(region_id, offset + HALF_SIZE, HALF_SIZE)
                if completion.status != _OK:
                    raise ProtocolError(f"shared owner poll failed: {completion.status.name}")
                owner = int.from_bytes(completion.payload, "little")
        else:
            owner_word = self._owner_word
            completion = qp.post_cas(region_id, offset, 0, owner_word)
            if completion.status != _OK:
                raise ProtocolError(f"exclusive CAS failed: {completion.status.name}")
            stamp(_new_tuple(
                TraceEvent, (requested, cid, item_id, OP_ACQ, mode, OUT_REQ, completion.serial)))
            failures = 0
            while int.from_bytes(completion.payload, "little"):
                failures += 1
                if max_retries is not None and failures > max_retries:
                    # The failed CASes never modified the word: nothing to undo.
                    stamp(_new_tuple(TraceEvent, (
                        trace._clock(), cid, item_id, OP_ACQ, mode, OUT_TIMEOUT, completion.serial)))
                    raise AcquisitionTimeout(
                        f"exclusive acquire of item {item_id} gave up after {failures} attempts"
                    )
                self._pause()
                completion = qp.post_cas(region_id, offset, 0, owner_word)
                if completion.status != _OK:
                    raise ProtocolError(f"exclusive CAS failed: {completion.status.name}")
        self._held[item_id] = mode
        stamp(_new_tuple(
            TraceEvent, (trace._clock(), cid, item_id, OP_ACQ, mode, OUT_GRANT, completion.serial)))

    # -- release ---------------------------------------------------------

    def release(self, item_id: int) -> None:
        """Release a held lock by its recorded mode: exclusive WRITEs zeros
        over the owner half, shared FAs -1 on the count.  A failed verb
        raises ReleaseError and leaves the lock held for a retry."""
        mode = self._held.get(item_id)
        if mode is None:
            raise ProtocolError(f"releasing item {item_id} that is not held")
        offset = item_id * WORD_SIZE
        stamp, cid = self._stamp, self.client_id
        requested = trace._clock()
        if mode == MODE_SHARED:
            completion = self.qp.post_fa(self._region_id, offset, U64_MINUS_ONE)
            if completion.status != _OK:
                raise ReleaseError(f"shared release FA failed: {completion.status.name}")
            if not int.from_bytes(completion.payload, "little") & U32_MASK:
                raise ProtocolError(f"shared count underflow on item {item_id}")
        else:
            completion = self.qp.post_write(self._region_id, offset + HALF_SIZE, _ZERO_HALF)
            if completion.status != _OK:
                raise ReleaseError(f"exclusive release WRITE failed: {completion.status.name}")
        del self._held[item_id]
        seq = completion.serial
        stamp(_new_tuple(TraceEvent, (requested, cid, item_id, OP_REL, mode, OUT_REQ, seq)))
        stamp(_new_tuple(TraceEvent, (trace._clock(), cid, item_id, OP_REL, mode, OUT_ACK, seq)))

    def close(self) -> None:
        self.qp.close()
