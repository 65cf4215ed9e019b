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
the release may be retried; a retry stamps no second REL/REQ.

A shared acquirer that exhausts its retry budget must undo its
pre-increment with FA(-1), otherwise the leaked count would block
writers forever; the rollback is recorded as a REL/TIMEOUT trace event so
the checker can confirm the count returned to balance.
"""

from __future__ import annotations

import time

from .errors import AcquisitionTimeout, ProtocolError, ReleaseError
from .locktable import HALF_SIZE, decode, encode, exclusive_half_offset
from .trace import (
    MODE_EXCLUSIVE,
    MODE_SHARED,
    OP_ACQ,
    OP_REL,
    OUT_ACK,
    OUT_GRANT,
    OUT_REQ,
    OUT_TIMEOUT,
    TraceRecorder,
)

U64_MINUS_ONE = (1 << 64) - 1
_ZERO_HALF = bytes(HALF_SIZE)


class ClientSession:
    """One client's handle on the lock table.

    Strictly sequential: one in-flight verb, so the per-client trace is
    totally ordered.  `backoff` is the pause between retries for both the
    exclusive CAS loop and the shared READ poll; the default 0 still
    yields the scheduler between attempts so peers can make progress.
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
        recorder: TraceRecorder | None = None,
    ):
        if client_id < 1:
            raise ValueError("client_id must be >= 1")
        if max_retries is not None and max_retries < 0:
            raise ValueError("max_retries must be >= 0 or None")
        self.qp = qp
        self.table = table
        self.client_id = client_id
        self.backoff = backoff
        self.max_retries = max_retries
        self._recorder = recorder
        self._held: dict[int, str] = {}
        self._releasing: set[int] = set()  # REL/REQ stamped, not yet released
        self._owner_word = encode(client_id, 0)

    # -- plumbing --------------------------------------------------------

    def _record(self, item_id: int, op: str, mode: str, outcome: str) -> None:
        if self._recorder is not None:
            self._recorder.record(self.client_id, self.client_id, item_id, op, mode, outcome)

    def _pause(self) -> None:
        # sleep(0) still releases the GIL, letting peer threads run between
        # zero-backoff retries instead of spinning out a full GIL slice.
        time.sleep(self.backoff if self.backoff > 0 else 0)

    def _verb_ok(self, completion, action: str):
        if not completion.ok:
            raise ProtocolError(f"{action} failed: {completion.status.name}")
        return completion

    def _check_not_held(self, item_id: int) -> None:
        if item_id in self._held:
            raise ProtocolError(
                f"client {self.client_id} already holds item {item_id} ({self._held[item_id]})"
            )

    def held_locks(self) -> dict[int, str]:
        return dict(self._held)

    # -- acquire ---------------------------------------------------------

    def acquire_exclusive(self, item_id: int) -> None:
        self._check_not_held(item_id)
        offset = self.table.word_offset(item_id)
        self._record(item_id, OP_ACQ, MODE_EXCLUSIVE, OUT_REQ)
        failures = 0
        while True:
            completion = self._verb_ok(
                self.qp.post_cas(self.table.region_id, offset, 0, self._owner_word), "exclusive CAS"
            )
            if completion.value == 0:
                self._held[item_id] = MODE_EXCLUSIVE
                self._record(item_id, OP_ACQ, MODE_EXCLUSIVE, OUT_GRANT)
                return
            failures += 1
            if self.max_retries is not None and failures > self.max_retries:
                # The failed CASes never modified the word: nothing to undo.
                self._record(item_id, OP_ACQ, MODE_EXCLUSIVE, OUT_TIMEOUT)
                raise AcquisitionTimeout(
                    f"exclusive acquire of item {item_id} gave up after {failures} attempts"
                )
            self._pause()

    def acquire_shared(self, item_id: int) -> None:
        self._check_not_held(item_id)
        offset = self.table.word_offset(item_id)
        self._record(item_id, OP_ACQ, MODE_SHARED, OUT_REQ)
        completion = self._verb_ok(
            self.qp.post_fa(self.table.region_id, offset, 1), "shared FA"
        )
        owner, _ = decode(completion.value)
        polls = 0
        while owner:
            polls += 1
            if self.max_retries is not None and polls > self.max_retries:
                self._record(item_id, OP_ACQ, MODE_SHARED, OUT_TIMEOUT)
                self._release_shared(item_id, offset, ProtocolError)  # the rollback
                self._record(item_id, OP_REL, MODE_SHARED, OUT_TIMEOUT)
                raise AcquisitionTimeout(
                    f"shared acquire of item {item_id} gave up after {polls - 1} polls"
                )
            self._pause()
            owner = self._verb_ok(
                self.qp.post_read(self.table.region_id, exclusive_half_offset(offset), HALF_SIZE),
                "shared owner poll",
            ).value
        self._held[item_id] = MODE_SHARED
        self._record(item_id, OP_ACQ, MODE_SHARED, OUT_GRANT)

    # -- release ---------------------------------------------------------
    # The two protocols are private: `release(item)` picks one from the
    # recorded mode.  A failed verb leaves the lock held.

    def _release_exclusive(self, offset: int) -> None:
        completion = self.qp.post_write(self.table.region_id, exclusive_half_offset(offset), _ZERO_HALF)
        if not completion.ok:
            raise ReleaseError(f"exclusive release WRITE failed: {completion.status.name}")

    def _release_shared(self, item_id: int, offset: int, error=ReleaseError) -> None:
        """FA(-1) on the reader count; raises `error` if the FA fails."""
        completion = self.qp.post_fa(self.table.region_id, offset, U64_MINUS_ONE)
        if not completion.ok:
            raise error(f"shared release FA failed: {completion.status.name}")
        if decode(completion.value)[1] < 1:
            raise ProtocolError(f"shared count underflow on item {item_id}")

    # -- uniform driver surface (same shape as the server-centric client) --

    def acquire(self, item_id: int, shared: bool) -> None:
        return self.acquire_shared(item_id) if shared else self.acquire_exclusive(item_id)

    def release(self, item_id: int) -> None:
        mode = self._held.get(item_id)
        if mode is None:
            raise ProtocolError(f"releasing item {item_id} that is not held")
        offset = self.table.word_offset(item_id)
        if item_id not in self._releasing:  # a retry continues the stamped release
            self._record(item_id, OP_REL, mode, OUT_REQ)
            self._releasing.add(item_id)
        if mode == MODE_SHARED:
            self._release_shared(item_id, offset)
        else:
            self._release_exclusive(offset)
        self._releasing.discard(item_id)
        del self._held[item_id]
        self._record(item_id, OP_REL, mode, OUT_ACK)

    def close(self) -> None:
        self.qp.close()
