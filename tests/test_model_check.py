"""The model checker drives the real ClientSession: every interleaving,
timeout rollback included, and a mutant session is caught."""

import itertools
import time

import pytest

from lockbench import checker
from lockbench.checker import explore
from lockbench.client_lm import U64_MINUS_ONE
from lockbench.trace import MODE_EXCLUSIVE, MODE_SHARED
from lockbench.verbs import Completion, CompletionStatus, VerbKind

E, S = MODE_EXCLUSIVE, MODE_SHARED


def test_three_clients_all_mode_combinations_explore_clean():
    t0 = time.monotonic()
    results = {modes: explore(modes) for modes in itertools.product((E, S), repeat=3)}
    elapsed = time.monotonic() - t0
    for modes, result in results.items():
        assert result.unsafe == [], modes
        assert result.bad_terminal == [], modes
    assert sum(r.states_explored for r in results.values()) == 2506
    assert elapsed < 10


class _RollbackSpy(checker._ModelSession):
    """Counts the FA(-1) a shared acquire posts to undo its increment when
    it times out; with `drop`, answers it itself so it never reaches the
    word, a mutant that leaks the reader's count."""

    rollbacks = 0
    drop = False

    def __init__(self, qp, *args, **kwargs):
        super().__init__(qp, *args, **kwargs)
        post_fa = qp.post_fa

        def spy(region_id, offset, addend):
            if addend == U64_MINUS_ONE and not self._held:  # no lock held: the rollback
                type(self).rollbacks += 1
                if self.drop:
                    return Completion(VerbKind.FA, CompletionStatus.OK, (1).to_bytes(8, "little"))
            return post_fa(region_id, offset, addend)

        qp.post_fa = spy


@pytest.fixture
def spy(monkeypatch):
    class Spy(_RollbackSpy):
        pass

    monkeypatch.setattr(checker, "_ModelSession", Spy)
    return Spy


def test_explorer_reaches_the_shared_timeout_rollback(spy):
    result = explore((E, S))
    assert spy.rollbacks > 0
    assert result.ok  # the rollback returns the count to balance


def test_a_session_that_skips_its_rollback_is_a_bad_terminal(spy):
    spy.drop = True
    result = explore((E, S))
    assert spy.rollbacks > 0
    assert result.unsafe == []
    assert result.bad_terminal  # the timed-out reader's count is never undone
