"""Checker oracle: constructed histories with known verdicts, plus the
brute-force model check of the client-driven protocol."""

import checker_reference as reference
import pytest

from lockbench import checker
from lockbench.checker import (
    CONSERVATION,
    DESIGN_CLIENT_CENTRIC,
    DESIGN_SERVER_SR,
    DESIGN_SERVER_TCP,
    DESIGNS,
    DOUBLE_EXCLUSIVE,
    FIFO_VIOLATION,
    ORPHAN_EVENT,
    SHARED_EXCLUSIVE_OVERLAP,
    ModelResult,
    NotApplicableError,
    check_all,
    check_conservation,
    check_fifo,
    check_safety,
    explore,
)
from lockbench.locktable import WORD_SIZE
from lockbench.trace import MODE_EXCLUSIVE, MODE_SHARED, TraceEvent

E, S = MODE_EXCLUSIVE, MODE_SHARED


def ev(ts, client, op, mode, outcome, item=0, seq=None):
    """An event whose `seq` is its stamp unless given: stamp order is then
    the item's linearization."""
    return TraceEvent(ts, client, item, op, mode, outcome, ts if seq is None else seq)


def lifecycle(client, mode, t0, t_grant, t_rel, item=0):
    """A full clean acquire/release: REQ, GRANT, REL-REQ, REL-ACK."""
    return [
        ev(t0, client, "ACQ", mode, "REQ", item),
        ev(t_grant, client, "ACQ", mode, "GRANT", item),
        ev(t_rel, client, "REL", mode, "REQ", item),
        ev(t_rel + 1, client, "REL", mode, "ACK", item),
    ]


def kinds(violations):
    return [v.kind for v in violations]


# -- check_safety -------------------------------------------------------------


def test_clean_serial_history_passes():
    events = lifecycle(1, E, 10, 20, 30) + lifecycle(2, E, 40, 50, 60)
    assert check_safety(events) == []


def test_shared_holders_may_overlap():
    events = lifecycle(1, S, 10, 20, 80) + lifecycle(2, S, 30, 40, 70)
    assert check_safety(events) == []


def test_two_exclusive_holders_overlap_is_flagged():
    events = lifecycle(1, E, 10, 20, 80) + lifecycle(2, E, 30, 40, 70)
    violations = check_safety(events)
    assert kinds(violations) == [DOUBLE_EXCLUSIVE]
    assert violations[0].events[0].client_id == 1
    assert violations[0].events[1].client_id == 2


def test_shared_during_exclusive_is_flagged():
    events = lifecycle(1, E, 10, 20, 80) + lifecycle(2, S, 30, 40, 70)
    assert kinds(check_safety(events)) == [SHARED_EXCLUSIVE_OVERLAP]


def test_exclusive_during_shared_is_flagged():
    events = lifecycle(1, S, 10, 20, 80) + lifecycle(2, E, 30, 40, 70)
    assert kinds(check_safety(events)) == [SHARED_EXCLUSIVE_OVERLAP]


def test_overlap_on_different_items_is_fine():
    events = lifecycle(1, E, 10, 20, 80, item=0) + lifecycle(2, E, 30, 40, 70, item=1)
    assert check_safety(events) == []


def test_release_without_grant_is_orphan():
    events = [
        ev(10, 1, "REL", E, "REQ"),
        ev(11, 1, "REL", E, "ACK"),
    ]
    assert kinds(check_safety(events)) == [ORPHAN_EVENT]


def test_double_grant_to_same_client_is_orphan():
    events = [
        ev(10, 1, "ACQ", S, "REQ"),
        ev(20, 1, "ACQ", S, "GRANT"),
        ev(30, 1, "ACQ", S, "GRANT"),
    ]
    assert ORPHAN_EVENT in kinds(check_safety(events))


def test_adjacent_intervals_do_not_overlap():
    # Client 2 is granted at the instant client 1 releases, after the
    # release (and its ack, seq 51) in the item's linearization.
    events = lifecycle(1, E, 10, 20, 50) + [
        ev(30, 2, "ACQ", E, "REQ"),
        ev(50, 2, "ACQ", E, "GRANT", seq=52),
        ev(60, 2, "REL", E, "REQ"),
        ev(61, 2, "REL", E, "ACK"),
    ]
    assert check_safety(events) == []


def _handover(release_first):
    """Client 1 holds item 0 exclusively; client 2 is granted it in the
    nanosecond client 1 releases it, at seq 5 after the release's 4 or at 4
    before the release's 5.  A REL/ACK shares its REL/REQ's seq."""
    grant_seq, release_seq = (5, 4) if release_first else (4, 5)
    tied = [ev(50, 2, "ACQ", E, "GRANT", seq=grant_seq), ev(50, 1, "REL", E, "REQ", seq=release_seq)]
    return [
        ev(10, 1, "ACQ", E, "REQ", seq=1),
        ev(20, 1, "ACQ", E, "GRANT", seq=2),
        ev(30, 2, "ACQ", E, "REQ", seq=3),
        *tied,
        ev(51, 1, "REL", E, "ACK", seq=release_seq),
        ev(60, 2, "REL", E, "REQ", seq=6),
        ev(61, 2, "REL", E, "ACK", seq=6),
    ]


@pytest.mark.parametrize("swap", [False, True])
def test_grant_in_the_nanosecond_of_a_release_is_adjacent_in_either_input_order(swap):
    # The release's seq comes first, so the stamps' tie does not matter.
    events = _handover(release_first=True)
    if swap:
        events[3], events[4] = events[4], events[3]
    assert check_safety(events) == []
    for design in DESIGNS:
        assert check_all(events, design) == []


def test_a_grant_sequenced_before_the_release_overlaps_at_equal_stamps():
    events = _handover(release_first=False)
    assert kinds(check_safety(events)) == [DOUBLE_EXCLUSIVE]
    assert kinds(check_all(events, DESIGN_SERVER_SR)) == [DOUBLE_EXCLUSIVE, FIFO_VIOLATION]


def test_grant_a_nanosecond_before_a_release_overlaps():
    events = lifecycle(1, E, 10, 20, 50) + lifecycle(2, E, 30, 49, 60)
    assert kinds(check_safety(events)) == [DOUBLE_EXCLUSIVE]


def test_duplicated_grant_in_a_tied_run_takes_the_release_it_pairs_with():
    # Client 2 holds from seq 2.  In one nanosecond client 1 is granted
    # (seq 4), client 2's grant is duplicated (seq 5), and client 2's one
    # REL/REQ (seq 6) ends client 2's hold, so client 1 alone holds after it.
    events = [
        ev(10, 2, "ACQ", E, "REQ", seq=1),
        ev(20, 2, "ACQ", E, "GRANT", seq=2),
        ev(30, 1, "ACQ", E, "REQ", seq=3),
        ev(50, 1, "ACQ", E, "GRANT", seq=4),
        ev(50, 2, "ACQ", E, "GRANT", seq=5),
        ev(50, 2, "REL", E, "REQ", seq=6),
        ev(51, 2, "REL", E, "ACK", seq=6),
        ev(60, 1, "REL", E, "REQ", seq=7),
        ev(61, 1, "REL", E, "ACK", seq=7),
    ]
    assert check_safety(events) == reference.check_safety(events)
    assert kinds(check_safety(events)) == [DOUBLE_EXCLUSIVE, ORPHAN_EVENT, DOUBLE_EXCLUSIVE]
    for design in DESIGNS:
        assert check_all(events, design) == reference.check_all(events, design)


def test_verdicts_follow_seq_not_stamps():
    # Stamps that overlap with seqs that do not, and the other way round.
    apart = lifecycle(1, E, 10, 20, 80) + [
        ev(30, 2, "ACQ", E, "REQ", seq=81),
        ev(40, 2, "ACQ", E, "GRANT", seq=82),
        ev(70, 2, "REL", E, "REQ", seq=83),
        ev(71, 2, "REL", E, "ACK", seq=84),
    ]
    assert check_all(apart, DESIGN_SERVER_TCP) == []
    overlapping = lifecycle(1, E, 10, 20, 30) + [
        ev(40, 2, "ACQ", E, "REQ", seq=11),
        ev(50, 2, "ACQ", E, "GRANT", seq=21),
        ev(60, 2, "REL", E, "REQ"),
        ev(61, 2, "REL", E, "ACK"),
    ]
    assert kinds(check_safety(overlapping)) == [DOUBLE_EXCLUSIVE]


def test_equal_seqs_keep_input_order():
    # One client's events may share a seq (the FA that both registers and
    # grants a reader); the replay keeps them in the order given.
    granted_then_released = [
        ev(10, 1, "ACQ", S, "REQ", seq=1),
        ev(11, 1, "ACQ", S, "GRANT", seq=1),
        ev(12, 1, "REL", S, "REQ", seq=1),
        ev(13, 1, "REL", S, "ACK", seq=1),
    ]
    assert check_all(granted_then_released, DESIGN_CLIENT_CENTRIC) == []
    released_first = [granted_then_released[i] for i in (0, 2, 1, 3)]
    assert kinds(check_safety(released_first)) == [ORPHAN_EVENT]


# -- check_fifo ---------------------------------------------------------------


def test_fifo_accepts_in_order_grants():
    events = [
        ev(10, 1, "ACQ", E, "REQ"),
        ev(11, 2, "ACQ", E, "REQ"),
        ev(12, 1, "ACQ", E, "GRANT"),
        ev(13, 1, "REL", E, "REQ"),
        ev(14, 1, "REL", E, "ACK"),
        ev(15, 2, "ACQ", E, "GRANT"),
        ev(16, 2, "REL", E, "REQ"),
        ev(17, 2, "REL", E, "ACK"),
    ]
    assert check_fifo(events, DESIGN_SERVER_TCP) == []


def test_fifo_flags_queue_jump():
    events = [
        ev(10, 1, "ACQ", E, "REQ"),
        ev(11, 2, "ACQ", E, "REQ"),
        ev(12, 2, "ACQ", E, "GRANT"),  # client 2 jumps client 1
    ]
    violations = check_fifo(events, DESIGN_SERVER_SR)
    assert kinds(violations) == [FIFO_VIOLATION]


def test_fifo_allows_consecutive_shared_batch():
    events = [
        ev(10, 1, "ACQ", S, "REQ"),
        ev(11, 2, "ACQ", S, "REQ"),
        ev(12, 3, "ACQ", E, "REQ"),
        # Both shared heads may be granted together, in either order.
        ev(13, 2, "ACQ", S, "GRANT"),
        ev(14, 1, "ACQ", S, "GRANT"),
    ]
    assert check_fifo(events, DESIGN_SERVER_TCP) == []


def test_fifo_rejects_shared_jumping_exclusive_head():
    events = [
        ev(10, 1, "ACQ", E, "REQ"),
        ev(11, 2, "ACQ", S, "REQ"),
        ev(12, 2, "ACQ", S, "GRANT"),  # shared behind an exclusive head
    ]
    assert kinds(check_fifo(events, DESIGN_SERVER_TCP)) == [FIFO_VIOLATION]


def test_fifo_rejects_exclusive_head_granted_over_active_shared():
    events = [
        ev(10, 1, "ACQ", S, "REQ"),
        ev(11, 1, "ACQ", S, "GRANT"),
        ev(12, 2, "ACQ", E, "REQ"),
        ev(13, 2, "ACQ", E, "GRANT"),  # holder 1 never released
    ]
    assert kinds(check_fifo(events, DESIGN_SERVER_TCP)) == [FIFO_VIOLATION]


def test_fifo_rejects_exclusive_head_granted_over_active_exclusive():
    events = [
        ev(10, 1, "ACQ", E, "REQ"),
        ev(11, 1, "ACQ", E, "GRANT"),
        ev(12, 2, "ACQ", E, "REQ"),
        ev(13, 2, "ACQ", E, "GRANT"),  # holder 1 never released
    ]
    assert kinds(check_fifo(events, DESIGN_SERVER_TCP)) == [FIFO_VIOLATION]


def test_fifo_not_applicable_to_client_centric():
    with pytest.raises(NotApplicableError):
        check_fifo([], DESIGN_CLIENT_CENTRIC)


def test_fifo_rejects_unknown_design():
    with pytest.raises(ValueError):
        check_fifo([], "peer-to-peer")


# -- check_conservation ---------------------------------------------------------


def test_conservation_clean_history():
    assert check_conservation(lifecycle(1, S, 10, 20, 30)) == []


def test_conservation_flags_unanswered_request():
    events = [ev(10, 1, "ACQ", S, "REQ")]
    assert kinds(check_conservation(events)) == [CONSERVATION]


def test_conservation_flags_grant_never_released():
    events = [
        ev(10, 1, "ACQ", S, "REQ"),
        ev(20, 1, "ACQ", S, "GRANT"),
    ]
    assert kinds(check_conservation(events)) == [CONSERVATION]


def test_conservation_flags_release_without_ack():
    events = lifecycle(1, E, 10, 20, 30)[:-1]
    assert kinds(check_conservation(events)) == [CONSERVATION]


def test_conservation_requires_rollback_for_shared_timeout():
    timed_out = [
        ev(10, 1, "ACQ", S, "REQ"),
        ev(20, 1, "ACQ", S, "TIMEOUT"),
    ]
    assert kinds(check_conservation(timed_out)) == [CONSERVATION]
    rolled_back = timed_out + [ev(21, 1, "REL", S, "TIMEOUT")]
    assert check_conservation(rolled_back) == []


def test_conservation_exclusive_timeout_needs_no_rollback():
    events = [
        ev(10, 1, "ACQ", E, "REQ"),
        ev(20, 1, "ACQ", E, "TIMEOUT"),
    ]
    assert check_conservation(events) == []


def test_conservation_is_order_insensitive():
    events = list(reversed(lifecycle(1, S, 10, 20, 30)))
    assert check_conservation(events) == []


# -- check_all ----------------------------------------------------------------


def test_check_all_runs_fifo_only_for_server_designs():
    jumped = [
        ev(10, 1, "ACQ", E, "REQ"),
        ev(11, 2, "ACQ", E, "REQ"),
        ev(12, 2, "ACQ", E, "GRANT"),
        ev(13, 2, "REL", E, "REQ"),
        ev(14, 2, "REL", E, "ACK"),
        ev(15, 1, "ACQ", E, "GRANT"),
        ev(16, 1, "REL", E, "REQ"),
        ev(17, 1, "REL", E, "ACK"),
    ]
    assert FIFO_VIOLATION in kinds(check_all(jumped, DESIGN_SERVER_TCP))
    assert check_all(jumped, DESIGN_CLIENT_CENTRIC) == []


@pytest.mark.parametrize("design", ["server_sr", "peer-to-peer", ""])
def test_check_all_rejects_unknown_design(design):
    # A misspelt design must not silently turn the FIFO rule off.
    with pytest.raises(ValueError, match="unknown design"):
        check_all(lifecycle(1, E, 10, 20, 30), design)


def test_violation_str_is_kind_and_detail():
    events = lifecycle(1, E, 10, 20, 80) + lifecycle(2, E, 30, 40, 70)
    text = str(check_safety(events)[0])
    assert text.startswith(DOUBLE_EXCLUSIVE)
    assert "item 0" in text


# -- model check of the client-driven protocol ---------------------------------


@pytest.mark.parametrize(
    "modes",
    [(E, E), (E, S), (S, E), (S, S)],
    ids=lambda m: "".join(x[0] for x in m),
)
def test_two_client_protocol_is_safe_and_quiesces(modes):
    result = explore(modes)
    assert result.ok
    assert result.unsafe == []
    assert result.bad_terminal == []
    assert result.states_explored > 1


def test_three_client_mixed_protocol_is_safe():
    result = explore((E, S, E))
    assert result.ok


class _FullWordReleaseSpy(checker._ModelSession):
    """A mutant session whose exclusive release WRITEs 8 zero bytes over the
    whole word instead of 4 over the owner half, erasing any shared count
    pre-registered meanwhile."""

    def __init__(self, qp, *args, **kwargs):
        super().__init__(qp, *args, **kwargs)
        post_write = qp.post_write

        def spy(region_id, offset, payload):
            word_offset = offset - offset % WORD_SIZE
            return post_write(region_id, word_offset, bytes(WORD_SIZE))

        qp.post_write = spy


@pytest.fixture
def full_word_release(monkeypatch):
    monkeypatch.setattr(checker, "_ModelSession", _FullWordReleaseSpy)


def test_full_word_release_erases_waiting_readers(full_word_release):
    # Negative control: zeroing the whole word on exclusive release wipes a
    # concurrently pre-registered reader count, so some path either loses a
    # holder (bad terminal) or admits a conflicting one (unsafe).
    result = explore((E, S))
    assert not result.ok
    assert result.bad_terminal  # a reader's count vanished mid-poll


def test_full_word_release_admits_conflicting_writer(full_word_release):
    result = explore((E, S, E))
    assert not result.ok
    assert result.unsafe  # writer CAS succeeds while a reader still holds


def test_explore_rejects_unknown_mode():
    with pytest.raises(ValueError):
        explore(("MUTEX",))


def test_model_result_ok_flag():
    assert ModelResult(states_explored=1).ok
    assert not ModelResult(states_explored=1, unsafe=[(0, ())]).ok
