"""Helpers the test modules import.  They live outside `conftest.py`
because tier-1 also collects `lockperf/tests`, whose `conftest` module
would shadow this directory's under the same import name."""

import threading

from lockbench.locktable import WORD_SIZE, TableHandle


def lock_table(host, item_count):
    """Register a zeroed lock table of `item_count` words on `host` (an
    InprocFabric or a TcpAgent): (its region, its handle)."""
    region = host.register_region(item_count * WORD_SIZE)
    return region, TableHandle(region.region_id, item_count)


def words(region):
    """Every lock word of the table `region` holds."""
    return [region.snapshot_word(i) for i in range(region.length // WORD_SIZE)]


def start_call(fn, *args):
    """Run `fn(*args)` on a daemon thread.  No pytest-timeout is installed,
    so each test bounds its own wait: `raised(seconds)` joins the thread
    for at most that long, checks that it ended, and returns what `fn`
    raised (None if it returned)."""
    outcome = []

    def run():
        try:
            fn(*args)
        except Exception as exc:
            outcome.append(exc)
        else:
            outcome.append(None)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()

    def raised(seconds):
        thread.join(seconds)
        assert not thread.is_alive(), f"still running after {seconds} s"
        return outcome[0]

    return raised
