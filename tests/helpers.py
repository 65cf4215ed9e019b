"""Helpers the test modules import.  They live outside `conftest.py`
because tier-1 also collects `lockperf/tests`, whose `conftest` module
would shadow this directory's under the same import name."""

import threading


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
