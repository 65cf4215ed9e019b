"""Exception types and limits shared across the lock managers and the bench harness."""

# The longest per-message cost or backoff, in seconds, a configuration may
# name: larger values overflow `time.sleep` or the cost model's nanoseconds.
MAX_DURATION_S = 3600.0


class ProtocolError(Exception):
    """Lock-protocol misuse: duplicate acquire, release without hold, a
    malformed or unexpected reply, or a verb failure that indicates a bug
    rather than contention."""


class AcquisitionTimeout(Exception):
    """An acquire gave up after exhausting its retry budget."""


class ReleaseError(Exception):
    """A release verb failed; the lock is still held and the release may
    be retried."""


class ConfigurationError(ValueError):
    """A workload or server configuration is invalid."""


class RunCheckError(Exception):
    """A benchmark run produced a trace that failed the checker."""

    def __init__(self, violations):
        self.violations = list(violations)
        summary = "; ".join(str(v) for v in self.violations[:3])
        more = "" if len(self.violations) <= 3 else f" (+{len(self.violations) - 3} more)"
        super().__init__(f"{len(self.violations)} checker violation(s): {summary}{more}")
