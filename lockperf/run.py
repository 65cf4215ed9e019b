"""lockbench's benchmark.

    python3 lockperf/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs every design once through `lockbench.run_workload`, each in
a fresh interpreter (`lockperf.child`), until S seconds have passed; every
round repeats the same seeded inputs.

--trace 0 prints the end-to-end metrics: lock-cycle p50 per design, set-up
and verify time, and, as report-only lines, locks/s and lock-cycle p99 per
design.  --trace 1 prints the per-layer metrics instead:
isolated µs/op timings of each layer's public surface, and a traced run
per design (spans recorded by wrappers from this directory) beside an
untraced one.

Every line but the last is a human-readable report; the last line is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, ROOT]

from lockperf import OUT_DIR  # noqa: E402  (needs ROOT on sys.path)
from lockperf.spans import SPAN_DIR_ENV  # noqa: E402

CHILD_TIMEOUT_S = 60
# Every run must end within 180 s; start no child after this.
HARD_LIMIT_S = 170

# multiprocessing puts the forkserver's socket in a temporary directory;
# keep it inside the checkout unless the path would not fit a Unix socket
# address (108 bytes, 32 of them taken by the names multiprocessing adds).
TMP_DIR = os.path.join(OUT_DIR, "tmp")
TMP_DIR_MAX_LEN = 70

PR_SET_CHILD_SUBREAPER = 36


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop(SPAN_DIR_ENV, None)
    paths = [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    if len(TMP_DIR) <= TMP_DIR_MAX_LEN:
        env["TMPDIR"] = TMP_DIR
    return env


def _become_subreaper() -> bool:
    """Make this process the parent of its orphaned descendants, so the
    forkserver and client processes a child leaves behind can be waited
    for here (Linux only)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _stop_group(pgid: int, subreaper: bool) -> None:
    """Wait until every process of a child's group (its forkserver and
    client processes included) has ended, killing what is left after 5 s.
    Without the subreaper the group is probed instead, which also waits
    for its orphans to be reaped by init."""
    deadline = time.monotonic() + 5
    while True:
        try:
            if subreaper:
                if os.waitpid(-pgid, os.WNOHANG)[0]:
                    continue
            else:
                os.killpg(pgid, 0)
        except (ChildProcessError, ProcessLookupError):
            return
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
        time.sleep(0.005)


def run_child(args: list[str], timeout: float, subreaper: bool) -> tuple[dict | None, str]:
    """Run `python3 -m lockperf.child ARGS` in its own process group;
    returns (its JSON result or None, error text)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "lockperf.child", *args],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        _stop_group(proc.pid, subreaper)
        return None, f"timed out after {timeout:.0f} s"
    _stop_group(proc.pid, subreaper)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit code {proc.returncode}: {err.strip()[-400:]}"
    return json.loads(lines[-1]), ""


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over CPUs
    since boot (the steal column of /proc/stat); None where unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def host_metadata(workload, seed: int) -> dict:
    from lockbench.server_lm import DEFAULT_SR_MESSAGE_COST, DEFAULT_TCP_MESSAGE_COST

    from lockperf.workloads import SHARED_FRACTION, WORKER_LIMIT

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        # Bounds how long a thread can wait for the GIL in process.
        "switch_interval_s": sys.getswitchinterval(),
        "tcp_over_loopback": workload.transport == "tcp",
        "seed": seed,
        "workload": {
            "name": workload.name,
            "transport": workload.transport,
            "clients": workload.n_clients,
            "items": workload.n_items,
            "ops_per_client": workload.ops_per_client,
        },
        "per_message_cost_us": {
            "tcp": DEFAULT_TCP_MESSAGE_COST * 1e6,
            "send-recv": DEFAULT_SR_MESSAGE_COST * 1e6,
        },
        "worker_limit": WORKER_LIMIT,
        "shared_fraction": SHARED_FRACTION,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lockbench", "__init__.py")):
        print(f"lockbench's sources are not under {SRC}", file=sys.stderr)
        return 2
    from lockperf import derive, report
    from lockperf.workloads import DESIGNS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    subreaper = _become_subreaper()
    os.makedirs(TMP_DIR, exist_ok=True)
    steal_at_start = steal_seconds()
    started = time.monotonic()
    deadline = started + args.seconds
    hard_limit = started + HARD_LIMIT_S
    errors: list[str] = []
    micro: dict = {}
    untraced: list[dict] = []
    traced: list[dict] = []

    def child(child_args):
        remaining = min(CHILD_TIMEOUT_S, hard_limit - time.monotonic())
        if remaining <= 1:
            return None, "no time left before the run's limit"
        return run_child(child_args, remaining, subreaper)

    if args.trace:
        micro, error = child(["micro"])
        if error:
            micro = {}
            errors.append(f"micro: {error}")
    rounds = 0
    while rounds == 0 or (not errors and time.monotonic() < deadline):
        for design in DESIGNS:
            spec = workload.spec(design, args.seed)
            for sink, flag in [(untraced, "0")] + ([(traced, "1")] if args.trace else []):
                steal = steal_seconds()
                result, error = child(["design", workload.name, design, str(args.seed), flag])
                if result is None:
                    attempted = spec.n_clients * spec.ops_per_client
                    result = {"design": design, "attempted": attempted, "completed": 0, "error": error}
                result["round"] = rounds
                if steal is not None:
                    result["cpu_steal_s"] = steal_seconds() - steal
                sink.append(result)
                if result["error"]:
                    errors.append(f"{design} (traced={flag}): {result['error']}")
        rounds += 1

    raw = os.path.join(OUT_DIR, f"outcomes-{workload.name}-trace{args.trace}.json")
    with open(raw, "w", encoding="ascii") as fh:
        json.dump({"untraced": untraced, "traced": traced, "micro": micro}, fh)
    if args.trace:
        metrics, notes = report.per_layer(workload, untraced, traced, micro)
    else:
        metrics, notes = report.end_to_end(untraced)
    failed, attempted = derive.failed_op_share(untraced + traced)
    meta = host_metadata(workload, args.seed)
    meta["rounds"] = rounds
    steal_at_end = steal_seconds()
    if steal_at_start is not None and steal_at_end is not None:
        meta["cpu_steal_s"] = round(steal_at_end - steal_at_start, 2)
        meta["wall_s"] = round(time.monotonic() - started, 2)
    meta["samples"] = notes["samples"]
    for line in notes["lines"]:
        print(line)
    print(f"failed_op_share {failed / attempted:.6g} ({failed} of {attempted} lock operations)")
    for error in errors:
        print(f"error: {error}")
    print("meta " + json.dumps(meta, sort_keys=True))
    correct = not errors and failed == 0 and set(metrics) == set(report.metric_names(args.trace))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": report.unit(name)} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
