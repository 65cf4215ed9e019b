"""Numbers the benchmark derives from a run's trace, its spans and its
outcome records.  Pure functions, so they can be tested on hand-built
inputs."""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

from lockbench.checker import DESIGN_CLIENT_CENTRIC, sort_events
from lockbench.trace import MODE_EXCLUSIVE, OP_ACQ, OP_REL, OUT_ACK, OUT_REQ


def percentile(values, q: float):
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def lock_cycles_ns(events) -> list[int]:
    """Time between one client's consecutive REL/ACK events.

    Both client classes stamp REL/ACK themselves, so a cycle is one
    acquire plus release as that client saw it, comparable across designs.
    """
    last: dict[int, int] = {}
    cycles = []
    for event in sorted(events):
        if event.op == OP_REL and event.outcome == OUT_ACK:
            previous = last.get(event.client_id)
            if previous is not None:
                cycles.append(event.timestamp_ns - previous)
            last[event.client_id] = event.timestamp_ns
    return cycles


def server_queue_depths(events) -> tuple[list[int], int]:
    """Queue depth at each server-stamped ACQ/REQ, and how many of those
    requests were deferred.

    A request is ahead of a later one on the same item from its server
    REQ until its client stamps REL/REQ.  The server releases only after
    that stamp, so the depth is a lower bound.  Under the server's strict
    FIFO admission a request is deferred -- its grant comes from a later
    release -- when an EXCLUSIVE request is ahead of it, or when it is
    EXCLUSIVE and anything is ahead of it.
    """
    ahead: dict[int, dict[int, str]] = defaultdict(dict)  # item -> client -> mode
    depths = []
    deferred = 0
    for event in sort_events(events):
        item_ahead = ahead[event.item_id]
        if event.op == OP_ACQ and event.outcome == OUT_REQ:
            depths.append(len(item_ahead))
            if item_ahead and (
                event.mode == MODE_EXCLUSIVE or MODE_EXCLUSIVE in item_ahead.values()
            ):
                deferred += 1
            item_ahead[event.client_id] = event.mode
        elif event.op == OP_REL and event.outcome == OUT_REQ:
            item_ahead.pop(event.client_id, None)
    return depths, deferred


def measure_design(spec, run, clock=time.monotonic_ns) -> dict:
    """Call `run(spec)` (normally `lockbench.run_workload`) once and reduce
    its result and trace to one outcome record.

    A run that raises counts every one of its operations as failed.
    setup_ns runs from the call to the first trace event; verify_ns from
    the last trace event to the return.
    """
    attempted = spec.n_clients * spec.ops_per_client
    outcome = {"design": spec.design, "attempted": attempted, "completed": 0, "error": None}
    called = clock()
    try:
        result, events = run(spec)
    except Exception as exc:  # any failure of the run is reported, not raised
        outcome["error"] = f"{type(exc).__name__}: {exc}"
        return outcome
    returned = clock()
    cycles = lock_cycles_ns(events)
    outcome.update(
        completed=result.total_locks_granted,
        throughput=result.throughput,
        elapsed_s=result.elapsed,
        setup_ns=events[0].timestamp_ns - called,
        verify_ns=returned - events[-1].timestamp_ns,
        cycles_ns=cycles,
        events=len(events),
        called_ns=called,
    )
    expected_cycles = spec.n_clients * (spec.ops_per_client - 1)
    if result.total_locks_granted != attempted:
        outcome["error"] = f"{result.total_locks_granted} of {attempted} locks granted"
    elif len(cycles) != expected_cycles:
        outcome["error"] = f"{len(cycles)} lock cycles in the trace, expected {expected_cycles}"
    if spec.design != DESIGN_CLIENT_CENTRIC:
        outcome["depths"], outcome["deferred"] = server_queue_depths(events)
    return outcome


def failed_op_share(outcomes) -> tuple[int, int]:
    """(failed, attempted) lock operations over a set of outcome records."""
    attempted = sum(o["attempted"] for o in outcomes)
    failed = sum(o["attempted"] - o["completed"] for o in outcomes)
    return failed, attempted


def end_to_end(outcomes, designs) -> tuple[dict, dict]:
    """End-to-end metric values and sample counts from successful design
    runs.  Throughput is the median over runs, lock-cycle percentiles pool
    every cycle of every run, and set-up and verify time sum over designs
    per round and report the median round."""
    values: dict[str, float] = {}
    samples: dict[str, int] = {}
    by_design = defaultdict(list)
    for o in outcomes:
        if o["error"] is None:
            by_design[o["design"]].append(o)
    for design in designs:
        runs = by_design[design]
        if not runs:
            continue
        values[f"throughput_lps.{design}"] = statistics.median(o["throughput"] for o in runs)
        samples[f"throughput_lps.{design}"] = len(runs)
        cycles = [c for o in runs for c in o["cycles_ns"]]
        for q in (50, 99):
            name = f"lock_cycle_p{q}_us.{design}"
            values[name] = percentile(cycles, q) / 1e3
            samples[name] = len(cycles)
    rounds = [o["round"] for o in outcomes]
    complete = [
        r for r in sorted(set(rounds))
        if sorted(o["design"] for o in outcomes if o["round"] == r and o["error"] is None)
        == sorted(designs)
    ]
    for key in ("setup", "verify"):
        totals = [
            sum(o[f"{key}_ns"] for o in outcomes if o["round"] == r) / 1e9 for r in complete
        ]
        if totals:
            values[f"{key}_s"] = statistics.median(totals)
            samples[f"{key}_s"] = len(totals)
    return values, samples


# ---------------------------------------------------------------------------
# Spans: (span_id, parent_id, name, start_ns, end_ns, lock_id, tag, actor).
# Parent links stay within one actor (a thread of one process).

CLIENT_ROOTS = frozenset(
    {"client_lm.acquire", "client_lm.release", "server_lm.client.acquire", "server_lm.client.release"}
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def span_summary(spans) -> dict:
    """Per-design sums over one traced run's spans.

    Self time is a span's duration minus the time its child spans cover.
    `client_self_ns` sums self time per layer over the spans under a
    client's acquire or release, so it decomposes the client's blocking
    path.
    """
    child_ns: dict[tuple, int] = defaultdict(int)
    names: dict[tuple, str] = {}
    parents: dict[tuple, int] = {}
    for sid, parent, name, start, end, _lock, _tag, actor in spans:
        names[(actor, sid)] = name
        parents[(actor, sid)] = parent
        if parent:
            child_ns[(actor, parent)] += end - start

    def root_name(actor, sid):
        while parents.get((actor, sid)):
            sid = parents[(actor, sid)]
        return names.get((actor, sid))

    out = {
        "acquire_ns": {"shared": [], "exclusive": []},
        "release_ns": [],
        "client_self_ns": defaultdict(int),
        "root_self_ns": 0,
        "root_verbs": 0,
        "cas": 0,
        "cas_failed": 0,
        "shared_acquires": 0,
        "polls": 0,
        "record_ns": 0,
        "charge_ns": 0,
        "core_acquire": [0, 0],
        "core_release": [0, 0],
        "check_ns": 0,
        "check_events": 0,
        "op_stream_ns": [],
        "first_op_stream_ns": None,
    }
    for sid, parent, name, start, end, _lock, tag, actor in spans:
        duration = end - start
        self_ns = duration - child_ns.get((actor, sid), 0)
        parent_name = names.get((actor, parent)) if parent else None
        if root_name(actor, sid) in CLIENT_ROOTS:
            out["client_self_ns"][_layer(name)] += self_ns
            if name == "trace.record":
                out["record_ns"] += duration
        if name in CLIENT_ROOTS:
            out["root_self_ns"] += self_ns
            if name.endswith(".acquire"):
                out["acquire_ns"][tag].append(duration)
                if tag == "shared":
                    out["shared_acquires"] += 1
            else:
                out["release_ns"].append(duration)
        if parent_name in CLIENT_ROOTS and ".qp." in name:
            out["root_verbs"] += 1
            if name.endswith(".cas"):
                out["cas"] += 1
                out["cas_failed"] += tag == "failed"
            elif name.endswith(".read") and parent_name == "client_lm.acquire":
                out["polls"] += 1
        if name == "server_lm.charge":
            out["charge_ns"] += duration
        elif name in ("server_lm.core.acquire", "server_lm.core.release"):
            bucket = out["core_" + name.rsplit(".", 1)[1]]
            bucket[0] += duration
            bucket[1] += 1
        elif name == "checker.check_all":
            out["check_ns"] += duration
            out["check_events"] += int(tag)
        elif name == "bench.op_stream":
            out["op_stream_ns"].append(duration)
            first = out["first_op_stream_ns"]
            out["first_op_stream_ns"] = start if first is None else min(first, start)
    out["client_self_ns"] = dict(out["client_self_ns"])
    return out
