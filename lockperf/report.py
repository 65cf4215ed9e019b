"""Turns outcome records into the benchmark's named metrics and the
human-readable report printed before the result line."""

from __future__ import annotations

import json
import os
import statistics

from lockbench.checker import DESIGN_CLIENT_CENTRIC
from lockbench.server_lm import DEFAULT_SR_MESSAGE_COST, DEFAULT_TCP_MESSAGE_COST

from lockperf import derive
from lockperf.workloads import DESIGNS, SERVER_DESIGNS

with open(os.path.join(os.path.dirname(__file__), "metric_map.json"), encoding="utf-8") as _fh:
    METRIC_MAP = json.load(_fh)

_UNITS = {
    m["name"]: m["unit"]
    for m in METRIC_MAP["end_to_end"] + METRIC_MAP["report_only"] + METRIC_MAP["per_layer"]
}

MODELED_FRONTEND_GAP_US = (DEFAULT_TCP_MESSAGE_COST - DEFAULT_SR_MESSAGE_COST) * 1e6


def metric_names(traced: bool) -> list[str]:
    return [m["name"] for m in METRIC_MAP["per_layer" if traced else "end_to_end"]]


def unit(name: str) -> str:
    return _UNITS[name]


def _line(name: str, value: float, note: str = "") -> str:
    return f"{name:<42} {value:>14.6g} {unit(name):<8} {note}".rstrip()


def end_to_end(outcomes) -> tuple[dict, dict]:
    """Gated end-to-end metrics, plus report-only lines for the metrics
    that are printed but not gated (see metric_map.json)."""
    values, samples = derive.end_to_end(outcomes, DESIGNS)
    lines = []
    report_only = [m["name"] for m in METRIC_MAP["report_only"]]
    for name in metric_names(False) + report_only:
        if name not in values:
            lines.append(f"{name:<42} {'missing':>14}")
            continue
        n = samples[name]
        if name.startswith("lock_cycle_p"):
            q = int(name[len("lock_cycle_p") : name.index("_us")])
            beyond = n - -(-q * n // 100)
            note = f"n={n} cycles, {beyond} beyond"
        elif name.startswith("throughput"):
            note = f"median of {n} runs"
        else:
            note = f"median of {n} rounds, summed over designs"
        if name in report_only:
            note += " (report only)"
        lines.append(_line(name, values[name], note))
    gated = {name: values[name] for name in metric_names(False) if name in values}
    return gated, {"lines": lines, "samples": samples}


def _by_design(outcomes, designs):
    return [o for o in outcomes if o["error"] is None and o["design"] in designs]


def _throughput(runs) -> float:
    return sum(o["completed"] for o in runs) / sum(o["elapsed_s"] for o in runs)


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


def per_layer(workload, untraced, traced, micro) -> tuple[dict, dict]:
    """Per-layer metrics: isolated timings from `micro`, span sums from the
    traced runs, trace-derived queueing from the untraced runs."""
    values: dict[str, float | None] = dict(micro)
    lines: list[str] = []
    samples: dict[str, int] = {}

    cc_traced = _by_design(traced, (DESIGN_CLIENT_CENTRIC,))
    sums = [o["spans"] for o in cc_traced]
    shared = [d for s in sums for d in s["acquire_ns"]["shared"]]
    exclusive = [d for s in sums for d in s["acquire_ns"]["exclusive"]]
    release = [d for s in sums for d in s["release_ns"]]
    cc_locks = sum(o["completed"] for o in cc_traced)
    if cc_locks:
        values["client_lm.acquire_us.shared"] = derive.percentile(shared, 50) / 1e3
        values["client_lm.acquire_us.exclusive"] = derive.percentile(exclusive, 50) / 1e3
        values["client_lm.release_us"] = derive.percentile(release, 50) / 1e3
        values["client_lm.self_us_per_lock"] = sum(s["root_self_ns"] for s in sums) / cc_locks / 1e3
        values["client_lm.verbs_per_lock"] = sum(s["root_verbs"] for s in sums) / cc_locks
        values["client_lm.cas_fail_ratio"] = _ratio(
            sum(s["cas_failed"] for s in sums), sum(s["cas"] for s in sums)
        )
        values["client_lm.polls_per_shared"] = _ratio(
            sum(s["polls"] for s in sums), sum(s["shared_acquires"] for s in sums)
        )
        client_ns = sum(o["elapsed_s"] * 1e9 * workload.n_clients for o in cc_traced)
        values["trace.record_share"] = sum(s["record_ns"] for s in sums) / client_ns
        values["checker.check_all_us_per_event.client"] = (
            sum(s["check_ns"] for s in sums) / sum(s["check_events"] for s in sums) / 1e3
        )
        samples["client_lm.acquire_us"] = len(shared) + len(exclusive)

    server_traced = _by_design(traced, SERVER_DESIGNS)
    ssums = [o["spans"] for o in server_traced]
    if server_traced:
        busy_ns = sum(s["charge_ns"] + s["core_acquire"][0] + s["core_release"][0] for s in ssums)
        values["server_lm.busy_frac"] = busy_ns / sum(o["elapsed_s"] * 1e9 for o in server_traced)
        acq_ns, acq_n = (sum(s["core_acquire"][i] for s in ssums) for i in (0, 1))
        rel_ns, rel_n = (sum(s["core_release"][i] for s in ssums) for i in (0, 1))
        values["server_lm.core_acqrel_us"] = (acq_ns / acq_n + rel_ns / rel_n) / 1e3
        values["checker.check_all_us_per_event.server"] = (
            sum(s["check_ns"] for s in ssums) / sum(s["check_events"] for s in ssums) / 1e3
        )

    server_untraced = _by_design(untraced, SERVER_DESIGNS)
    depths = [d for o in server_untraced for d in o["depths"]]
    if depths:
        values["server_lm.deferred_grant_share"] = (
            sum(o["deferred"] for o in server_untraced) / len(depths)
        )
        values["server_lm.queue_depth_p99"] = derive.percentile(depths, 99)
        samples["server_lm.queue_depth"] = len(depths)
    all_untraced = _by_design(untraced, DESIGNS)
    if all_untraced:
        values["trace.events_per_lock"] = sum(o["events"] for o in all_untraced) / sum(
            o["completed"] for o in all_untraced
        )

    all_traced = _by_design(traced, DESIGNS)
    op_streams = [d for o in all_traced for d in o["spans"]["op_stream_ns"]]
    if op_streams:
        values["bench.op_stream_ms"] = statistics.mean(op_streams) / 1e6
        values["bench.client_spawn_ms"] = statistics.median(
            (o["spans"]["first_op_stream_ns"] - o["called_ns"]) / 1e6 for o in all_traced
        )
    for design in DESIGNS:
        plain = _by_design(untraced, (design,))
        with_spans = _by_design(traced, (design,))
        if plain and with_spans:
            values[f"bench.trace_overhead_frac.{design}"] = 1 - _throughput(with_spans) / _throughput(plain)
        samples[f"runs.{design}"] = len(plain)

    values = {name: values[name] for name in metric_names(True) if values.get(name) is not None}
    for name in metric_names(True):
        lines.append(_line(name, values[name]) if name in values else f"{name:<42} {'missing':>14}")
    if "server_lm.frontend_gap_us" in values:
        lines.append(
            f"fidelity (report only): frontend gap {values['server_lm.frontend_gap_us']:.2f} us "
            f"per message vs the modeled {MODELED_FRONTEND_GAP_US:.0f} us"
        )
    for design in DESIGNS:
        lines.extend(_accounting(design, _by_design(traced, (design,)), workload.n_clients))
    return values, {"lines": lines, "samples": samples}


def _accounting(design: str, runs, n_clients: int) -> list[str]:
    """Mean traced lock cycle split into each layer's self time under the
    client's acquire and release; what no span covers is the driver loop."""
    locks = sum(o["completed"] for o in runs)
    if not locks:
        return []
    cycle_ns = sum(o["elapsed_s"] * 1e9 * n_clients for o in runs) / locks
    per_layer = {}
    for o in runs:
        for layer, ns in o["spans"]["client_self_ns"].items():
            per_layer[layer] = per_layer.get(layer, 0) + ns / locks
    covered = sum(per_layer.values())
    parts = ", ".join(f"{layer} {ns / 1e3:.2f}" for layer, ns in sorted(per_layer.items()))
    lines = [
        f"accounting {design}: traced lock cycle {cycle_ns / 1e3:.2f} us = {parts}, "
        f"outside spans {(cycle_ns - covered) / 1e3:.2f} (us per lock on the client's path)"
    ]
    if design in SERVER_DESIGNS:
        charge = sum(o["spans"]["charge_ns"] for o in runs) / locks
        core = sum(o["spans"]["core_acquire"][0] + o["spans"]["core_release"][0] for o in runs) / locks
        lines.append(
            f"accounting {design}: server threads per lock: charge {charge / 1e3:.2f} us, "
            f"core {core / 1e3:.2f} us (inside the client's server_lm.rpc wait)"
        )
    return lines
