"""Command-line interface: run workloads, check traces."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .bench import (
    DEFAULT_MESSAGE_COSTS,
    TRANSPORT_INPROC,
    TRANSPORTS,
    WorkloadSpec,
    contention_rate,
    result_row,
    run_workload,
    sweep_clients,
    sweep_contention,
    write_csv,
)
from .checker import DESIGNS, check_all
from .errors import ConfigurationError, RunCheckError
from .locktable import MAX_CLIENTS
from .trace import TraceParseError, read_trace, write_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lockbench",
        description="Compare a server-centric and a client-centric lock manager "
        "over an emulated RDMA verb layer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench_p = sub.add_parser(
        "bench",
        help="run one workload or a sweep (self-hosted) and report throughput",
    )
    bench_p.add_argument("--design", choices=DESIGNS, required=True)
    bench_p.add_argument("--transport", choices=TRANSPORTS, default=TRANSPORT_INPROC)
    bench_p.add_argument("--clients", type=int, default=8, metavar="N")
    bench_p.add_argument("--items", type=int, default=4, metavar="N")
    bench_p.add_argument("--ops", type=int, default=1000, metavar="N")
    bench_p.add_argument("--shared-fraction", type=float, default=0.5, metavar="F")
    bench_p.add_argument("--backoff-us", type=float, default=0.0, metavar="US")
    bench_p.add_argument("--max-retries", type=int, default=None, metavar="N")
    bench_p.add_argument("--seed", type=int, default=1, metavar="N")
    bench_p.add_argument("--csv", metavar="PATH", help="write result rows as CSV")
    bench_p.add_argument("--trace", metavar="PATH", help="write the run's trace (single runs only)")
    bench_p.add_argument(
        "--sweep-clients",
        metavar="N,N,...",
        help="run once per client count instead of a single run",
    )
    bench_p.add_argument(
        "--sweep-items",
        metavar="N,N,...",
        help="run once per item count (contention sweep) instead of a single run",
    )
    bench_p.add_argument(
        "--per-message-cost-us",
        type=float,
        default=None,
        metavar="US",
        help="simulated CPU cost per server message in microseconds (default: "
        + ", ".join(f"{cost * 1e6:g} for {design}" for design, cost in DEFAULT_MESSAGE_COSTS.items())
        + ")",
    )
    bench_p.add_argument(
        "--worker-limit",
        type=int,
        default=4,
        metavar="N",
        help="max concurrent per-message charges in process, 1 to "
        f"{MAX_CLIENTS} (default 4); "
        "they spin under the GIL, so they share one core whatever N is; over "
        "TCP one server thread runs every charge, one at a time",
    )

    check_p = sub.add_parser(
        "check",
        help="validate a trace file; exit 0 iff no violations",
    )
    check_p.add_argument("trace", metavar="TRACE_PATH")
    check_p.add_argument(
        "--design",
        choices=DESIGNS,
        default=None,
        help="enables the FIFO check for server designs; without it only "
        "safety and conservation are checked",
    )
    return parser


def _spec_from_args(args) -> WorkloadSpec:
    cost = args.per_message_cost_us
    return WorkloadSpec(
        design=args.design,
        n_clients=args.clients,
        n_items=args.items,
        ops_per_client=args.ops,
        shared_fraction=args.shared_fraction,
        rng_seed=args.seed,
        transport=args.transport,
        backoff=args.backoff_us / 1e6,
        per_message_cost=None if cost is None else cost / 1e6,
        max_retries=args.max_retries,
        worker_limit=args.worker_limit,
    )


def _parse_counts(text: str, parser, flag: str) -> list[int]:
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        parser.error(f"{flag} expects a comma-separated list of integers")
    if not counts or min(counts) < 1:
        parser.error(f"{flag} expects at least one count, each >= 1")
    return counts


def _check_writable(path, parser) -> None:
    """Exit 2 with one line, before any run, unless `path` opens for writing."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        parser.exit(2, f"{parser.prog}: error: cannot write {path}: {exc.strerror or exc}\n")
    if not existed:
        os.remove(path)  # the probe's own empty file


def _cmd_bench(args, parser) -> int:
    spec = _spec_from_args(args)
    spec.validate()
    if args.sweep_clients and args.sweep_items:
        parser.error("--sweep-clients and --sweep-items are mutually exclusive")
    if args.trace and (args.sweep_clients or args.sweep_items):
        parser.error("--trace writes one run's trace; it cannot be used with a sweep")
    for path in (args.csv, args.trace):
        if path:
            _check_writable(path, parser)
    if args.sweep_clients or args.sweep_items:
        errors: list = []
        if args.sweep_clients:
            counts = _parse_counts(args.sweep_clients, parser, "--sweep-clients")
            sweep, points = sweep_clients, [replace(spec, n_clients=n) for n in counts]
        else:
            counts = _parse_counts(args.sweep_items, parser, "--sweep-items")
            sweep, points = sweep_contention, [replace(spec, n_items=n) for n in counts]
        for point in points:  # a bad point is a usage error before any run
            point.validate()
        rows = sweep(spec, counts, errors)
        for row in rows:
            print(
                f"{row['design']:>16} clients={row['n_clients']:>3} items={row['n_items']:>4} "
                f"cr={row['contention_rate']:>6} throughput={row['throughput_lps'] or 'FAILED'}"
            )
        for failed_spec, exc in errors:
            print(f"run failed (clients={failed_spec.n_clients}, items={failed_spec.n_items}): {exc}",
                  file=sys.stderr)
        if args.csv:
            write_csv(args.csv, rows)
        return 1 if errors else 0
    try:
        result, events = run_workload(spec)
    except RunCheckError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return 1
    except RuntimeError as exc:  # a client failed or ended without a result
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"{spec.design} on {spec.transport}: {result.total_locks_granted} locks in "
        f"{result.elapsed:.3f}s = {result.throughput:.1f} locks/s "
        f"(clients={spec.n_clients}, items={spec.n_items}, "
        f"cr={contention_rate(spec.n_items, spec.n_clients):.3f})"
    )
    if args.csv:
        write_csv(args.csv, [result_row(spec, result)])
    if args.trace:
        write_trace(args.trace, events)
    return 0


def _cmd_check(args) -> int:
    try:
        events = read_trace(args.trace)
    except OSError as exc:
        print(f"cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    except TraceParseError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 2
    violations = check_all(events, args.design)
    for violation in violations:
        print(violation)
    if not violations:
        print(f"{len(events)} events, no violations")
    return 0 if not violations else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bench":
            return _cmd_bench(args, parser)
    except ConfigurationError as exc:
        parser.error(str(exc))
    return _cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
