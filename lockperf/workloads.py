"""The benchmark's workloads and the fixed load settings they share.

Every workload is a closed loop with zero think time: each client issues
acquire-then-release pairs back to back.  All load uses the frontends'
default per-message costs, `worker_limit=4`, `shared_fraction=0.5`,
`backoff=0` and unbounded retries, and never more clients than the 2
cores this benchmark was sized on.
"""

from __future__ import annotations

from dataclasses import dataclass

from lockbench import WorkloadSpec
from lockbench.bench import TRANSPORT_INPROC, TRANSPORT_TCP
from lockbench.checker import DESIGN_CLIENT_CENTRIC, DESIGN_SERVER_SR, DESIGN_SERVER_TCP

# Fixed order: in a fresh interpreter the first TCP design pays forkserver
# start, so the order is part of what setup_s measures.
DESIGNS = (DESIGN_SERVER_TCP, DESIGN_SERVER_SR, DESIGN_CLIENT_CENTRIC)
SERVER_DESIGNS = (DESIGN_SERVER_TCP, DESIGN_SERVER_SR)

WORKER_LIMIT = 4
SHARED_FRACTION = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    transport: str
    n_clients: int
    n_items: int
    # Per design: client-centric runs about 4x faster in process, and its
    # window must still span many 5 ms GIL handoffs to be repeatable.
    ops_per_client: dict[str, int]

    def spec(self, design: str, seed: int) -> WorkloadSpec:
        return WorkloadSpec(
            design=design,
            n_clients=self.n_clients,
            n_items=self.n_items,
            ops_per_client=self.ops_per_client[design],
            shared_fraction=SHARED_FRACTION,
            rng_seed=seed,
            transport=self.transport,
            backoff=0.0,
            per_message_cost=None,
            max_retries=None,
            worker_limit=WORKER_LIMIT,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "inproc-spread",
            "2 client threads over 64 items in process: the uncontended per-lock cost of "
            "verb wrappers, region atomics, the mailboxes, the cost model's spin and tracing",
            TRANSPORT_INPROC,
            n_clients=2,
            n_items=64,
            ops_per_client={
                DESIGN_SERVER_TCP: 3000,
                DESIGN_SERVER_SR: 3000,
                DESIGN_CLIENT_CENTRIC: 12000,
            },
        ),
        Workload(
            "tcp-solo",
            "1 client process over 64 items on TCP: socket round trips and client-process "
            "set-up with no contention; in-process-only changes should not move it",
            TRANSPORT_TCP,
            n_clients=1,
            n_items=64,
            ops_per_client=dict.fromkeys(DESIGNS, 3000),
        ),
        Workload(
            "tcp-hot",
            "2 client processes on 1 item over TCP: the contended path of CAS retries, "
            "READ polls, server FIFO queueing and release-triggered grant pushes",
            TRANSPORT_TCP,
            n_clients=2,
            n_items=1,
            ops_per_client=dict.fromkeys(DESIGNS, 2000),
        ),
    )
}

# The workloads BENCHMARK.json lists.  tcp-solo stays runnable by name but is
# not gated: a single client's socket ping-pong waits on a cross-core wake-up
# every round trip, and on the 2-vCPU host this benchmark was sized on its
# run-to-run spread (interquartile range over median of 5 seeds) was
# 0.12-0.20 for throughput, against 0.03-0.07 for tcp-hot measured back to back.
BENCHMARK_WORKLOADS = ("inproc-spread", "tcp-hot")
