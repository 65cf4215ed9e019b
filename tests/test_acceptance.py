"""Acceptance suite: one test per headline property, one printed verdict each.

Each test prints `[ACCEPTANCE] <name>: PASS|FAIL (<detail>)` on the real
stdout so the verdict survives pytest's capture, then asserts.  Trend
properties are statistical: they must hold in at least 9 of 10 seeded
runs.  Timing budgets are part of the acceptance bar and are asserted.
"""

import os
import random
import threading
import time

import pytest

from lockbench.bench import WorkloadSpec, run_workload
from lockbench.checker import (
    DESIGN_CLIENT_CENTRIC,
    DESIGN_SERVER_SR,
    DESIGN_SERVER_TCP,
    DESIGNS,
    explore,
)
from lockbench.locktable import U32_MASK, decode, encode
from lockbench.server_lm import upper_bound_throughput
from lockbench.trace import MODE_EXCLUSIVE, MODE_SHARED
from lockbench.verbs import InprocFabric

U64 = 1 << 64
E, S = MODE_EXCLUSIVE, MODE_SHARED


@pytest.fixture
def report(capfd):
    """Verdict printer that bypasses capture so every criterion leaves a
    visible pass/fail line in the pytest output."""

    def _report(name: str, ok: bool, detail: str = "") -> None:
        line = f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)

    return _report


def _steal_ticks() -> int | None:
    """The host's CPU steal so far, in clock ticks: the 8th field of the
    `cpu` line of /proc/stat.  None where that file is absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except OSError:
        return None


@pytest.fixture
def steal():
    """`steal()` is the host's CPU steal since the test began, as
    `steal <s>s`, or `steal n/a`.  Trend verdicts print it: steal is what
    makes a short real-time run on a shared host read low."""
    start = _steal_ticks()

    def since() -> str:
        end = _steal_ticks()
        if start is None or end is None:
            return "steal n/a"
        return f"steal {(end - start) / os.sysconf('SC_CLK_TCK'):.2f}s"

    return since


def _throughput(**kwargs) -> float:
    result, _ = run_workload(WorkloadSpec(**kwargs))
    return result.throughput


# -- 1. safety suite -----------------------------------------------------------


def test_safety_suite_inproc(report):
    """50 seeded runs per design (8 clients, 4 items, 500 ops each, mixed
    modes) must produce checker-clean traces, all within 60 s."""
    t0 = time.monotonic()
    failures = []
    for design in DESIGNS:
        for seed in range(1, 51):
            spec = WorkloadSpec(
                design=design,
                n_clients=8,
                n_items=4,
                ops_per_client=500,
                shared_fraction=0.5,
                rng_seed=seed,
                per_message_cost=0.0,
                backoff=1e-4,  # keeps client-centric runs clear of spin convoys
            )
            try:
                run_workload(spec)
            except Exception as exc:
                failures.append(f"{design} seed {seed}: {exc}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60
    report(
        "safety-suite-inproc",
        ok,
        f"150 runs, {len(failures)} violating, {elapsed:.1f}s",
    )
    assert not failures, failures[:3]
    assert elapsed < 60, f"safety suite took {elapsed:.1f}s"


# -- 2. atomics linearizability --------------------------------------------------


def test_atomics_linearizability(report):
    """8 actors fire 10,000 mixed CAS/FA/half-WRITE/READ ops at one word;
    replaying completions in serial order must reproduce the final word
    exactly, and no two successful CAS ops may land in one word-epoch."""
    t0 = time.monotonic()
    n_actors, per_actor = 8, 1250
    fabric = InprocFabric()
    region = fabric.register_region(8)
    records = [[] for _ in range(n_actors)]
    barrier = threading.Barrier(n_actors)
    errors = []

    def actor(idx: int) -> None:
        rng = random.Random(1000 + idx)
        qp = fabric.connect()
        out = records[idx]
        try:
            barrier.wait()
            for _ in range(per_actor):
                r = rng.random()
                if r < 0.40:
                    expected = rng.randrange(4)
                    swap = expected + 1 + rng.randrange(7)  # never an identity swap
                    comp = qp.post_cas(region.region_id, 0, expected, swap)
                    out.append(("cas", (expected, swap), comp))
                elif r < 0.55:
                    addend = rng.choice((1, 1, 2, U64 - 1))
                    comp = qp.post_fa(region.region_id, 0, addend)
                    out.append(("fa", (addend,), comp))
                elif r < 0.85:
                    offset = rng.choice((0, 4))
                    payload = rng.randrange(4).to_bytes(4, "little")
                    comp = qp.post_write(region.region_id, offset, payload)
                    out.append(("write", (offset, payload), comp))
                else:
                    comp = qp.post_read(region.region_id, 0, 8)
                    out.append(("read", (), comp))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=actor, args=(i,)) for i in range(n_actors)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors

    merged = [rec for actor_records in records for rec in actor_records]
    assert len(merged) == n_actors * per_actor
    assert all(rec[2].ok for rec in merged)
    serials = sorted(rec[2].serial for rec in merged)
    assert serials == list(range(1, len(merged) + 1))  # total order, no gaps

    state = 0
    epoch = 0
    cas_epochs = []
    mismatches = 0
    for kind, params, comp in sorted(merged, key=lambda rec: rec[2].serial):
        if kind == "cas":
            expected, swap = params
            mismatches += comp.value != state
            if comp.value == expected:
                cas_epochs.append(epoch)
                state = swap
                epoch += 1
        elif kind == "fa":
            (addend,) = params
            mismatches += comp.value != state
            state = (state + addend) % U64
            epoch += 1
        elif kind == "write":
            offset, payload = params
            raw = bytearray(state.to_bytes(8, "little"))
            raw[offset : offset + 4] = payload
            new_state = int.from_bytes(raw, "little")
            epoch += new_state != state
            state = new_state
        else:
            mismatches += comp.value != state
    final = region.snapshot_word(0)
    elapsed = time.monotonic() - t0
    duplicate_epochs = len(cas_epochs) - len(set(cas_epochs))
    ok = (
        mismatches == 0
        and final == state
        and duplicate_epochs == 0
        and elapsed < 10
    )
    report(
        "atomics-linearizability",
        ok,
        f"{len(merged)} ops, {len(cas_epochs)} CAS wins, "
        f"{mismatches} replay mismatches, {elapsed:.1f}s",
    )
    fabric.close()
    assert mismatches == 0
    assert final == state
    assert duplicate_epochs == 0
    assert elapsed < 10


# -- 3. codec round-trips ----------------------------------------------------------


def test_codec_and_fa_bridges(report):
    """10^5 random (owner, count) pairs: exact round-trip, and whole-word
    +1 / +(2^64-1) behave as count increment / decrement."""
    rng = random.Random(3)
    bad = 0
    for _ in range(100_000):
        owner = rng.randrange(U32_MASK + 1)
        count = rng.randrange(U32_MASK + 1)
        word = encode(owner, count)
        bad += decode(word) != (owner, count)
        if count < U32_MASK:
            bad += word + 1 != encode(owner, count + 1)
        if count >= 1:
            bad += (word + (U64 - 1)) % U64 != encode(owner, count - 1)
    report("codec-fa-bridges", bad == 0, f"100000 pairs, {bad} failures")
    assert bad == 0


# -- 4. server frontends: throughput shape over client count ------------------------


def test_send_recv_vs_tcp_frontend_shape(report, steal):
    """With 20 us per TCP message vs 2 us per SEND/RECV message on 4
    workers, the SEND/RECV frontend must beat the TCP frontend at every
    point from 4 clients up, and the TCP curve must plateau (16-client
    value within 25% of the 8-client value), in >= 9 of 10 seeded runs."""
    t0 = time.monotonic()
    client_counts = (1, 2, 4, 8, 16)
    wins = 0
    details = []
    for seed in range(1, 11):
        thr = {}
        for design in (DESIGN_SERVER_TCP, DESIGN_SERVER_SR):
            for n in client_counts:
                # 500 ops per client: short runs are vulnerable to multi-run
                # scheduler convoys that can depress one design's curve.
                thr[design, n] = _throughput(
                    design=design,
                    n_clients=n,
                    n_items=4,
                    ops_per_client=500,
                    rng_seed=seed,
                    worker_limit=4,
                )
        sr_above = all(
            thr[DESIGN_SERVER_SR, n] > thr[DESIGN_SERVER_TCP, n]
            for n in (4, 8, 16)
        )
        tcp8, tcp16 = thr[DESIGN_SERVER_TCP, 8], thr[DESIGN_SERVER_TCP, 16]
        plateau = abs(tcp16 - tcp8) <= 0.25 * tcp8
        wins += sr_above and plateau
        details.append(f"seed {seed}: sr_above={sr_above} plateau={plateau}")
    elapsed = time.monotonic() - t0
    ok = wins >= 9 and elapsed < 120
    report("frontend-shape", ok, f"{wins}/10 seeds, {elapsed:.1f}s, {steal()}")
    assert wins >= 9, details
    assert elapsed < 120


# -- 5. client-centric vs best server design ------------------------------------------


def test_client_centric_outperforms_send_recv_server(report, steal):
    """At 8 and 16 clients (default cost settings) the client-centric
    design must finish strictly ahead of the SEND/RECV server in >= 9 of
    10 seeded runs."""
    t0 = time.monotonic()
    wins = 0
    details = []
    for seed in range(1, 11):
        ahead = True
        for n in (8, 16):
            # 100 us retry backoff: zero-backoff spinning on a single core
            # can convoy the scheduler and collapse a run; backoff is the
            # client design's own remedy and leaves message costs untouched.
            cc = _throughput(
                design=DESIGN_CLIENT_CENTRIC,
                n_clients=n,
                n_items=4,
                ops_per_client=500,
                rng_seed=seed,
                backoff=1e-4,
            )
            sr = _throughput(
                design=DESIGN_SERVER_SR,
                n_clients=n,
                n_items=4,
                ops_per_client=500,
                rng_seed=seed,
                worker_limit=4,
            )
            details.append(f"seed {seed} n={n}: client-centric {cc:,.0f} vs sr {sr:,.0f}")
            ahead = ahead and cc > sr
        wins += ahead
    elapsed = time.monotonic() - t0
    ok = wins >= 9 and elapsed < 120
    report("client-centric-margin", ok, f"{wins}/10 seeds, {elapsed:.1f}s, {steal()}")
    assert wins >= 9, details
    assert elapsed < 120


# -- 6. contention trend ---------------------------------------------------------------


def test_contention_degrades_client_centric_throughput(report, steal):
    """At 16 clients, client-centric throughput at contention rate 0.875
    (2 items) must fall below its value at rate 0 (16 items) in >= 9 of 10
    seeded runs.

    Measured on the TCP transport with one process per client: there the
    retry verbs of contended clients consume real, fairly-scheduled CPU,
    which is the mechanism the trend describes.  In-process threads under
    a single-core GIL stay aggregate-CPU-bound regardless of lock waits,
    so the trend has no mechanism to appear there.
    """
    t0 = time.monotonic()
    wins = 0
    details = []
    for seed in range(1, 11):
        thr = {}
        for n_items in (16, 2):
            thr[n_items] = _throughput(
                design=DESIGN_CLIENT_CENTRIC,
                n_clients=16,
                n_items=n_items,
                ops_per_client=150,
                rng_seed=seed,
                transport="tcp",
            )
        details.append(
            f"seed {seed}: cr0 {thr[16]:,.0f} vs cr0.875 {thr[2]:,.0f}"
        )
        wins += thr[2] < thr[16]
    elapsed = time.monotonic() - t0
    ok = wins >= 9
    report("contention-trend", ok, f"{wins}/10 seeds, {elapsed:.1f}s, {steal()}")
    assert wins >= 9, details


# -- 7. upper-bound formula ---------------------------------------------------------------


def test_upper_bound_formula_and_documented_discrepancy(report):
    value = upper_bound_throughput(40, 3e9, 1e4, 1)
    doc = upper_bound_throughput.__doc__ or ""
    documented = "1.2e7" in doc and "30M" in doc
    ok = value == 1.2e7 and documented
    report(
        "upper-bound-formula",
        ok,
        f"value={value:.4g}, discrepancy documented={documented}",
    )
    assert value == 1.2e7
    assert documented, "docstring must record the 1.2e7-vs-30M discrepancy"


# -- 8. exhaustive model check ----------------------------------------------------------


def test_model_check_two_clients_all_mode_combinations(report):
    """Every interleaving of two client-driven sessions on one item, for
    all four mode pairs: no conflicting holders anywhere, and every final
    state leaves the lock word zero."""
    t0 = time.monotonic()
    combos = [(E, E), (E, S), (S, E), (S, S)]
    results = {modes: explore(modes) for modes in combos}
    elapsed = time.monotonic() - t0
    states = sum(r.states_explored for r in results.values())
    ok = all(r.ok for r in results.values()) and elapsed < 10
    report(
        "model-check-2x1",
        ok,
        f"4 mode combos, {states} states, {elapsed:.2f}s",
    )
    for modes, result in results.items():
        assert result.unsafe == [], modes
        assert result.bad_terminal == [], modes
    assert elapsed < 10


# -- 9. transport equivalence -------------------------------------------------------------


def test_safety_suite_tcp_transport(report):
    """The safety suite re-run over the TCP-emulated transport, 4 client
    processes per run: still zero checker violations, within 2 min."""
    t0 = time.monotonic()
    failures = []
    for design in DESIGNS:
        for seed in range(1, 51):
            spec = WorkloadSpec(
                design=design,
                n_clients=4,
                n_items=4,
                ops_per_client=500,
                shared_fraction=0.5,
                rng_seed=seed,
                per_message_cost=0.0,
                transport="tcp",
            )
            try:
                run_workload(spec)
            except Exception as exc:
                failures.append(f"{design} seed {seed}: {exc}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120
    report(
        "safety-suite-tcp",
        ok,
        f"150 runs, {len(failures)} violating, {elapsed:.1f}s",
    )
    assert not failures, failures[:3]
    assert elapsed < 120, f"tcp safety suite took {elapsed:.1f}s"
