"""CLI surface: bench runs, trace checking, exit codes."""

import csv

import pytest

from lockbench import bench, cli
from lockbench.checker import CONSERVATION, Violation
from lockbench.cli import main
from lockbench.errors import RunCheckError
from lockbench.locktable import MAX_CLIENTS
from lockbench.server_lm import DEFAULT_SR_MESSAGE_COST, DEFAULT_TCP_MESSAGE_COST
from lockbench.trace import TraceEvent, write_trace

BENCH_FAST = [
    "bench",
    "--design", "client-centric",
    "--clients", "3",
    "--items", "2",
    "--ops", "25",
]


def test_bench_single_run_prints_summary(capsys):
    assert main(BENCH_FAST) == 0
    out = capsys.readouterr().out
    assert "client-centric on inproc" in out
    assert "75 locks" in out


@pytest.mark.parametrize("design", ["client-centric", "server-sr"])
def test_bench_writes_csv_and_trace(tmp_path, capsys, design):
    csv_path = tmp_path / "run.csv"
    trace_path = tmp_path / "run.trace"
    argv = ["bench", "--design", design, "--clients", "3", "--items", "2", "--ops", "25"]
    argv += ["--csv", str(csv_path), "--trace", str(trace_path)]
    assert main(argv) == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["total_locks"] == "75"
    assert trace_path.read_text().count("\n") == 4 * 75
    # The written trace passes its own checker.
    assert main(["check", str(trace_path), "--design", design]) == 0


def test_bench_single_run_reports_a_failed_client(tmp_path, monkeypatch, capsys):
    def fail(spec):
        raise RuntimeError("client 2: ConnectionError: verb channel closed")

    monkeypatch.setattr(cli, "run_workload", fail)
    csv_path, trace_path = tmp_path / "run.csv", tmp_path / "run.trace"
    assert main(BENCH_FAST + ["--csv", str(csv_path), "--trace", str(trace_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "run failed: client 2: ConnectionError: verb channel closed\n"
    assert captured.out == ""
    assert not csv_path.exists() and not trace_path.exists()


def test_bench_sweep_prints_one_row_per_point(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    argv = BENCH_FAST + ["--sweep-clients", "1,2", "--csv", str(csv_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("client-centric") == 2
    with open(csv_path, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_bench_sweep_items_runs_one_point_per_item_count(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert main(BENCH_FAST + ["--sweep-items", "1,3", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "items=   1" in out and "items=   3" in out
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["n_items"], r["contention_rate"]) for r in rows] == [("1", "0.666667"), ("3", "0")]
    assert [r["total_locks"] for r in rows] == ["75", "75"]


def test_bench_single_run_that_fails_its_check_exits_1(tmp_path, monkeypatch, capsys):
    violations = [Violation(CONSERVATION, "lock word 0 nonzero at shutdown: 0x1")]

    def fail_check(spec):
        raise RunCheckError(violations)

    monkeypatch.setattr(cli, "run_workload", fail_check)
    csv_path, trace_path = tmp_path / "run.csv", tmp_path / "run.trace"
    assert main(BENCH_FAST + ["--csv", str(csv_path), "--trace", str(trace_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "CONSERVATION: lock word 0 nonzero at shutdown: 0x1\n"
    assert captured.out == ""
    assert not csv_path.exists() and not trace_path.exists()


# Output flags whose path cannot be written; "{ok}" names a writable path.
UNWRITABLE_OUTPUTS = {
    "csv": ["--csv", "{missing}"],
    "trace": ["--csv", "{ok}", "--trace", "{missing}"],
    "trace-is-a-directory": ["--trace", "{dir}"],
    "sweep-csv": ["--sweep-clients", "1,2", "--csv", "{missing}"],
}


@pytest.mark.parametrize("flags", UNWRITABLE_OUTPUTS.values(), ids=UNWRITABLE_OUTPUTS.keys())
def test_an_unwritable_output_path_is_a_usage_error_before_any_run(tmp_path, monkeypatch, capsys, flags):
    def no_run(spec):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_workload", no_run)
    monkeypatch.setattr(bench, "run_workload", no_run)  # what the sweeps call
    paths = {"missing": tmp_path / "missing" / "out", "ok": tmp_path / "ok.csv", "dir": tmp_path}
    with pytest.raises(SystemExit) as exc:
        main(BENCH_FAST + [flag.format(**paths) for flag in flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("lockbench: error: cannot write ")
    assert sorted(tmp_path.iterdir()) == []  # the writable path's probe left no file


def test_bench_sweep_flags_are_mutually_exclusive(capsys):
    argv = BENCH_FAST + ["--sweep-clients", "1", "--sweep-items", "1"]
    with pytest.raises(SystemExit):
        main(argv)


def test_check_accepts_clean_trace(tmp_path, capsys):
    path = tmp_path / "clean.trace"
    write_trace(path, [
        TraceEvent(1, 1, 0, "ACQ", "EXCLUSIVE", "REQ", 1),
        TraceEvent(2, 1, 0, "ACQ", "EXCLUSIVE", "GRANT", 2),
        TraceEvent(3, 1, 0, "REL", "EXCLUSIVE", "REQ", 3),
        TraceEvent(4, 1, 0, "REL", "EXCLUSIVE", "ACK", 3),
    ])
    assert main(["check", str(path)]) == 0
    assert "no violations" in capsys.readouterr().out


def test_check_flags_unsafe_trace(tmp_path, capsys):
    path = tmp_path / "bad.trace"
    write_trace(path, [
        TraceEvent(1, 1, 0, "ACQ", "EXCLUSIVE", "REQ", 1),
        TraceEvent(2, 1, 0, "ACQ", "EXCLUSIVE", "GRANT", 2),
        TraceEvent(3, 2, 0, "ACQ", "EXCLUSIVE", "REQ", 3),
        TraceEvent(4, 2, 0, "ACQ", "EXCLUSIVE", "GRANT", 4),
    ])
    assert main(["check", str(path)]) == 1
    assert "DOUBLE_EXCLUSIVE" in capsys.readouterr().out


def test_check_missing_file_exits_2(capsys):
    assert main(["check", "/nonexistent/trace"]) == 2


def test_check_malformed_trace_exits_2(tmp_path, capsys):
    path = tmp_path / "garbage.trace"
    path.write_text("this is not a trace\n")
    assert main(["check", str(path)]) == 2
    assert "malformed" in capsys.readouterr().err


def test_check_non_ascii_trace_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.trace"
    path.write_bytes(b"10,1,0,ACQ,SHARED,REQ,1\n\xff\n")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "malformed trace: line 2: non-ASCII byte 0xff\n"


def test_check_rejects_an_event_no_recorder_stamps(tmp_path, capsys):
    path = tmp_path / "acq-ack.trace"
    path.write_text("10,1,0,ACQ,SHARED,ACK,1\n")
    assert main(["check", str(path)]) == 2
    assert "malformed" in capsys.readouterr().err


def test_check_rejects_a_trace_without_seqs(tmp_path, capsys):
    path = tmp_path / "six-columns.trace"
    path.write_text("10,1,0,ACQ,SHARED,REQ\n")
    assert main(["check", str(path)]) == 2
    assert "expected 7 fields" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        BENCH_FAST + ["--worker-limit", "0"],
        # Above the client cap: the cost model would queue a token per unit.
        BENCH_FAST + ["--worker-limit", str(MAX_CLIENTS + 1)],
        BENCH_FAST + ["--max-retries", "-1"],
        BENCH_FAST + ["--clients", "0"],
        BENCH_FAST + ["--sweep-clients", "0,2"],
        # Non-finite and overflowing costs and backoffs.  The backoff cases
        # run one client, which never retries, so a build that let them
        # through would not sleep them either.
        BENCH_FAST + ["--design", "server-sr", "--per-message-cost-us", "nan"],
        BENCH_FAST + ["--design", "server-sr", "--per-message-cost-us", "inf"],
        BENCH_FAST + ["--design", "server-sr", "--per-message-cost-us", "1e308"],
        BENCH_FAST + ["--clients", "1", "--backoff-us", "nan"],
        BENCH_FAST + ["--clients", "1", "--backoff-us", "inf"],
        BENCH_FAST + ["--clients", "1", "--backoff-us", "1e16"],
    ],
    ids=[
        "worker-limit", "worker-limit-huge", "max-retries", "clients", "sweep-count",
        "cost-nan", "cost-inf", "cost-huge", "backoff-nan", "backoff-inf", "backoff-huge",
    ],
)
def test_bad_settings_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1].startswith("lockbench: error: ")


def test_trace_with_a_sweep_is_refused(tmp_path, capsys):
    trace_path = tmp_path / "sweep.trace"
    with pytest.raises(SystemExit) as exc:
        main(BENCH_FAST + ["--sweep-clients", "1,2", "--trace", str(trace_path)])
    assert exc.value.code == 2
    assert "--trace" in capsys.readouterr().err
    assert not trace_path.exists()


def test_unknown_design_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["bench", "--design", "wishful"])


@pytest.mark.parametrize(
    "argv,cost",
    [
        (["--design", "server-tcp"], DEFAULT_TCP_MESSAGE_COST),
        (["--design", "server-sr"], DEFAULT_SR_MESSAGE_COST),
        (["--design", "server-sr", "--per-message-cost-us", "7"], 7e-6),
    ],
)
def test_bench_message_cost_is_given_in_microseconds(monkeypatch, argv, cost):
    # The flag is in microseconds, the server's config in seconds; without
    # the flag each server design gets its frontend's default.
    configs = []
    real_server = bench.LockServer

    def recording_server(config, recorder=None):
        configs.append(config)
        return real_server(config, recorder)

    monkeypatch.setattr(bench, "LockServer", recording_server)
    assert main(BENCH_FAST + argv) == 0
    assert len(configs) == 1
    assert configs[0].per_message_cost == pytest.approx(cost)
