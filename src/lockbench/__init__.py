"""Workbench comparing two distributed lock-manager designs — a
centralized server-side manager and a pure client-driven manager built on
one-sided RDMA-style atomics — over an emulated verb layer, with a
benchmark harness and a trace-based safety checker."""

from .bench import RunResult, WorkloadSpec, contention_rate, run_workload
from .checker import (
    DESIGN_CLIENT_CENTRIC,
    DESIGN_SERVER_SR,
    DESIGN_SERVER_TCP,
    Violation,
    check_all,
    check_conservation,
    check_fifo,
    check_safety,
)
from .client_lm import ClientSession
from .errors import (
    AcquisitionTimeout,
    ConfigurationError,
    ProtocolError,
    ReleaseError,
    RunCheckError,
)
from .locktable import LockTable, decode, encode
from .server_lm import LockServer, ServerConfig, upper_bound_throughput
from .trace import TraceEvent, TraceRecorder, read_trace, write_trace
from .verbs import Completion, CompletionStatus, InprocFabric, MemoryRegion, QueuePair

__version__ = "0.1.0"

__all__ = [
    "AcquisitionTimeout",
    "ClientSession",
    "Completion",
    "CompletionStatus",
    "ConfigurationError",
    "DESIGN_CLIENT_CENTRIC",
    "DESIGN_SERVER_SR",
    "DESIGN_SERVER_TCP",
    "InprocFabric",
    "LockServer",
    "LockTable",
    "MemoryRegion",
    "ProtocolError",
    "QueuePair",
    "ReleaseError",
    "RunCheckError",
    "RunResult",
    "ServerConfig",
    "TraceEvent",
    "TraceRecorder",
    "Violation",
    "WorkloadSpec",
    "check_all",
    "check_conservation",
    "check_fifo",
    "check_safety",
    "contention_rate",
    "decode",
    "encode",
    "read_trace",
    "run_workload",
    "upper_bound_throughput",
    "write_trace",
]
