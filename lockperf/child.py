"""One measurement in a fresh interpreter, so every design run pays the
same one-time costs (imports, forkserver start) as a `lockbench bench`
call.  Prints one JSON object as its last line of output.

    python3 -m lockperf.child design WORKLOAD DESIGN SEED TRACED
    python3 -m lockperf.child micro

TCP runs start client processes from a forkserver, which re-imports this
module as `__mp_main__` in every client; the entry point therefore stays
under the `__main__` check.  In a traced run the clients inherit
SPAN_DIR_ENV and trace themselves.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from lockperf import OUT_DIR, spans

if __name__ == "__mp_main__" and os.environ.get(spans.SPAN_DIR_ENV):
    spans.install_in_client_process(os.environ[spans.SPAN_DIR_ENV])


def run_design(workload_name: str, design: str, seed: int, traced: bool) -> dict:
    from lockbench import run_workload

    from lockperf.derive import measure_design, span_summary
    from lockperf.workloads import WORKLOADS

    spec = WORKLOADS[workload_name].spec(design, seed)
    if not traced:
        return measure_design(spec, run_workload)
    recorder = spans.SpanRecorder()
    spans.install(recorder)
    span_dir = os.path.join(OUT_DIR, f"spans-{os.getpid()}")
    os.makedirs(span_dir, exist_ok=True)
    os.environ[spans.SPAN_DIR_ENV] = span_dir
    try:
        outcome = measure_design(spec, run_workload)
    finally:
        recorder.uninstall()
        del os.environ[spans.SPAN_DIR_ENV]
    for name in sorted(os.listdir(span_dir)):
        if name.endswith(".json"):
            with open(os.path.join(span_dir, name), encoding="ascii") as fh:
                recorder.spans.extend(tuple(s) for s in json.load(fh))
    shutil.rmtree(span_dir)
    # The last traced run of each workload and design stays on disk.
    recorder.dump(os.path.join(OUT_DIR, f"spans-{workload_name}-{design}.json"))
    outcome["spans"] = span_summary(recorder.spans)
    outcome["span_count"] = len(recorder.spans)
    return outcome


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "design" and len(argv) == 5:
        _, workload_name, design, seed, traced = argv
        result = run_design(workload_name, design, int(seed), traced == "1")
    elif mode == "micro" and len(argv) == 1:
        from lockperf.micro import run_all

        result = run_all()
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
