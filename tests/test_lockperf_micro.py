"""The benchmark's micro layer builds lockbench's objects by their public
constructors (`InprocFabric()`, `ServerConfig` positional fields,
`MessageCostModel(cost, limit).charge`, `SocketConn(host, port)`,
`TcpFabric.connect()`, ...); a refactor that breaks one must fail here, not
only in the benchmark's traced run.
"""

import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from lockperf import micro  # noqa: E402

# A frontend gap is a difference of two round trips and may come out negative.
SIGNED = {"server_lm.frontend_gap_us"}


def test_micro_layer_emits_every_isolated_metric(monkeypatch):
    with open(os.path.join(ROOT, "lockperf", "metric_map.json"), encoding="ascii") as fh:
        per_layer = json.load(fh)["per_layer"]
    isolated = {m["name"] for m in per_layer if m["source"] == "isolated"}
    assert len(isolated) == 21
    monkeypatch.setattr(micro, "BATCHES", 1)
    values = micro.run_all()
    assert set(values) == isolated
    for name, value in values.items():
        assert math.isfinite(value), name
        assert name in SIGNED or value > 0, (name, value)
