"""lockbench's benchmark: end-to-end runs through `lockbench.run_workload`
and a separate traced run that times each layer's public surface.

`python3 lockperf/run.py --workload NAME --seed N --seconds S --trace 0|1`
is the entry point; see `run.py`.
"""

import os

# Outcome records, span dumps and the forkserver's temporary directory.
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".lockperf_out")
