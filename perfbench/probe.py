"""Set-up probe: a fresh interpreter imports the benchmark, builds one
workload's inputs and exits. ``run.py`` times several probes and reports
their median as ``setup_s``.

Usage: python3 perfbench/probe.py WORKLOAD SEED [CHAIN_SEED ...]
(the ambuplan sources must be on PYTHONPATH; run.py arranges that).
For ``cli-pipeline``, run.py passes the chain seeds it has already chosen,
so the probe generates those instances and leaves out the HiGHS selection.
"""

import sys

from spans import NullTracer
from workloads import WORKLOADS, CliPipeline

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]()
    seed = int(sys.argv[2])
    if isinstance(workload, CliPipeline):
        workload.inputs(seed, NullTracer(), [int(s) for s in sys.argv[3:]])
    else:
        workload.inputs(seed, NullTracer())
    workload.close()
