"""Time one set-up of a workload in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up runs from before the first ``import hochlat`` until the workload's
inputs are ready; ``run.py`` starts this a few times and reports the median.
"""

import sys
from time import perf_counter

import workloads
from run import use_source_tree

if __name__ == "__main__":
    use_source_tree()
    start = perf_counter()
    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    print(perf_counter() - start)
