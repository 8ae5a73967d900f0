"""Set-up probe: import photongate, build the first op's grid and pulse, and
print the monotonic clock; run.py subtracts the time it started the process.

Usage: python3 bench/probe.py <workload> <seed>
"""

import sys
import time

from workloads import WORKLOADS

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]
    workload.grid_and_pulse(workload.ops(int(sys.argv[2]))[0])
    print(repr(time.monotonic()))
