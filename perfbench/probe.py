"""Set-up probe: times one fresh process importing fsvi and building a
workload's inputs and models. Prints the seconds taken.

    python3 perfbench/probe.py <workload> <seed>
"""

import time

_START = time.perf_counter()

import pathlib  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import fsvi  # noqa: E402, F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(repr(time.perf_counter() - _START))
