"""Set-up probe: in a fresh interpreter, import pairform and build one
workload's inputs from the seed, and print the seconds that took, as
measured and at the reference speed of ``speed.py``.

    python3 perfbench/probe.py <workload> <seed>

The clock starts before the first import of pairform, so the time covers
every import of the library and the input generation, and leaves out the
start of the interpreter itself.  The reference runs right after the set-up,
a few times, and their mean is the speed the set-up is corrected by.
"""

import sys
import time

REFERENCE_RUNS = 10


def main():
    start = time.perf_counter()
    import workloads

    workloads.build(sys.argv[1], int(sys.argv[2]))
    elapsed = time.perf_counter() - start
    import speed

    print(elapsed, speed.normalised(elapsed, speed.reference_s(REFERENCE_RUNS)))


if __name__ == "__main__":
    main()
