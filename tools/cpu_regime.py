"""Is a second CPU free here?  Times the benchmark's calibration loop alone
and as two copies at once, and prints their ratio and the regime.

    python3 tools/cpu_regime.py
    taskset -c 0 python3 tools/cpu_regime.py    # one CPU: reads "shared"

The loop is the pure-Python loop of perfbench/sample.py's calibrate,
copied here so that this tool imports nothing.  The two copies run in two
forked children that start together and time the loop once per round.  A
ratio (median time of a copy beside another, over the median time alone)
near 1 means that two processes run at full speed side by side: the
second CPU is "free", and work dealt to a forked worker (workers.py) runs
beside this process's.  A ratio near 2 means that they share one CPU's
time ("shared"): a forked worker then waits for its CPU, and only work
that a process removes from itself, such as the lockstep solves of
solver.run_lockstep, still saves time.  Run it before timing the
benchmark, and state the regime with any speed claim.  Standard library
only.
"""
from __future__ import annotations

import os
import statistics
import sys
import time

# a ratio below this reads "free"; two copies on one CPU read about 2
FREE_BELOW = 1.3
# loop timings per copy, alone and beside the other
ROUNDS = 7


def calibrate(n=1_000_000):
    """Seconds the calibration loop takes (perfbench/sample.py's loop)."""
    t = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return time.perf_counter() - t


def _copy(go: int, sink: int) -> None:
    """In a forked child: wait for the start byte, time the loop each round,
    write the times to the pipe end sink and end the process."""
    status = 1
    try:
        os.read(go, 1)
        times = [calibrate() for _ in range(ROUNDS)]
        os.write(sink, " ".join(repr(t) for t in times).encode())
        status = 0
    finally:
        os._exit(status)


def together() -> list[float]:
    """The loop times of two copies started at once, in two forked children."""
    go_r, go_w = os.pipe()
    children = []
    for _ in range(2):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            _copy(go_r, w)
        os.close(w)
        children.append((pid, r))
    os.write(go_w, b"go")
    times = []
    for pid, r in children:
        with os.fdopen(r, "rb") as pipe:
            text = pipe.read().decode()
        _, status = os.waitpid(pid, 0)
        if status or not text:
            raise RuntimeError(f"copy {pid} ended without its times")
        times += [float(t) for t in text.split()]
    os.close(go_r)
    os.close(go_w)
    return times


def main() -> int:
    calibrate()  # warm-up
    alone = statistics.median(calibrate() for _ in range(ROUNDS))
    beside = statistics.median(together())
    ratio = beside / alone
    regime = "free" if ratio < FREE_BELOW else "shared"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"calibration loop: alone {alone:.4f} s, two at once {beside:.4f} s each")
    print(f"usable CPUs {cpus}; ratio {ratio:.2f}: {regime}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
