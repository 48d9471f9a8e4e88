"""Noise floor of the machine the benchmark runs on (reference figures, not metrics).

    python3 perfbench/noise.py

Prints the steal share of busy CPU time since boot (from /proc/stat) and the
spread of a fixed pure-Python loop timed ten times.
"""

import statistics
import time


def steal_share():
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    user, nice, system, idle, iowait, irq, softirq, steal = fields[:8]
    busy = user + nice + system + irq + softirq + steal
    return steal / busy if busy else 0.0


def calibration_loop(n=2_000_000):
    t = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return time.perf_counter() - t


if __name__ == "__main__":
    print(f"steal share of busy CPU time since boot: {steal_share():.3f}")
    times = [calibration_loop() for _ in range(10)]
    q = statistics.quantiles(times, n=4)
    print(f"calibration loop: median {statistics.median(times):.3f} s, "
          f"min {min(times):.3f} s, max {max(times):.3f} s, "
          f"quartile spread {(q[2] - q[0]) / statistics.median(times):.3f} of the median")
