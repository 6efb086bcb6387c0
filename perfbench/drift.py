#!/usr/bin/env python3
"""Measure how the machine's speed drifts, independently of the program.

    python3 perfbench/drift.py --seconds 40

Times one fixed numpy operation (sorting the same 100,000 integers) over
and over, and prints the median of each 2-second window in ms, then the
lowest and highest window median. The reference figures in README.md were
measured with it.
"""

from __future__ import annotations

import argparse
import statistics
from time import perf_counter, process_time

import numpy as np

WINDOW_S = 2.0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=40.0)
    args = ap.parse_args()
    data = np.random.default_rng(0).integers(0, 1 << 40, size=100_000)
    windows = []
    end = perf_counter() + args.seconds
    while perf_counter() < end:
        times = []
        w_end = perf_counter() + WINDOW_S
        c0, t0 = process_time(), perf_counter()
        while perf_counter() < w_end:
            t = perf_counter()
            np.sort(data)
            times.append(perf_counter() - t)
        cpu_share = (process_time() - c0) / (perf_counter() - t0)
        windows.append(statistics.median(times) * 1e3)
        print(f"window {len(windows):3d}: median {windows[-1]:.3f} ms over {len(times)} sorts, cpu/wall {cpu_share:.2f}")
    lo, hi = min(windows), max(windows)
    print(f"window medians: min {lo:.3f} ms, max {hi:.3f} ms, max/min {hi / lo:.2f}")


if __name__ == "__main__":
    main()
