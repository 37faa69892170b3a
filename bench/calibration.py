"""Machine-speed calibration for the benchmark's timings.

The host this benchmark was written on changes speed by up to 2x, in
phases that last from seconds to minutes, and each of its CPUs does so on
its own.  Each timing is therefore scaled by a calibration that the same
process runs right before and right after the timed calls: a fixed
pure-Python job of building dicts and rendering JSON, work like the
workloads' own, that touches no theta_factor code.  The collector is off
meanwhile, so the program's heap does not change its time.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

# Seconds per calibration round at the reference speed: about the median
# on the 2-core Xeon the benchmark was written on.
REFERENCE_S = 0.042


def calibrate(rounds: int) -> float:
    """Mean seconds per round of building dicts and rendering JSON, after
    one round that is not counted.  A round works in small chunks, so it
    adds well under a megabyte to the process's peak memory."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds + 1):
            start = time.perf_counter()
            for _ in range(8):
                rows = [{"a": i, "b": (i, i + 1), "c": [i, str(i)]} for i in range(1250)]
                records = [
                    {"label": f"x{i}", "flag": [1, 1], "weights": [i % 3, i % 3 + 1], "alpha": i}
                    for i in range(375)
                ]
                json.dumps(records, indent=2)
                del rows, records
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.mean(times[1:])


def scaled(seconds: float, calibration_s: float) -> float:
    """A timing at the reference speed."""
    return seconds * REFERENCE_S / calibration_s
