"""Speed references for normalising times on a machine whose speed drifts.

The sandbox's CPU drifts between speed states about a third apart, for
seconds at a time. A time is normalised by multiplying it with a reference's
nominal duration over the reference's duration measured next to it, which
reports it at the speed where the reference takes its nominal time (about
this 2-vCPU machine's typical speed on Python 3.11).

- In-process library calls follow a loop of tuple-keyed dict inserts at
  scattered keys: over 1613 smoothed paired samples, BiPoly products, exact
  division and Fraction solves followed it with log-log slope 1.0 (r = 0.95),
  where an integer-arithmetic loop under-corrected them (slope 1.5).
- Process start-up follows that loop only weakly (slope 0.34, r = 0.42). It
  follows the start-up of ``python -c pass`` better (slope 0.72, r = 0.79
  over 200 smoothed pairs), which CLI ops and set-up time are normalised by.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

LOOP_KEYS = random.Random(0).choices(range(1 << 20), k=10_000)
LOOP_NOMINAL_S = 0.003
LOOP_EVERY_S = 0.02  # op time between loop references
SPAWN_NOMINAL_S = 0.08
SPAWN_EVERY_S = 0.5  # op time between start-up references


def loop_s() -> float:
    """Seconds for the fixed in-process reference loop."""
    t0 = time.perf_counter()
    table = {}
    for i in LOOP_KEYS:
        table[(i & 1023, i >> 10)] = i
    return time.perf_counter() - t0


def spawn_s(env: dict) -> float:
    """Seconds to start and stop a bare interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
    return time.perf_counter() - t0
