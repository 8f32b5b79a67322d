"""How fast the machine runs right now, read from fixed reference work.

Other tenants of a shared machine slow it down, by up to half and
switching within a second, and a slow spell can cover a whole run; a
timing on its own then says more about the neighbours than about the
program.  So every timing is bracketed by readings of reference work and
reported at reference speed:

    reported = wall time * nominal / (mean of the readings just before and after)

that is, in seconds on a machine where the reference work takes `nominal`.
Two kinds of reference work are used, each beside the work it resembles:

  loop   a fixed pure-Python loop (LOOP_NOMINAL_S per rep), beside
         operations run inside the worker process;
  spawn  a bare interpreter, `python -c pass` (SPAWN_NOMINAL_S), beside
         operations that are whole processes: cli calls and set-up.

Neither runs braidoka code, and the loop allocates no object the garbage
collector tracks, so a change to the program moves the reported time as
it moves the wall time, while a slowdown of the machine moves both the
reference and the operation, and cancels.  The nominal values are fixed
constants, the same for every version of the program; wall times go into
the report line beside the scaled ones.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

LOOP_STEPS = 300
# Readings in the fast state of a shared 2-core x86 VM (Intel Xeon,
# Python 3.11.7): the scale of every reported time.
LOOP_NOMINAL_S = 6.5e-5    # one rep of the loop
SPAWN_NOMINAL_S = 0.057    # one `python -c pass`
SHARE = 0.1        # loop time per unit of operation time
MAX_REPS = 300     # a loop reading lasts at most ~20 ms
WINDOW_S = 0.005   # in-process operations are grouped into windows at least this long


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def _rep() -> int:
    table = [0] * 64
    acc = 7
    for i in range(LOOP_STEPS):
        j = (i * 37 + acc) & 63
        acc = _mix(acc, table[j]) ^ i
        table[j] = acc & 1023
    return acc


def loop_reps(reps: int) -> float:
    """Seconds per rep of the loop over `reps` reps."""
    t0 = perf_counter()
    for _ in range(reps):
        _rep()
    return (perf_counter() - t0) / reps


def reps_for(busy_s: float) -> int:
    """Reps that take about SHARE of busy_s at nominal speed."""
    return min(MAX_REPS, max(1, round(SHARE * busy_s / LOOP_NOMINAL_S)))


def loop_reading(busy_s: float) -> float:
    return loop_reps(reps_for(busy_s))


def spawn_reading(env: dict | None = None) -> float:
    """Seconds to start and stop a bare interpreter."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, timeout=60,
                   check=True)
    return perf_counter() - t0


class Speed:
    """Brackets windows of work with readings of reference work and gives
    each window its scale: the nominal reading over the mean of the readings
    just before and just after it."""

    def __init__(self, read, nominal: float):
        self.read = read          # busy seconds -> one reading, in seconds
        self.nominal = nominal
        self.before = read(0.01)

    def close(self, busy_s: float) -> float:
        """Call right after a window that kept the program busy_s seconds."""
        after = self.read(busy_s)
        scale = self.nominal / ((self.before + after) / 2)
        self.before = after
        return scale


def loop_speed() -> Speed:
    return Speed(loop_reading, LOOP_NOMINAL_S)


def spawn_speed(env: dict | None = None) -> Speed:
    return Speed(lambda busy_s: spawn_reading(env), SPAWN_NOMINAL_S)


def pin_to_one_cpu() -> int:
    """Keep this process and every process it starts on one CPU, so that
    the readings come from the CPU the operations run on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
