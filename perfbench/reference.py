"""Reference work that measures how fast the host runs, next to the program.

On a shared virtual machine other tenants slow the CPU by 25-60% for
spells of seconds to minutes, and not every kind of work slows alike. So
each workload times, next to the program, reference work of the same
kind that does not import streamfdr, and reports the program's times
scaled by the reference's nominal time over its time measured right
before and after: what the work would take on the host at its nominal
speed. A change to the
program moves the scaled times in full, because the reference always
does the same work.

* ``sim-*`` workloads: the ``mixed`` kernel (an interpreted loop, then
  small numpy block steps like the engines' scans), timed between
  `simulate` calls;
* ``online-long``: the ``python`` kernel (the interpreted loop alone),
  timed between blocks of steps;
* ``stream-cli``: an echo process (``ECHO_CODE``) fed the same lines in
  turn with the `stream` command, in the same way;
* set-up: a fresh interpreter that makes the imports ``streamfdr.cli``
  makes, streamfdr's own aside (``DEPS_CODE``), spawned next to each
  set-up sample.

Each choice is the reference, of those tried, whose times followed the
workload's best through the host's slow spells. The raw (unscaled)
times are printed next to the scaled ones.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

# Kernel runs per mark.
RUNS = 5

# A process that writes each line back at once: its round trip is the
# pipe and scheduler cost of one line, with no streamfdr code in it.
ECHO_CODE = "import sys\nfor line in sys.stdin:\n    sys.stdout.write(line)\n    sys.stdout.flush()\n"
# The standard-library and third-party imports of ``streamfdr.cli`` and
# the modules it imports, without streamfdr.
DEPS_CODE = (
    "import argparse, csv, dataclasses, math, sys; import numpy; from scipy import special; "
    "print('ready', flush=True)"
)
# Reference times on the host at its nominal speed (a 2-vCPU VM, Python
# 3.11, numpy 2.4, scipy 1.17, in a calm spell). They only set the
# scale: scaled times read as times on such a host. ``DEPS_CODE``: from
# spawn to its line. Echo: per line of a saturated pass, and per round
# trip with one CPU shared by both ends.
DEPS_NOMINAL_S = 0.4
ECHO_LINE_NOMINAL_S = 3e-6
ECHO_TRIP_NOMINAL_S = 8e-6

_P = np.random.default_rng(12345).random(1 << 15)
_LEVELS = np.linspace(1e-3, 1e-4, 256)
_OUT = np.empty(1 << 15)


def _loop(count: int) -> int:
    total = 0
    for i in range(count):
        total += i * 7 % 13
    return total


def python_kernel() -> int:
    """An interpreted loop of integer arithmetic."""
    return _loop(50_000)


def mixed_kernel() -> int:
    """Half the interpreted loop, then 64-value numpy blocks compared, searched and copied."""
    total = _loop(25_000)
    for i in range(0, _P.size, 64):
        levels = _LEVELS[(i // 64) % 192:(i // 64) % 192 + 64]
        total += np.flatnonzero(_P[i:i + 64] <= levels).size
        _OUT[i:i + 64] = levels
    return total


# name -> (kernel, its time at nominal speed)
KERNELS = {"python": (python_kernel, 0.004), "mixed": (mixed_kernel, 0.005)}


class HostSpeed:
    """Kernel times marked before the first unit of work of a run and after each unit."""

    def __init__(self, name: str, marks=()):
        self.kernel, self.nominal = KERNELS[name]
        self.marks = list(marks)

    def mark(self) -> None:
        """Record the median time of ``RUNS`` runs of the kernel, after one untimed run."""
        self.kernel()
        times = []
        for _ in range(RUNS):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        self.marks.append(median(times))

    def scaled(self, times: list) -> list:
        """Each unit's time at the nominal speed, by the mean of the marks on either side of it."""
        return [t * self.nominal / (0.5 * (before + after))
                for t, before, after in zip(times, self.marks, self.marks[1:])]
