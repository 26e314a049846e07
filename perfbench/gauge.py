"""The speed gauge: a fixed pure-Python loop timed beside every measurement.

The shared machine the benchmark runs on changes speed by up to about half
every few seconds, and the share of time at full speed changes over minutes,
so raw wall times of the same code move by more than the benchmark's bounds
between runs. The gauge loop does the same amount of interpreter work every
time and does not touch ``mvcodes``, so its time tracks the machine's speed
and nothing else. ``run.py`` divides each job's (and each import probe's)
wall time by the gauge time measured around it and multiplies by
``REFERENCE_S``: the result is the time the work would take at the speed at
which the gauge loop takes ``REFERENCE_S``, reported in the metric's unit.
A program change that halves a job's work halves its gauged time; a slow
phase of the machine slows job and gauge alike and cancels out.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.3e-3
_KEYS = list(range(1000))
_VALUES = {i: i * 7 % 1000 for i in range(1000)}


def _loop():
    t0 = time.perf_counter()
    s = 0
    for i in range(3000):
        s += _VALUES[_KEYS[i % 1000]] ^ (i & 255)
    return time.perf_counter() - t0


def read():
    """Seconds the loop takes now: the faster of two back-to-back runs, so an
    interrupt that hits one run does not count as a change of speed."""
    return min(_loop(), _loop())


def scaled(wall_s, before_s, after_s):
    """``wall_s`` at the reference speed, from gauge readings taken just
    before and just after it."""
    return wall_s * 2 * REFERENCE_S / (before_s + after_s)
