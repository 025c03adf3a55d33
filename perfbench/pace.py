"""The machine's pace while a timed process runs, sampled from inside it.

On a shared host the CPU runs the same code up to twice as fast at one
minute as at the next, for minutes at a time, with no steal time or
descheduling the guest can see: only the instructions get slower. Raw wall
times then vary more from run to run than any bound a regression check can
use. So every timed child process samples its own pace: a SIGALRM timer
interrupts it every TICK_INTERVAL_S and runs a fixed reference fragment,
which does not touch relu_prism, on the same CPU, at that moment. A wall
time is reported at the reference pace:

    wall at reference pace = wall * mean(REF_TICK_S / tick duration)

A change to the program moves the wall time and not the ticks, so it shows
in full; a slow or fast spell of the host moves both, and cancels.

    python3 perfbench/pace.py <ticks.json> -m <module> [args...]

runs `python -m <module> [args...]` under sampling and writes the ticks.
"""

from __future__ import annotations

import gc
import json
import runpy
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

TICK_INTERVAL_S = 0.05
MIN_TICKS = 10
# The usual duration of one tick on a 2-vCPU Xeon VM, so that values at
# reference pace read as that machine's seconds at its usual pace.
REF_TICK_S = 0.6e-3

_RNG = np.random.default_rng(0)
_W = _RNG.standard_normal((16, 10))
_X = _RNG.standard_normal((8, 10))


def _interpreter() -> None:
    s = 0
    for i in range(4000):
        s += i * i


def _small_arrays() -> None:
    for _ in range(40):
        np.maximum(_W @ _X.T, 0.0)


# Interpreter-bound work and small-array numpy calls, the two kinds of work
# relu_prism's per-row and per-pattern loops are made of. A pass over a
# 4 MB array was tried as a third fragment and tracked the ops worse: its
# cache state depends on the op it interrupts.
FRAGMENTS = (_interpreter, _small_arrays)


class Pace:
    """Context manager that samples tick durations while its body runs."""

    def __init__(self):
        self.ticks: list[list[float]] = []  # one duration per fragment

    def _tick(self, signum, frame) -> None:
        # A collection of the program's garbage inside a tick is not pace.
        collecting = gc.isenabled()
        gc.disable()
        durations = []
        for fragment in FRAGMENTS:
            start = time.perf_counter()
            fragment()
            durations.append(time.perf_counter() - start)
        self.ticks.append(durations)
        if collecting:
            gc.enable()

    def __enter__(self) -> "Pace":
        for fragment in FRAGMENTS:  # the first calls of a process run cold
            fragment()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.ticks) < MIN_TICKS:  # a short body still gets a steady sample
            self._tick(None, None)

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(self.ticks) + "\n")


def scale(ticks: list[list[float]]) -> float:
    """The factor that takes a wall time measured during `ticks` to reference pace.

    Work done in a wall time T is T times the mean speed over T; the ticks
    sample the speed, REF_TICK_S / duration, at even times. A tick slowed by
    something other than pace (a page fault, a signal delivered late) reads
    as a low speed, not as an outlier that dominates a mean of durations.
    """
    return statistics.fmean(REF_TICK_S / sum(tick) for tick in ticks)


def speeds(ticks: list[list[float]]) -> list[float]:
    """Mean speed of each fragment over `ticks`, in 1/s, for the record."""
    return [statistics.fmean(1.0 / tick[i] for tick in ticks) for i in range(len(FRAGMENTS))]


def load(path: Path) -> list[list[float]]:
    return json.loads(path.read_text())


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "-m":
        print(__doc__, file=sys.stderr)
        return 2
    out, module, args = Path(argv[0]), argv[2], argv[3:]
    sys.argv = [module, *args]
    code = 0
    pace = Pace()
    try:
        with pace:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        pace.save(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
