"""Wall time corrected for the host's share of the CPU.

The benchmark runs on a few virtual CPUs of a shared host.  For seconds to
minutes at a time the host gives a virtual CPU only part of a physical one,
and then every piece of code, pure Python and BLAS alike, takes up to twice
as long; CPU time grows with wall time, and the guest's steal counter does
not record it.  A run's median of raw wall times therefore depends on how
much of the run fell in such a period, and ten runs spread far wider than
any change worth detecting.

``SpeedClock.mark`` runs a fixed pure-Python reference kernel: before and
after every timed phase, at every stage boundary (through the
``run_pipeline`` log callback) and, while the clock's timer is on, from a
``SIGALRM`` handler every ``every_s`` seconds, so long stages are sampled
from inside.  The program's time between two consecutive marks is scaled by
``KERNEL_S`` over the mean of the two kernel times around it.  Kernel time
is left out of both the raw and the corrected time.

Corrected times are comparable with each other, whatever share the host
gave, but are not wall-clock times: the kernel runs slower between program
code than alone, so on the tuning host a pass that had a physical CPU to
itself reads about 15% below its wall time, and where the host shares the
CPU the kernel slows a little more than the program does, so the correction
slightly overshoots.  Passes of one corpus repeat within 3-6% corrected,
against 7-9% uncorrected within one slow period and up to 2x across periods.
"""

from __future__ import annotations

import random
import signal
import time

# seconds one kernel call takes on the tuning host (Intel Xeon, 2 virtual
# CPUs) while its virtual CPU has a physical CPU to itself
KERNEL_S = 0.0155

_rng = random.Random(0)
_WORDS = ["".join(_rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(_rng.randint(2, 9)))
          for _ in range(3000)]
_LINES = [" ".join(_rng.choice(_WORDS) for _ in range(20)) for _ in range(4000)]


def _kernel() -> int:
    """Tokenize-and-count over a fixed text: the kind of interpreter work
    the pipeline spends most of its time on."""
    counts: dict[str, int] = {}
    for line in _LINES:
        for word in line.split():
            word = word.lower()
            counts[word] = counts.get(word, 0) + 1
    return len(counts)


class SpeedClock:
    """Marks along one process's timeline, each a reference-kernel run."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # (kernel start, kernel end)
        self._in_mark = False

    def mark(self) -> int:
        """Run the kernel now; returns the mark's index."""
        self._in_mark = True
        try:
            started = time.perf_counter()
            _kernel()
            index = len(self.marks)
            self.marks.append((started, time.perf_counter()))
        finally:
            self._in_mark = False
        return index

    def _on_timer(self, signum, frame) -> None:
        if not self._in_mark:
            self.mark()

    def start_timer(self, every_s: float) -> None:
        """Mark every ``every_s`` seconds until ``stop_timer``."""
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def raw(self, first: int, last: int) -> float:
        """Wall time between two marks, kernel runs left out."""
        return sum(self.marks[m + 1][0] - self.marks[m][1] for m in range(first, last))

    def corrected(self, first: int, last: int) -> float:
        """Time between two marks in seconds of an unshared CPU."""
        total = 0.0
        for m in range(first, last):
            (s0, e0), (s1, e1) = self.marks[m], self.marks[m + 1]
            total += (s1 - e0) * KERNEL_S / ((e0 - s0 + e1 - s1) / 2)
        return total
