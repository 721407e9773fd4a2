"""Machine-speed calibration for the benchmark's time metrics.

On a shared host the speed of a core drifts, by up to twice within tens of
seconds, with the load of its neighbours; the same pass then takes from
4 s to 7 s.  To compare runs made at different times, each timed interval
is divided by its slowdown: the time of a fixed pure-Python kernel measured
during (or, for short intervals, around) the interval, over the kernel's
time at reference speed.  Every time metric is thus in seconds at
reference speed; the measured seconds are kept beside them.

`Sampler` times the kernel from a SIGALRM handler every `INTERVAL_S` while
a pass runs, so the slowdown is that of the interval itself; the handler's
own time is subtracted from the interval.  `Calibration` times it between
intervals, for intervals too short to sample.
"""

import signal
import time

# Kernel time at reference speed: a quiet phase of the x86-64 VM the
# baseline was recorded on, with CPython 3.11.
REFERENCE_S = 0.0005
INTERVAL_S = 0.05


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def kernel_once() -> float:
    """Seconds of one run of the kernel: dict, tuple and modular integer
    work, like the engine's inner loops."""
    start = time.perf_counter()
    table = {}
    for i in range(2000):
        key = (i % 7, i % 11, i % 13)
        table[key] = (table.get(key, 0) + i * 31) % 32003
    return time.perf_counter() - start


class Calibration:
    """Kernel timings between intervals; `slowdown()` after an interval
    gives that interval's slowdown (above 1: slower than reference)."""

    def __init__(self):
        self.last = self._kernel_seconds()

    @staticmethod
    def _kernel_seconds() -> float:
        return _median(kernel_once() for _ in range(15))

    def slowdown(self) -> float:
        now = self._kernel_seconds()
        value = (self.last + now) / 2 / REFERENCE_S
        self.last = now
        return value


class Sampler:
    """Kernel timings taken every INTERVAL_S of wall time while running."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds the handler took, to subtract

    def sample(self, count: int = 1) -> None:
        """Time the kernel now, `count` times, as the handler does."""
        for _ in range(count):
            seconds = kernel_once()
            self.samples.append(seconds)
            self.spent += seconds

    def _tick(self, signum, frame):
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """The state at the start of an interval, for `slowdown` and `spent_since`."""
        return len(self.samples), self.spent

    def spent_since(self, mark) -> float:
        return self.spent - mark[1]

    def slowdown(self, mark=(0, 0.0)) -> float:
        window = self.samples[mark[0]:]
        if len(window) < 3:  # a short interval: the nearest samples instead
            window = self.samples[-3:] or [kernel_once()]
        return _median(window) / REFERENCE_S
