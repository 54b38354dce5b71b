"""Machine-speed calibration for timings on a shared, noisy host.

On the 2-vCPU virtual machine where the benchmark's spreads were measured,
the same code runs 25-45% slower for stretches of a second to minutes,
independently on each core, with nothing in the guest to show it (no steal
time, no CPU counters).  Raw medians of whole runs spread by 15-25%
between runs, and a speed probe taken only before and after a multi-second
request misses the changes inside it.

So the worker samples the speed *during* its requests: an interval timer
interrupts the process every ``INTERVAL_S`` and the signal handler times a
fixed slice of work that resembles vpcf's mix (small numpy vector
arithmetic, ``np.roll``, ``np.hypot`` and a banded solve, then formatting
and parsing float text as the snapshot files do).  A request
is charged its own time, without the slices that interrupted it, scaled by
``SLICE_REF_S`` over the mean slice time seen during it.  A calibrated
second is a second at the speed at which one slice takes ``SLICE_REF_S``.
The slice imports nothing from vpcf, so no change to vpcf can move it.
"""

import gc
import signal
import time

import numpy as np
from scipy.linalg import solve_banded

NUMERIC_ITERATIONS = 12
TEXT_ITERATIONS = 5
SLICE_REF_S = 2.0e-3        # nominal slice time on the reference host
INTERVAL_S = 0.04           # slices take about 6% of the run
MIN_SAMPLES = 8             # short requests use the latest samples


_AB = np.empty((3, 512))
_AB[0] = _AB[2] = -1.0
_AB[1] = 4.0
_LINES = [f"{0.1 * i:.17g},{-0.3 * i:.17g}" for i in range(64)]


def calibration_slice():
    """Seconds taken by one fixed slice of calibration work.

    Half numerical kernel (the flow's mix), half text: formatting and
    parsing float rows as the snapshot writer and reader do.
    """
    x = np.linspace(0.0, 1.0, 512)
    rhs = np.empty((512, 5))
    # a collection triggered here would charge the program's garbage to the
    # slice; the program pays for it after the slice instead
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(NUMERIC_ITERATIONS):
        h = np.hypot(x - np.roll(x, 1), 1.0)
        rhs[:, 0] = x
        rhs[:, 1:] = h[:, None]
        z = solve_banded((1, 1), _AB, rhs, check_finite=False)
        x = z[:, 0] + 1e-9 * float(h.sum())
    for _ in range(TEXT_ITERATIONS):
        rows = [tuple(map(float, line.split(","))) for line in _LINES]
        "".join(f"{a:.17g},{b:.17g}\n" for a, b in rows)
    seconds = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


class SpeedSampler:
    """Times a calibration slice on every tick of an interval timer."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(calibration_slice())

    def start(self):
        calibration_slice()     # the first call pays one-off set-up costs
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.samples)

    def calibrate(self, seconds, since):
        """Calibrated and own seconds of a phase that began at ``since``.

        ``seconds`` is the phase's elapsed time, slices included.
        """
        end = len(self.samples)
        inside = self.samples[since:end]
        own = seconds - sum(inside)
        window = inside if len(inside) >= MIN_SAMPLES \
            else self.samples[max(0, end - MIN_SAMPLES):end]
        if not window:
            window = [calibration_slice()]
        return own * SLICE_REF_S * len(window) / sum(window), own
