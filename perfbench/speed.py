"""Host speed, sampled while a job runs.

On a shared host the same code runs up to 1.8x slower for seconds to
minutes at a time, CPU time included, so raw times of two runs differ by
the phase each run fell in.  SpeedProbe times a fixed pure-Python
calibration loop before a job, after it, and every PROBE_EVERY_S while
it runs: a SIGALRM interval timer interrupts the job between bytecodes.
The job's time without the probes, over the mean probe time, is its cost
in calibration loops.  A reported time is that cost times REF_PROBE_S:
the seconds the job would take on a host that runs the loop in
REF_PROBE_S.

The loop belongs to the benchmark, not to the package, so a change to
the package moves these times exactly as it moves raw ones.  Its mix of
integer arithmetic and small dicts, tuples and float lists was chosen
because its time follows the package's own through the host's phases.
On the 2-vCPU host the benchmark was written on, the slope of log job
time against log loop time was near 1 for this mix (0.9 to 1.2 over the
jobs of check-ab and verify-nav), against 1.3 to 1.6 for a plain
integer loop, whose time swings less than the package's.
"""

import signal
import time

PROBE_EVERY_S = 0.04
# the loop's time on that host in a quiet phase
REF_PROBE_S = 0.001


def probe_loop():
    s = 0
    for i in range(5000):
        s += i * i % 7
    d = {}
    acc = 0.0
    for i in range(1500):
        key = (i & 63, i % 5)
        floats = [float(i), 0.5 * i, 1.0 / (i + 1)]
        d[key] = floats
        got = d.get(((i * 7) & 63, i % 5), floats)
        acc += got[0] * floats[1] - got[2]
    return s, acc


def probe_time():
    t0 = time.perf_counter()
    probe_loop()
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager sampling the loop around and during a job.

    ``spent`` is the time the samples taken inside the block used, to be
    taken off the block's own time; ``samples`` holds every sample.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame):
        dt = probe_time()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self.samples = [probe_time()]
        self.spent = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(probe_time())
        return False

    def scaled(self, seconds):
        """seconds, measured inside the block, at reference speed."""
        mean = sum(self.samples) / len(self.samples)
        return REF_PROBE_S * (seconds - self.spent) / mean


def scale_now(seconds, samples=20):
    """seconds, just measured, at reference speed, from fresh samples."""
    mean = sum(probe_time() for _ in range(samples)) / samples
    return REF_PROBE_S * seconds / mean
