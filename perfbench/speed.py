"""The machine's speed, sampled during a timed region with a fixed kernel.

On a shared machine the same code runs at different speeds from minute to
minute, and within a minute switches between a fast and a slow speed every
few tens of milliseconds, as other tenants load the host. A wall time alone
mixes that speed with the program's own cost. ``SpeedSampler`` runs a small
fixed kernel every ``INTERVAL_S`` while the program runs, from a SIGALRM
handler in the program's own thread (Python runs it between bytecodes, so
no second thread and no second process run). The mean kernel time over the
region says how fast the machine was while the program ran:

    wall_norm_s = wall_s * REFERENCE_KERNEL_S / mean kernel time

where ``wall_s`` is the region's wall time without the kernel's own time:
the wall time scaled to the speed at which one kernel run takes
``REFERENCE_KERNEL_S``. The kernel is benchmark code, not viapkit code, so
a change to viapkit moves ``wall_norm_s`` as it moves the time a user
waits, at a fixed machine speed.

The kernel is a small z-buffer loop over triangles, in pure Python: the
interpreter-bound kind of work ``render.render`` does. In a trial on the
2-vCPU machine that defined the benchmark, sampled every 0.2 s with 150
triangles, over 44 dataset-then-train iterations of about 11 s, it took the quartile spread of the iteration
times from 0.19 (raw) to 0.061; a numpy form of the same loop took it to
0.087. In an earlier trial an im2col-and-matmul kernel (like
``nn.conv2d``) took the spread from 0.17 only to 0.11: the machine's slow
spells slow interpreter work more than array work, for the training as
much as for the rasterizer.
"""

from __future__ import annotations

import gc
import math
import random
import signal
import time

INTERVAL_S = 0.05
# About one kernel run inside a worker on the 2-vCPU machine that defined
# the benchmark. It only sets the scale of wall_norm_s.
REFERENCE_KERNEL_S = 0.0012

_TRIANGLES = 60
_SIZE = 32


class Kernel:
    """The fixed work one speed sample times: a z-buffer loop in pure Python.

    It makes only Python floats, ints and tuples, which come from Python's
    own small-object allocator, not from the C heap the program's arrays
    live in.
    """

    def __init__(self):
        rnd = random.Random(12345)
        self.tris = []
        for _ in range(_TRIANGLES):
            cx, cy = rnd.uniform(-0.8, 0.8), rnd.uniform(-0.8, 0.8)
            corners = tuple((cx + rnd.uniform(-0.25, 0.25), cy + rnd.uniform(-0.25, 0.25))
                            for _ in range(3))
            self.tris.append((corners, tuple(rnd.uniform(1.0, 3.0) for _ in range(3))))
        self.xs = [(2.0 * j + 1.0 - _SIZE) / _SIZE for j in range(_SIZE)]
        self.zbuf = [math.inf] * (_SIZE * _SIZE)
        self()  # warm up

    def time(self) -> float:
        """Time one run of the kernel."""
        t0 = time.perf_counter()
        self()
        return time.perf_counter() - t0

    def __call__(self) -> float:
        """Z-buffer the triangles once; the depth sum, so no work is skipped."""
        zbuf, xs = self.zbuf, self.xs
        for k in range(_SIZE * _SIZE):
            zbuf[k] = math.inf
        for (a, b, c), (z0, z1, z2) in self.tris:
            area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if abs(area2) < 1e-9:
                continue
            j0 = max(0, int((min(a[0], b[0], c[0]) + 1.0) * _SIZE / 2.0))
            j1 = min(_SIZE, int((max(a[0], b[0], c[0]) + 1.0) * _SIZE / 2.0) + 1)
            i0 = max(0, int((min(a[1], b[1], c[1]) + 1.0) * _SIZE / 2.0))
            i1 = min(_SIZE, int((max(a[1], b[1], c[1]) + 1.0) * _SIZE / 2.0) + 1)
            for i in range(i0, i1):
                y = xs[i]
                for j in range(j0, j1):
                    x = xs[j]
                    w0 = ((c[0] - b[0]) * (y - b[1]) - (c[1] - b[1]) * (x - b[0])) / area2
                    w1 = ((a[0] - c[0]) * (y - c[1]) - (a[1] - c[1]) * (x - c[0])) / area2
                    w2 = 1.0 - w0 - w1
                    if w0 >= 0.0 and w1 >= 0.0 and w2 >= 0.0:
                        depth = w0 * z0 + w1 * z1 + w2 * z2
                        if depth < zbuf[i * _SIZE + j]:
                            zbuf[i * _SIZE + j] = depth
        return sum(z for z in zbuf if z != math.inf)


class SpeedSampler:
    """Run ``Kernel`` every ``interval_s`` between ``start`` and ``stop``.

    ``samples`` holds the kernel times; ``spent`` their sum plus the handler's
    own overhead, the time to take out of the region's wall time.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.kernel = Kernel()
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        # With the collector off, the kernel's short-lived objects start no
        # collection, so the program's collections come when they would
        # without sampling.
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(self.kernel.time())
        finally:
            if collecting:
                gc.enable()
        # A one-shot timer, re-armed here, so that handlers never pile up.
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)
        self.spent += time.perf_counter() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        # Restart system calls the signal lands in, so that no I/O in the
        # program sees EINTR.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def stop(self):
        """Stop sampling; harmless when sampling never started."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None


def normalized(wall_s: float, samples: list) -> float:
    """wall_norm_s of a region that took ``wall_s`` without the kernel runs,
    which took ``samples``."""
    return wall_s * REFERENCE_KERNEL_S / (sum(samples) / len(samples))
