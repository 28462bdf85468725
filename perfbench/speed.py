"""Reference kernel that tracks the machine's speed over a run.

On a shared host the speed of the same work drifts by up to a factor of two
over minutes, as other tenants come and go.  After every timed interval the
benchmark runs this fixed computation (numpy and Python only, no s2flow) for
a share of that interval.  At the end of the run every time is reported in
reference-speed seconds: multiplied by the kernel's nominal chunk time over
its mean measured chunk time in that run.  Drift between runs slows both
alike and cancels; a change to s2flow does not touch the kernel, so it shows
in full.
"""

import time

import numpy as np
from scipy import sparse

REF_SHARE = 0.15       # kernel time after an interval, as a share of the interval
CHUNK_NOMINAL_S = 0.02  # one chunk's time at reference speed (defines the scale)
_N = 10242              # vertices of a level-5 icosphere


class SpeedProbe:
    """Fixed seeded data and a chunk of sparse, gather and Python work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        rows, cols = rng.integers(0, _N, size=(2, 6 * _N))
        a = sparse.coo_matrix((rng.standard_normal(6 * _N), (rows, cols)),
                              shape=(_N, _N))
        self._a = (a + a.T).tocsr()
        self._x = rng.standard_normal((_N, 3))
        self._idx = rng.integers(0, _N, size=(2 * _N, 3))
        self.chunks = 0     # chunks run so far
        self.wall_s = 0.0   # wall-clock time they took
        self.cpu_s = 0.0    # CPU time they took

    def _chunk(self):
        x, acc = self._x, 0.0
        for _ in range(10):
            y = self._a @ x
            y /= np.linalg.norm(y, axis=1)[:, None]
            t = x[self._idx]
            acc += float(np.einsum("ij,ij->", y, x))
            acc += float(np.cross(t[:, 0], t[:, 1]).sum())
            x = y
        for i in range(10000):
            acc += i * 0.5
        return acc

    def run(self, interval_s):
        """Run chunks for REF_SHARE of ``interval_s``, and at least one."""
        chunks, w0, c0 = 0, time.perf_counter(), time.process_time()
        while chunks == 0 or time.perf_counter() - w0 < REF_SHARE * interval_s:
            self._chunk()
            chunks += 1
        self.chunks += chunks
        self.wall_s += time.perf_counter() - w0
        self.cpu_s += time.process_time() - c0

    @property
    def factor(self):
        """Reference-speed seconds per measured wall-clock second."""
        return CHUNK_NOMINAL_S * self.chunks / self.wall_s

    @property
    def cpu_factor(self):
        """The same for CPU time."""
        return CHUNK_NOMINAL_S * self.chunks / self.cpu_s
