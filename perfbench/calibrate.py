"""Machine-speed calibration for the speed-normalized job times.

The cores this benchmark was built on are shared, and their speed switches
between states up to 1.7x apart every few seconds; a 20-second run sees a
different mix of them each time, so medians of raw wall times spread by
10-30% between runs.  A short fixed kernel timed between jobs tracks the
state: on the march workload the ratio of job time to kernel time stayed
within about 5% across the switches while the job times moved by 13%.

Each job time is therefore also reported in reference seconds:
``wall / slowdown ** power``, where the slowdown is the kernel's time over
its reference time, the kernel time being the median of the samples taken
during the job and just before and after it.  The kernels are fixed code of
the benchmark's own and call no hypctrl function, so a change to hypctrl
cannot move them.  The slowdown is not the same for all code
(interpreter-bound code slows most, dense BLAS least), so each workload
uses the kernel that resembles its own work, and a power below 1 where its
jobs slow less than the kernel.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np


class Kernels:
    """Fixed inputs for the kernels; calling one runs it once."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.w = rng.standard_normal((2, 600, 1))
        self.cour = rng.uniform(0.4, 0.9, size=(1, 600, 1))
        self.src = rng.standard_normal((600, 2, 2)) * 0.1
        self.batch = rng.standard_normal((2, 200, 400))
        self.mask = np.tile(np.arange(200) % 2 == 0, 2)
        self.pos, self.neg = np.array([1]), np.array([0])

    def stepper(self):
        """Per-step numpy call overhead of single-column upwind marching."""
        w = self.w
        for _ in range(40):
            out = w.copy()
            up = np.concatenate([w[:1, :1, :], w[:1, :-1, :]], axis=1)
            out[:1] = w[:1] - self.cour * (w[:1] - up)
            down = np.concatenate([w[1:, 1:, :], w[1:, -1:, :]], axis=1)
            out[1:] = w[1:] - self.cour * (down - w[1:])
            out += 1e-3 * np.einsum("xij,jxb->ixb", self.src, w)
            w = out
        return w

    def sweep(self):
        """Gramian-sweep work: upwind steps of a 400-column basis batch,
        the masked rows' accumulated product, one symmetric eigensolve."""
        z = self.batch
        gram = np.zeros((400, 400))
        for _ in range(2):
            zm = z.reshape(400, 400)[self.mask]
            gram += 1e-3 * (zm.T @ zm)
            out = z.copy()
            wp = z[self.pos]
            out[self.pos] = wp - 0.5 * (wp - np.concatenate([z[self.neg, :1], wp[:, :-1]], axis=1))
            wn = z[self.neg]
            out[self.neg] = wn - 0.5 * (np.concatenate([wn[:, 1:], z[self.pos, -1:]], axis=1) - wn)
            z = out
        return np.linalg.eigvalsh(gram[:160, :160])


# the kernel each workload is normalized by: certify is the batched sweep,
# the others are dominated by per-call numpy overhead
KERNEL = {"synth": "stepper", "march": "stepper", "certify": "sweep", "formulas": "stepper"}
# the power of the kernel's slowdown each workload's jobs follow, per job
# (indexed by job % len; synth's follow its cases a, b, c).  Over ten runs
# with power 1, the per-run median job times of march and of synth case b
# (44% dense factorizations and solves) fell as the kernel slowed; these
# powers made them steadiest, and 1 was steadiest for the other jobs.
POWER = {"synth": (1.0, 0.6, 1.0), "march": (0.7,), "certify": (1.0,), "formulas": (1.0,)}
# each kernel's time at the reference speed, close to its time on a 2-core
# Xeon VM in its faster state
REFERENCE_S = {"stepper": 1.0e-3, "sweep": 10.0e-3}
RUNS_PER_SAMPLE = 3


class Calibrator:
    """Samples the current speed of the cores for one workload."""

    def __init__(self, workload: str):
        self.kernel_name = KERNEL[workload]
        self.kernel = getattr(Kernels(), self.kernel_name)
        self.reference_s = REFERENCE_S[self.kernel_name]
        self.powers = POWER[workload]
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self):
        """Record the kernel's seconds per run now, the median of a few."""
        stamp = perf_counter()
        times = []
        for _ in range(RUNS_PER_SAMPLE):
            t0 = perf_counter()
            self.kernel()
            times.append(perf_counter() - t0)
        self.samples.append(statistics.median(times))
        self.times.append(0.5 * (stamp + perf_counter()))

    def normalize(self, job: int, start: float, end: float) -> float:
        """Reference seconds for job ``job``, which ran from start to end
        (wall clock), using the samples taken during it and just before and
        after."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = min(bisect.bisect_right(self.times, end) + 1, len(self.times))
        slowdown = statistics.median(self.samples[lo:hi]) / self.reference_s
        return (end - start) / slowdown ** self.powers[job % len(self.powers)]
