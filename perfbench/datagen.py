"""Deterministic fleet generator with ground truth.

Every series is ``trend + seasonal + noise + spike``.  The per-series
shape (level, slope, amplitude, phase) comes from the workload seed; the
noise and the spike positions of round ``t`` come from a
generator seeded with ``(seed, t)``.  Any row range can therefore be
regenerated on its own, in any order, and the same seed always yields
the same values: the benchmark never stores a whole stream.

The true trend and seasonal parts and the spike labels are returned
beside the values, so decomposition error and anomaly F1 are measured
against what the generator actually put in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PERIOD = 24
#: the engine default: four periods of warm-up before a series goes live
INITIALIZATION = 4 * PERIOD
#: online rounds before a live OneShotSTL is eligible for the fleet kernel
#: (every per-iteration solver past its dense warm-up), plus the round on
#: which the engine absorbs it
ABSORB_ROUNDS = 7
NOISE = 0.1
SPIKE_SIZE = 1.0


@dataclass(frozen=True)
class Rows:
    """Rounds ``[start, stop)`` of a fleet, round-major ``(rounds, n)``."""

    start: int
    values: np.ndarray
    trend: np.ndarray
    seasonal: np.ndarray
    spikes: np.ndarray


class Fleet:
    """``n`` seasonal series with known components, keyed ``s00000...``.

    Spikes (size ``SPIKE_SIZE``, random sign) fall on every
    ``spike_every``-th round: one in each of ``spike_groups`` equal blocks
    of series, at a random series of the block.  Placing a fixed number
    per round, rather than drawing each cell, keeps the work per batch
    even: every spike trips OneShotSTL's seasonality-shift search, which
    costs far more than a plain update, so a drawn count would make batch
    latency depend on luck.
    """

    def __init__(
        self,
        seed: int,
        n: int,
        *,
        spike_every: int = 16,
        spike_groups: int = 1,
    ):
        self.seed = int(seed)
        self.n = int(n)
        self.spike_every = int(spike_every)
        self._group_bounds = np.linspace(0, self.n, int(spike_groups) + 1).astype(int)
        self.keys = [f"s{index:05d}" for index in range(self.n)]
        shape = np.random.default_rng([self.seed, 0x5EED])
        self._level = shape.normal(0.0, 1.0, self.n)
        self._slope = shape.uniform(-0.002, 0.002, self.n)
        self._wiggle = shape.uniform(0.0, 2.0 * np.pi, self.n)
        self._amplitude = shape.uniform(0.5, 2.0, self.n)
        self._phase = shape.uniform(0.0, PERIOD, self.n)

    def rows(self, start: int, stop: int) -> Rows:
        """Generate rounds ``[start, stop)`` for every series."""
        t = np.arange(start, stop, dtype=float)[:, None]
        trend = (
            self._level
            + self._slope * t
            + 0.3 * np.sin(2.0 * np.pi * t / (20 * PERIOD) + self._wiggle)
        )
        angle = 2.0 * np.pi * (t + self._phase) / PERIOD
        seasonal = self._amplitude * (np.sin(angle) + 0.3 * np.sin(2.0 * angle))
        rounds = stop - start
        noise = np.empty((rounds, self.n))
        spikes = np.zeros((rounds, self.n), dtype=bool)
        sign = np.empty((rounds, self.n))
        for row in range(rounds):
            rng = np.random.default_rng([self.seed, start + row])
            noise[row] = rng.normal(0.0, NOISE, self.n)
            if (start + row) % self.spike_every == 0:
                low, high = self._group_bounds[:-1], self._group_bounds[1:]
                spikes[row, rng.integers(low, high)] = True
            sign[row] = np.where(rng.random(self.n) < 0.5, -1.0, 1.0)
        values = trend + seasonal + noise + SPIKE_SIZE * sign * spikes
        return Rows(start, values, trend, seasonal, spikes)

    def warmup(self) -> Rows:
        """The rounds that take a fresh series to live and kernel-absorbed."""
        return self.rows(0, INITIALIZATION + ABSORB_ROUNDS)


def waves(n: int, count: int) -> list[slice]:
    """Split ``n`` series into ``count`` contiguous arrival waves."""
    bounds = np.linspace(0, n, count + 1).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
