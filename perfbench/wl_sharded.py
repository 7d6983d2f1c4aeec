"""``sharded-fanout``: a ``ShardRouter`` over two durable workers.

One worker per core.  Full-width 16-round grids go through
``ShardRouter.ingest_grid`` in a closed loop from one caller: pickled
fan-out over the worker pipes, worker compute, fan-in of the result
arrays.  A checkpoint follows the set-up, and 64 untimed batches then
fill the latency rings and score quality (see :func:`warm_up`).  The
end drills kill a worker
with SIGKILL and time ``failover()`` (lease takeover, segment load and
WAL replay), close the cluster (drain), and start it again on the same
stores (recovery).
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

from checks import Quality, Tracked, compare
from datagen import PERIOD, Fleet, waves
from measure import MIN_SAMPLES, SAMPLE_KEYS, WAVES, Run, default_spec, drill_reps
from measure import by_quarter, median, percentile_ms, quarters, setup_seconds
from measure import timed, vm_hwm_mb

SHARDED_SERIES = 1000
WORKERS = 2
ROUNDS = 16
#: batches ingested after a checkpoint before each drill, so every
#: failover replays the same WAL tail
TAIL_BATCHES = 4
#: a read through the router costs about four window batches (every
#: worker summarises its half of the fleet, and the answers are pickled
#: back), so it follows every ``READ_EVERY``-th batch only
READ_EVERY = 4
#: untimed batches before the window (see :func:`warm_up`)
WARM_BATCHES = 64


def window_metrics(run: Run, points, seconds, traced, reads) -> dict[str, float]:
    """Window timings, each the median of its quarters (see ``quarters``)."""
    seconds = np.asarray(seconds)
    traced = np.asarray(traced, dtype=bool)
    batches = (quarters(points), quarters(seconds))
    metrics = {
        "ingest_pts_per_s": by_quarter(lambda p, s: np.sum(p) / np.sum(s), *batches),
        "ingest_ms_p50": by_quarter(lambda s: percentile_ms(s, 50), quarters(seconds)),
        "ingest_ms_p90": by_quarter(lambda s: percentile_ms(s, 90), quarters(seconds)),
        "query_ms_p50": by_quarter(lambda r: percentile_ms(r, 50), quarters(reads)),
    }
    run.notes.append(
        f"whole window: ingest_pts_per_s {np.sum(points) / np.sum(seconds):.1f}, "
        f"ingest_ms_p50 {percentile_ms(seconds, 50):.3f}, ingest_ms_p90 "
        f"{percentile_ms(seconds, 90):.3f}, query_ms_p50 {percentile_ms(reads, 50):.3f}"
    )
    if run.tracer is not None and traced.any() and (~traced).any():
        run.notes.append(
            "tracing overhead (recorded vs unrecorded window ops): "
            f"ingest_ms_p50 {percentile_ms(seconds[traced], 50):.3f} vs "
            f"{percentile_ms(seconds[~traced], 50):.3f}, ingest_ms_p90 "
            f"{percentile_ms(seconds[traced], 90):.3f} vs "
            f"{percentile_ms(seconds[~traced], 90):.3f}"
        )
        run.overhead_pct = 100.0 * (
            percentile_ms(seconds[traced], 50) / percentile_ms(seconds[~traced], 50)
            - 1.0
        )
    return metrics


class Cluster(Tracked):
    """The router under test (see :class:`checks.Tracked`)."""

    def __init__(self, run: Run, fleet: Fleet, sample_columns):
        from repro.sharding import ClusterSpec

        super().__init__(default_spec(), fleet.keys, sample_columns)
        self.run = run
        self.fleet = fleet
        self.spec = ClusterSpec.for_root(default_spec(), run.workdir / "cluster", WORKERS)
        self.router = None

    def start(self):
        from repro.sharding import ShardRouter

        self.router = ShardRouter(self.spec)
        self.run.cleanups.append(self.router.close)
        return self.router

    def ingest(self, phase: str, values, columns=None):
        columns = list(range(len(self.keys))) if columns is None else list(columns)
        keys = [self.keys[column] for column in columns]
        self.sent(columns, values)
        seconds, result = timed(self.run.op, phase, self.router.ingest_grid, keys, values)
        self.captured_grid(result, columns, self.t)
        return seconds, result

    def tail(self, phase: str) -> None:
        for _ in range(TAIL_BATCHES):
            self.ingest(phase, self.fleet.rows(self.t, self.t + ROUNDS).values)
            self.t += ROUNDS

    def check_points(self, phase: str) -> None:
        stats = self.router.stats()
        expected = self.t * len(self.keys)
        self.run.check(
            phase,
            stats.points_total == expected and stats.series_live == len(self.keys),
            f"cluster holds {stats.points_total} points, {expected} were sent",
        )

    def peak_rss_mb(self) -> float:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pids = [health.pid for health in self.router.health().values()]
        return own + sum(vm_hwm_mb(pid) for pid in pids if pid)


def warm_up(cluster: Cluster) -> Quality:
    """Ingest ``WARM_BATCHES`` untimed batches; score quality on them.

    They fill every series' 1024-point latency ring (``track_latency``),
    so window reads summarise full rings from the first one on.  Quality
    is scored here, on a fixed number of batches (a function of the seed
    alone), so the timed window holds nothing but its ingests and reads:
    scoring between timed calls made the router's calls about 20% slower.
    """
    quality = Quality()
    for _ in range(WARM_BATCHES):
        rows = cluster.fleet.rows(cluster.t, cluster.t + ROUNDS)
        _, result = cluster.ingest("warm", rows.values)
        cluster.t += ROUNDS
        quality.add(
            result.is_anomaly, rows.spikes, result.trend, result.seasonal,
            rows.trend, rows.seasonal,
        )
    return quality


def sharded_fanout(run: Run) -> dict[str, float]:
    fleet = Fleet(run.seed, SHARDED_SERIES, spike_every=ROUNDS)
    rng = np.random.default_rng([run.seed, 0x5A2D])
    sample = sorted(rng.choice(SHARDED_SERIES, SAMPLE_KEYS, replace=False).tolist())
    cluster = Cluster(run, fleet, sample)
    run.record_all()

    # ---- set-up: fork the workers, bring the fleet up in waves, checkpoint
    create_s, _ = timed(run.op, "setup", cluster.start)
    warm = fleet.warmup()
    wave_s = []
    for wave in waves(SHARDED_SERIES, WAVES):
        seconds, _ = cluster.ingest("setup", warm.values[:, wave], range(wave.start, wave.stop))
        wave_s.append(seconds)
    cluster.t = warm.values.shape[0]
    run.op("setup", cluster.router.checkpoint)
    cluster.check_points("setup")

    quality = warm_up(cluster)

    # ---- the closed-loop window
    seconds, points, traced, reads = [], [], [], []
    deadline = time.perf_counter() + run.seconds
    index = 0
    while index < MIN_SAMPLES or time.perf_counter() < deadline:
        rows = fleet.rows(cluster.t, cluster.t + ROUNDS)
        traced.append(run.record_window(index))
        elapsed, _ = cluster.ingest("ingest", rows.values)
        cluster.t += ROUNDS
        seconds.append(elapsed)
        points.append(rows.values.size)
        if index % READ_EVERY == READ_EVERY - 1:
            run.record_all()
            reads.append(timed(run.op, "query", cluster.router.stats)[0])
        index += 1
    run.record_all()
    metrics = window_metrics(run, points, seconds, traced, reads)
    metrics["anomaly_f1"] = quality.f1()
    metrics["decomp_rmse"] = quality.rmse()

    metrics["peak_rss_mb"] = cluster.peak_rss_mb()

    # ---- drain (close: every worker checkpoints and exits), then restart.
    # First, because a SIGKILLed worker takes its unwritten spans with it:
    # closing first lets the window's workers write theirs.
    drain, recovery = [], []
    for rep in range(drill_reps(run)):
        cluster.tail("tail")
        elapsed, _ = timed(run.op, "drain", cluster.router.close)
        drain.append(elapsed)
        elapsed, _ = timed(run.op, "recover", cluster.start)
        recovery.append(elapsed)
        cluster.check_points("recover")
    metrics["drain_s"] = median(drain)
    metrics["recovery_s"] = median(recovery)

    # ---- failover: checkpoint, WAL tail, SIGKILL a worker, fail it over
    failover = []
    shard_ids = list(cluster.router.shard_ids)
    for rep in range(drill_reps(run)):
        run.op("end", cluster.router.checkpoint)
        cluster.tail("tail")
        shard = shard_ids[rep % len(shard_ids)]
        pid = cluster.router.health()[shard].pid
        killed = time.perf_counter()
        os.kill(pid, signal.SIGKILL)
        run.op("failover", cluster.router.failover, shard)
        failover.append(time.perf_counter() - killed)
        cluster.check_points("failover")
    metrics["failover_s"] = median(failover)
    metrics["setup_s"] = setup_seconds(run, create_s, wave_s)

    # ---- correctness: sample keys against the scalar twin
    outputs = cluster.twin.replay()
    problems = compare(cluster.capture, outputs)
    for key in cluster.twin.keys:
        ours = cluster.router.forecast(key, PERIOD)
        if not np.array_equal(ours, cluster.twin.forecast(key, PERIOD)):
            problems.append(f"{key}: forecast differs from the scalar twin")
    run.check("verify", not problems, "; ".join(problems[:3]))
    run.op("end", cluster.router.close)
    return metrics
