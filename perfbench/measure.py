"""Run context shared by the workloads: timing, outcomes, tracing."""

from __future__ import annotations

import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from datagen import PERIOD

#: fewest timed ingest operations in one run (the p90 keeps ten beyond it)
MIN_SAMPLES = 100
#: the fleet arrives in this many waves, each a cold start of its share
WAVES = 4
#: a window's timings are taken per quarter (see :func:`quarters`)
QUARTERS = 4
#: keys whose every output is compared with the scalar twin
SAMPLE_KEYS = 3
#: end drills: a traced run repeats each and reports its median as a
#: per-layer number; an untraced run does each once, for its checks
REPS = 5


@dataclass
class Counts:
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0


class Failed(Exception):
    """An operation failed; already counted and reported."""


@dataclass
class Run:
    """One benchmark run: its inputs, its outcomes and its tracer."""

    workload: str
    seed: int
    seconds: float
    workdir: Path
    tracer: object | None = None
    phases: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    #: traced run: recorded vs unrecorded window ops, median latency, in %
    overhead_pct: float = 0.0
    #: open loop only: how late the generator sent, 90th percentile
    lateness_ms_p90: float = 0.0
    #: outcome counters are shared by the client threads of an open loop
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: stops whatever the workload started, however the run ends
    cleanups: list = field(default_factory=list)

    # ------------------------------------------------------------ outcomes

    def _tally(self, phase: str, outcome: str, problem: str | None = None) -> None:
        with self._lock:
            counts = self.phases.setdefault(phase, Counts())
            setattr(counts, outcome, getattr(counts, outcome) + 1)
            if problem is not None:
                self.problems.append(f"{phase}: {problem}")

    def op(self, phase: str, fn, *args, **kwargs):
        """Run one operation of ``phase``; unexpected exceptions count as failed."""
        self._tally(phase, "attempted")
        try:
            result = self.traced(phase, fn, *args, **kwargs)
        except Exception as error:  # noqa: BLE001 -- counted, reported, re-raised
            self._tally(phase, "failed", f"{type(error).__name__}: {error}")
            traceback.print_exc(file=sys.stderr)
            raise Failed(phase) from error
        self._tally(phase, "succeeded")
        return result

    def check(self, phase: str, ok: bool, message: str) -> None:
        """A correctness check: one attempted operation, failed on mismatch."""
        self._tally(phase, "attempted")
        if ok:
            self._tally(phase, "succeeded")
        else:
            self._tally(phase, "failed", message)

    def traced(self, phase: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(f"bench.{phase}", fn, *args, **kwargs)

    def record_window(self, index: int) -> bool:
        """In a traced run, record every other window operation.

        The unrecorded half gives the same run's untraced timings, so the
        run reports its own tracing overhead.  Returns whether operation
        ``index`` is recorded.
        """
        if self.tracer is None:
            return False
        on = index % 2 == 0
        self.tracer.set_recording(on)
        return on

    def record_all(self) -> None:
        if self.tracer is not None:
            self.tracer.set_recording(True)

    @property
    def attempted(self) -> int:
        return sum(counts.attempted for counts in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(counts.failed for counts in self.phases.values())

    def outcome_lines(self) -> list[str]:
        lines = []
        for phase, counts in self.phases.items():
            lines.append(
                f"  {phase:<22} attempted {counts.attempted:>6}  succeeded "
                f"{counts.succeeded:>6}  failed {counts.failed:>3}"
            )
        return lines


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def percentile_ms(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q) * 1e3)


def median(samples) -> float:
    return float(statistics.median(samples))


def quarters(*series) -> list[np.ndarray]:
    """A timed window cut into ``QUARTERS`` consecutive parts.

    Each of ``series`` (one per connection, each in time order) is cut
    into ``QUARTERS`` parts, and quarter ``k`` pools part ``k`` of every
    series.  The workloads report the median of a timing's value over
    the quarters: another tenant of the shared host slows a vCPU by up
    to 1.7x in bursts of a few to about 30 seconds, and a burst over a
    tenth of the window alone would set a whole-window 90th percentile.
    The median resists a burst within fewer than half of the quarters,
    while whatever the program does throughout the window shows in every
    quarter.  Whole-window values are printed as a note.
    """
    split = [np.array_split(np.asarray(v, dtype=float), QUARTERS) for v in series]
    return [np.concatenate([parts[k] for parts in split]) for k in range(QUARTERS)]


def by_quarter(statistic, *quartered) -> float:
    """Median over the quarters of ``statistic(*parts of quarter k)``."""
    return median([statistic(*parts) for parts in zip(*quartered)])


def setup_seconds(run: Run, create_s: float, wave_s: list[float]) -> float:
    """Set-up time: the median of the run's arrival waves, in seconds.

    The fleet comes up in waves, and each wave is a cold start of its
    share of the fleet: timed from its first observation until its series
    are live and absorbed into the kernel.  Creation, every wave and the
    whole cold start are printed as a note.
    """
    run.notes.append(
        f"setup (s): create {create_s:.4f}; waves "
        + " ".join(f"{seconds:.4f}" for seconds in wave_s)
        + f"; total {create_s + sum(wave_s):.4f}"
    )
    return median(wave_s)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of process ``pid`` in MB (``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def default_spec():
    """The engine's default OneShotSTL spec at the generator's period."""
    from repro.streaming.engine import MultiSeriesEngine

    return MultiSeriesEngine.for_oneshotstl(PERIOD).spec


def drill_reps(run: Run) -> int:
    """How many times this run repeats each end drill."""
    return REPS if run.tracer is not None else 1
