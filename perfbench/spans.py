"""Spans for the traced run, recorded from the benchmark's side only.

The program is not instrumented.  :func:`install_layers` wraps the public
calls at each layer boundary -- class methods and module functions of
``repro`` -- and :meth:`Patches.restore` puts every original callable
back.  A wrapper records a span (name, start, end, parent) in memory;
spans are written out once, at the end, by the process that recorded
them.

Whether a call is recorded is decided at the root of each call stack: a
root call records when the shared trace flag is set, and a nested call
records exactly when its parent did.  The flag is one byte of a
memory-mapped file in the run directory, so the server subprocess and
forked shard workers see the benchmark flip it between operations.
That is how one traced run alternates recorded and unrecorded
operations and reports its own tracing overhead.

Clock: ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, one clock
for every process on the host, so spans from the server and the workers
line up with the client's.
"""

from __future__ import annotations

import functools
import itertools
import json
import mmap
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

# span fields
ID, NAME, START, END, PARENT, VALUE = range(6)

#: placeholder pushed for an unrecorded root, so its callees stay silent
_SILENT = None


class Tracer:
    """In-memory span recorder gated by a shared one-byte flag."""

    def __init__(self, flag_path: Path):
        self.flag_path = Path(flag_path)
        fd = os.open(self.flag_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            if os.fstat(fd).st_size < 1:
                os.ftruncate(fd, 1)
            self._flag = mmap.mmap(fd, 1)
        finally:
            os.close(fd)
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()

    # ------------------------------------------------------------ flag

    @property
    def recording(self) -> bool:
        return self._flag[0] == 1

    def set_recording(self, on: bool) -> None:
        self._flag[0] = 1 if on else 0

    def close(self) -> None:
        self._flag.close()

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        """Whether work happening now belongs to a recorded span."""
        stack = self._stack()
        if stack:
            return stack[-1] is not _SILENT
        return self.recording

    def call(self, name: str, fn, args, kwargs, measure=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
            if parent is _SILENT:
                return fn(*args, **kwargs)
            parent_id = parent[ID]
        elif self.recording:
            parent_id = -1
        else:
            stack.append(_SILENT)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        span = [next(self._ids), name, 0.0, 0.0, parent_id, 0.0]
        stack.append(span)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if measure is not None:
            span[VALUE] = float(measure(args, kwargs, result))
        return result

    def span(self, name: str, fn, *args, **kwargs):
        """Record a benchmark operation as a root span (see :meth:`call`)."""
        return self.call(name, fn, args, kwargs)

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.active():
            self.counts[name] += amount

    # ------------------------------------------------------- processes

    def reset_after_fork(self) -> None:
        """Forget what the parent recorded (a forked child starts empty)."""
        self.spans = []
        self.counts = defaultdict(float)
        self._local = threading.local()

    def dump(self, path: Path, role: str) -> None:
        """Write this process's spans and counts (once, at its end)."""
        payload = {
            "pid": os.getpid(),
            "role": role,
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        tmp = Path(f"{path}.tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)


def load_dumps(directory: Path) -> list[dict]:
    """Every span file written under ``directory`` (one per process)."""
    dumps = []
    for path in sorted(Path(directory).glob("spans-*.json")):
        dumps.append(json.loads(path.read_text(encoding="utf-8")))
    return dumps


# ----------------------------------------------------------------- patching


class Patches:
    """Installed wrappers, restorable in reverse order."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper."""
        raw = vars(owner)[attr]
        tracer = self.tracer
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind is not None else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, measure)

        self._saved.append((owner, attr, raw))
        setattr(owner, attr, kind(traced) if kind is not None else traced)

    def replace(self, owner, attr: str, replacement) -> None:
        """Install a hand-written replacement for ``owner.attr``."""
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class _TimedLock:
    """A lock whose acquisition wait is a span (the backend-lock wait)."""

    def __init__(self, lock, tracer: Tracer):
        self._lock = lock
        self._tracer = tracer

    def acquire(self, *args, **kwargs):
        return self._tracer.call(
            "serving.app.lock_wait", self._lock.acquire, args, kwargs
        )

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()


def _size(position: int):
    return lambda args, kwargs, result: np_size(args[position])


def np_size(value) -> int:
    size = getattr(value, "size", None)
    return int(size) if size is not None else len(value)


def _ingest_points(args, kwargs, result) -> int:
    batch = args[1]
    if isinstance(batch, dict):
        return sum(np_size(values) for values in batch.values())
    if isinstance(batch, tuple) and len(batch) == 2 and hasattr(batch[1], "size"):
        return int(batch[1].size)
    return len(batch)


def _ingest_kind(batch) -> str:
    if isinstance(batch, dict):
        return "dict"
    if isinstance(batch, tuple) and len(batch) == 2 and hasattr(batch[1], "size"):
        return "arrays"
    return "rows"


def install_layers(tracer: Tracer) -> Patches:
    """Wrap every layer boundary the ledger attributes time to."""
    from repro.core import fleet as fleet_module
    from repro.core import oneshotstl as oneshotstl_module
    from repro.core.fleet import ColumnarNSigma, FleetKernel
    from repro.core.oneshotstl import OneShotSTL
    from repro.durability import DirectoryCheckpointStore
    from repro.faults import RetryPolicy
    from repro.serving import app as serving_app
    from repro.sharding import router as sharding_router
    from repro.solvers.batched_ldlt import BatchedIncrementalLDLT
    from repro.streaming.engine import MultiSeriesEngine
    import multiprocessing.connection as mp_connection

    patches = Patches(tracer)
    wrap = patches.wrap

    wrap(BatchedIncrementalLDLT, "extend_solve", "batched_ldlt.extend_solve")
    wrap(FleetKernel, "update_block", "fleet.update_block", _size(1))
    wrap(FleetKernel, "update", "fleet.update", _size(1))
    wrap(ColumnarNSigma, "update_block", "fleet.scorer", _size(1))
    wrap(ColumnarNSigma, "update", "fleet.scorer", _size(1))
    wrap(OneShotSTL, "initialize", "oneshotstl.initialize")
    wrap(OneShotSTL, "update", "oneshotstl.update")
    # the seasonality-shift search, as the scalar model and the fleet
    # kernel's per-series fallback each import it
    wrap(oneshotstl_module, "_search_best_shift", "oneshotstl.shift_search")
    wrap(fleet_module, "_search_best_shift", "oneshotstl.shift_search")

    original_ingest = vars(MultiSeriesEngine)["ingest"]

    def ingest(self, batch, *args, **kwargs):
        return tracer.call(
            f"engine.ingest.{_ingest_kind(batch)}",
            original_ingest,
            (self, batch) + args,
            kwargs,
            _ingest_points,
        )

    patches.replace(MultiSeriesEngine, "ingest", functools.wraps(original_ingest)(ingest))
    wrap(MultiSeriesEngine, "ingest_grid", "engine.ingest.grid", _size(2))
    wrap(MultiSeriesEngine, "process", "engine.process", lambda a, k, r: 1)
    wrap(MultiSeriesEngine, "fleet_stats", "engine.read")
    wrap(MultiSeriesEngine, "forecast", "engine.read")
    wrap(MultiSeriesEngine, "open", "durability.open")
    wrap(MultiSeriesEngine, "checkpoint", "durability.checkpoint")
    wrap(MultiSeriesEngine, "close", "durability.close")
    wrap(
        DirectoryCheckpointStore,
        "wal_append",
        "durability.wal_append",
        lambda a, k, r: len(a[1]),
    )
    original_append_many = vars(DirectoryCheckpointStore)["wal_append_many"]

    def wal_append_many(self, records):
        # one span per group commit; the span counts bytes, the count
        # below counts the records it carried beyond the first
        tracer.count("durability.wal_group_extra", max(len(records) - 1, 0))
        return tracer.call(
            "durability.wal_append",
            original_append_many,
            (self, records),
            {},
            lambda a, k, r: sum(len(record) for record in records),
        )

    patches.replace(
        DirectoryCheckpointStore,
        "wal_append_many",
        functools.wraps(original_append_many)(wal_append_many),
    )
    wrap(
        DirectoryCheckpointStore,
        "write_segment",
        "durability.write_segment",
        lambda a, k, r: len(a[2]),
    )
    # replay reads the WAL through wal_records (strict recovery) or
    # wal_frames (truncate / quarantine: the shard workers' default)
    for reader in ("wal_records", "wal_frames"):
        original_reader = vars(DirectoryCheckpointStore)[reader]

        def counted(self, name, _original=original_reader):
            for frame in _original(self, name):
                tracer.count("durability.replayed_records")
                yield frame

        patches.replace(
            DirectoryCheckpointStore, reader, functools.wraps(original_reader)(counted)
        )

    # serving: the codec names as serving.app imported them
    wrap(
        serving_app,
        "decode_grid",
        "serving.protocol.decode",
        lambda a, k, r: len(a[0]),
    )
    wrap(
        serving_app,
        "encode_summary",
        "serving.protocol.encode",
        lambda a, k, r: len(r),
    )
    original_handle = vars(serving_app.ServingApp)["handle"]

    def handle(self, request):
        kind = "ingest" if request.path.rstrip("/").endswith("ingest") else "query"
        return tracer.call(
            f"serving.app.handle.{kind}",
            original_handle,
            (self, request),
            {},
            lambda a, k, response: response.status,
        )

    patches.replace(serving_app.ServingApp, "handle", handle)
    original_app_init = vars(serving_app.ServingApp)["__init__"]

    def app_init(self, *args, **kwargs):
        original_app_init(self, *args, **kwargs)
        self._backend_lock = _TimedLock(self._backend_lock, tracer)

    patches.replace(serving_app.ServingApp, "__init__", app_init)

    # sharding: router entry points, pipe bytes, retries, worker spans
    wrap(sharding_router.ShardRouter, "ingest_grid", "sharding.router.ingest")
    wrap(sharding_router.ShardRouter, "failover", "sharding.router.failover")
    wrap(sharding_router.ShardRouter, "checkpoint", "sharding.router.checkpoint")
    wrap(sharding_router.ShardRouter, "stats", "sharding.router.read")
    original_send = vars(mp_connection.Connection)["_send_bytes"]

    def send_bytes(self, buf):
        tracer.count("sharding.payload_bytes", len(buf))
        return original_send(self, buf)

    patches.replace(mp_connection.Connection, "_send_bytes", send_bytes)
    original_delays = vars(RetryPolicy)["delays"]

    def delays(self):
        for pause in original_delays(self):
            tracer.count("sharding.retries")
            yield pause

    patches.replace(RetryPolicy, "delays", delays)
    original_worker_main = vars(sharding_router)["worker_main"]
    span_dir = tracer.flag_path.parent

    def worker_main(*args, **kwargs):
        # Runs in the forked worker: forked children skip atexit, so the
        # worker writes its own spans when its command loop returns.
        tracer.reset_after_fork()
        try:
            return original_worker_main(*args, **kwargs)
        finally:
            tracer.dump(span_dir / f"spans-{os.getpid()}.json", "worker")

    patches.replace(sharding_router, "worker_main", worker_main)
    return patches
