"""Per-layer numbers and the closing ledger, computed from recorded spans.

A span's *self time* is its duration minus the time its child spans
cover.  Spans of one process nest through their parent ids.  Spans of
another process -- the server, or a shard worker -- are attached to
the benchmark process's span whose interval contains them (the latest
starting one, which is the deepest).  When several remote roots run
inside one local span (shard workers in parallel), only the longest is
on the critical path: its subtree enters the ledger, and the local span
keeps the rest of its own time as self time (pickling, pipe transfer,
waiting for the slowest worker).  The other workers' time is still
reported per layer but does not enter the ledger, which adds up wall
time, not CPU time.

The ledger closes when the self times of every layer except the
benchmark's own root operations add up to the wall time of those root
operations within :data:`CLOSURE_TOLERANCE`.
"""

from __future__ import annotations

from collections import defaultdict

from spans import END, ID, NAME, PARENT, START, VALUE

CLOSURE_TOLERANCE = 0.10

#: span-name prefix -> ledger layer, first match wins
_LAYERS = (
    ("bench.", "bench"),
    ("engine.", "engine"),
    ("durability.", "durability"),
    ("fleet.scorer", "fleet.scorer"),
    ("fleet.", "fleet"),
    ("batched_ldlt.", "batched_ldlt"),
    ("oneshotstl.", "oneshotstl"),
    ("serving.protocol.", "serving.protocol"),
    ("serving.app.lock_wait", "serving.app.lock_wait"),
    ("serving.app.", "serving.app"),
    ("sharding.", "sharding"),
)

#: root operations of the timed window
WINDOW_ROOTS = ("bench.ingest", "bench.request")


def layer_of(name: str) -> str:
    for prefix, layer in _LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


class _Span:
    __slots__ = (
        "name", "start", "end", "value", "parent", "children_s",
        "remote", "remote_s", "phase", "local", "critical", "role",
    )

    def __init__(self, raw: list, local: bool, role: str):
        self.name = raw[NAME]
        self.start = raw[START]
        self.end = raw[END]
        self.value = raw[VALUE]
        self.parent: _Span | None = None
        self.children_s = 0.0
        self.remote: list[_Span] = []
        self.remote_s = 0.0
        self.phase = ""
        self.local = local
        self.critical = False
        #: the process that recorded it: client, server or worker
        self.role = role

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s - self.remote_s


def _link(dump: dict, local: bool) -> list[_Span]:
    by_id = {}
    spans = []
    for raw in dump["spans"]:
        span = _Span(raw, local, dump["role"])
        by_id[raw[ID]] = (span, raw[PARENT])
        spans.append(span)
    for span, parent_id in by_id.values():
        if parent_id >= 0 and parent_id in by_id:
            span.parent = by_id[parent_id][0]
            span.parent.children_s += span.duration
    return spans


def _root(span: _Span) -> _Span:
    while span.parent is not None:
        span = span.parent
    return span


class Analysis:
    """Spans of every process of one traced run, linked and phased."""

    def __init__(self, local_dump: dict, remote_dumps: list[dict]):
        self.local = _link(local_dump, local=True)
        self.remote = [span for dump in remote_dumps for span in _link(dump, False)]
        self.counts: dict[str, float] = defaultdict(float)
        for dump in [local_dump, *remote_dumps]:
            for name, amount in dump["counts"].items():
                self.counts[name] += amount
        for span in self.local:
            span.phase = _root(span).name
        self._attach_remote_roots()
        self._by_name: dict[str, list[_Span]] = defaultdict(list)
        for span in self.local + self.remote:
            self._by_name[span.name].append(span)
        for span in self.remote:
            if span.parent is not None:
                span.phase = _root(span).phase

    def _attach_remote_roots(self) -> None:
        hosts = sorted(
            (
                span
                for span in self.local
                if span.parent is None or span.name.startswith("sharding.")
            ),
            key=lambda span: span.start,
        )
        roots = [span for span in self.remote if span.parent is None]
        for root in roots:
            host = None
            for candidate in hosts:
                if candidate.start > root.start:
                    break
                if candidate.end >= root.end:
                    host = candidate
            if host is None:
                root.phase = "unattached"
                continue
            host.remote.append(root)
            root.phase = host.phase
        for host in self.local:
            if host.remote:
                critical = max(host.remote, key=lambda span: span.duration)
                critical.critical = True
                host.remote_s = critical.duration
        self._critical_roots = {id(root) for root in roots if root.critical}

    # ------------------------------------------------------------ queries

    def spans(self, prefix: str, window: bool | None = True):
        """Spans named ``prefix`` or ``prefix.*``.

        ``window``: True for the timed window only, False for everything
        else (set-up and end phases), None for the whole run.
        """
        for name, spans in self._by_name.items():
            if name != prefix and not name.startswith(prefix + "."):
                continue
            for span in spans:
                if window is None or window == span.phase.startswith(WINDOW_ROOTS):
                    yield span

    def total(self, prefix: str, window: bool | None = True) -> float:
        return sum(span.duration for span in self.spans(prefix, window))

    def self_total(self, prefix: str, window: bool | None = True) -> float:
        return sum(span.self_s for span in self.spans(prefix, window))

    def calls(self, prefix: str, window: bool | None = True) -> int:
        return sum(1 for _ in self.spans(prefix, window))

    def value(self, prefix: str, window: bool | None = True) -> float:
        return sum(span.value for span in self.spans(prefix, window))

    def outermost(self, prefix: str, family: str) -> list[_Span]:
        """Window spans of ``prefix`` not nested in a span of ``family``.

        The kernel's blocked path falls back to its per-round path, and the
        blocked scorer to its per-round scorer: counting the nested call
        too would count the same cells twice.
        """
        return [
            span
            for span in self.spans(prefix)
            if span.parent is None or not span.parent.name.startswith(family)
        ]

    def entry_calls(self, prefix: str) -> list[_Span]:
        """Window calls into ``prefix`` made from outside the engine."""
        return [
            span
            for span in self.spans(prefix)
            if span.parent is None or not span.parent.name.startswith("engine.")
        ]

    def _in_critical_tree(self, span: _Span) -> bool:
        if span.local:
            return True
        return id(_root(span)) in self._critical_roots

    def ledger(self) -> tuple[float, dict[str, float]]:
        """(wall time of root operations, self time per layer)."""
        wall = sum(span.duration for span in self.local if span.parent is None)
        layers: dict[str, float] = defaultdict(float)
        for span in self.local + self.remote:
            if not self._in_critical_tree(span):
                continue
            layers[self._ledger_layer(span)] += span.self_s
        return wall, dict(layers)

    @staticmethod
    def _ledger_layer(span: _Span) -> str:
        layer = layer_of(span.name)
        if layer == "bench" and span.remote:
            # time the remote process did not cover: for the server that
            # is HTTP and sockets, or its start-up before it can serve
            served = span.remote[0].role == "server"
            return "serving.server" if served else "sharding"
        return layer

    def unattributed(self) -> dict[str, float]:
        """Self time of the benchmark's own root operations, by phase."""
        phases: dict[str, float] = defaultdict(float)
        for span in self.local:
            if span.parent is None and self._ledger_layer(span) == "bench":
                phases[span.name] += span.self_s
        return dict(phases)


def _inside(span, prefix: str) -> bool:
    """Whether an ancestor of ``span`` is named ``prefix...``."""
    parent = span.parent
    while parent is not None:
        if parent.name.startswith(prefix):
            return True
        parent = parent.parent
    return False


def layer_metrics(analysis: Analysis) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` (zero where unused)."""
    a = analysis
    kernel_calls = a.calls("fleet.update_block") + a.calls("fleet.update")
    kernel_cells = sum(
        span.value
        for name in ("fleet.update_block", "fleet.update")
        for span in a.outermost(name, "fleet.update")
    )
    entries = a.entry_calls("engine.ingest") + a.entry_calls("engine.process")
    entry_points = sum(span.value for span in entries)
    fallback = sum(
        1 for span in a.spans("oneshotstl.update") if _inside(span, "engine.ingest")
    )
    handles = list(a.spans("serving.app.handle"))
    requests = [span for span in a.spans("bench.request") if span.remote]
    router = list(a.spans("sharding.router.ingest"))
    worker_engine = [root for span in router for root in span.remote]
    wall, layers = a.ledger()
    layer_sum = sum(seconds for name, seconds in layers.items() if name != "bench")
    return {
        "batched_ldlt.extend_solve_calls": a.calls("batched_ldlt.extend_solve"),
        "batched_ldlt.extend_solve_s": a.total("batched_ldlt.extend_solve"),
        "fleet.update_block_calls": a.calls("fleet.update_block"),
        "fleet.update_calls": a.calls("fleet.update"),
        "fleet.cells_per_call": (
            a.value("fleet.update_block") + a.value("fleet.update")
        ) / kernel_calls if kernel_calls else 0.0,
        "fleet.self_s": a.self_total("fleet.update_block") + a.self_total("fleet.update"),
        "fleet.scorer_s": sum(
            span.duration for span in a.outermost("fleet.scorer", "fleet.scorer")
        ),
        "oneshotstl.initialize_calls": a.calls("oneshotstl.initialize", None),
        "oneshotstl.initialize_s": a.total("oneshotstl.initialize", None),
        "oneshotstl.update_calls": a.calls("oneshotstl.update"),
        "oneshotstl.update_s": a.total("oneshotstl.update"),
        "oneshotstl.shift_search_calls": a.calls("oneshotstl.shift_search"),
        "oneshotstl.shift_search_s": a.total("oneshotstl.shift_search"),
        "engine.self_s": a.self_total("engine"),
        "engine.grid_calls": sum(1 for s in entries if s.name == "engine.ingest.grid"),
        "engine.dict_calls": sum(1 for s in entries if s.name == "engine.ingest.dict"),
        "engine.rows_calls": sum(1 for s in entries if s.name == "engine.ingest.rows"),
        "engine.arrays_calls": sum(
            1 for s in entries if s.name == "engine.ingest.arrays"
        ),
        "engine.process_calls": sum(1 for s in entries if s.name == "engine.process"),
        "engine.fallback_points": fallback,
        "engine.kernel_point_share": kernel_cells / entry_points if entry_points else 0.0,
        "durability.wal_appends": a.calls("durability.wal_append")
        + a.counts.get("durability.wal_group_extra", 0.0),
        "durability.wal_bytes": a.value("durability.wal_append"),
        "durability.wal_s": a.total("durability.wal_append"),
        "durability.segments_written": a.calls("durability.write_segment", None),
        "durability.segment_bytes": a.value("durability.write_segment", None),
        "durability.checkpoint_s": a.total("durability.checkpoint", None),
        "durability.recover_s": a.total("durability.open", None),
        "durability.replayed_records": a.counts.get("durability.replayed_records", 0.0),
        "serving.protocol.decode_s": a.total("serving.protocol.decode"),
        "serving.protocol.encode_s": a.total("serving.protocol.encode"),
        "serving.protocol.request_bytes": a.value("serving.protocol.decode"),
        "serving.protocol.response_bytes": a.value("serving.protocol.encode"),
        "serving.app.ingest_handle_s": a.total("serving.app.handle.ingest"),
        "serving.app.query_handle_s": a.total("serving.app.handle.query"),
        "serving.app.lock_wait_s": a.total("serving.app.lock_wait"),
        "serving.app.rejected_503": sum(1 for s in handles if s.value == 503),
        "serving.server.overhead_s": sum(s.self_s for s in requests),
        "sharding.router_s": sum(s.duration for s in router),
        "sharding.worker_engine_s": sum(s.duration for s in worker_engine),
        "sharding.ipc_s": sum(s.self_s for s in router),
        "sharding.payload_bytes": a.counts.get("sharding.payload_bytes", 0.0),
        "sharding.retries": a.counts.get("sharding.retries", 0.0),
        "sharding.failovers": a.calls("sharding.router.failover", None),
        "ledger.wall_s": wall,
        "ledger.layer_sum_s": layer_sum,
        "ledger.closure": layer_sum / wall if wall else 0.0,
    }
