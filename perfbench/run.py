"""One benchmark for the whole stack.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload sharded-fanout --seed 1 --seconds 40 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload with spans recorded at every layer boundary and prints the
per-layer metrics, the ledger and the tracing overhead instead.  The
last line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Workloads and
metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "ingest_pts_per_s": "1/s",
    "ingest_ms_p50": "ms",
    "ingest_ms_p90": "ms",
    "query_ms_p50": "ms",
    "anomaly_f1": "ratio",
    "decomp_rmse": "value",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "batched_ldlt.extend_solve_calls": "count",
    "batched_ldlt.extend_solve_s": "s",
    "fleet.update_block_calls": "count",
    "fleet.update_calls": "count",
    "fleet.cells_per_call": "count",
    "fleet.self_s": "s",
    "fleet.scorer_s": "s",
    "oneshotstl.initialize_calls": "count",
    "oneshotstl.initialize_s": "s",
    "oneshotstl.update_calls": "count",
    "oneshotstl.update_s": "s",
    "oneshotstl.shift_search_calls": "count",
    "oneshotstl.shift_search_s": "s",
    "engine.self_s": "s",
    "engine.grid_calls": "count",
    "engine.dict_calls": "count",
    "engine.rows_calls": "count",
    "engine.arrays_calls": "count",
    "engine.process_calls": "count",
    "engine.fallback_points": "count",
    "engine.kernel_point_share": "ratio",
    "durability.wal_appends": "count",
    "durability.wal_bytes": "bytes",
    "durability.wal_s": "s",
    "durability.segments_written": "count",
    "durability.segment_bytes": "bytes",
    "durability.checkpoint_s": "s",
    "durability.recover_s": "s",
    "durability.replayed_records": "count",
    "serving.protocol.decode_s": "s",
    "serving.protocol.encode_s": "s",
    "serving.protocol.request_bytes": "bytes",
    "serving.protocol.response_bytes": "bytes",
    "serving.app.ingest_handle_s": "s",
    "serving.app.query_handle_s": "s",
    "serving.app.lock_wait_s": "s",
    "serving.app.rejected_503": "count",
    "serving.server.overhead_s": "s",
    "sharding.router_s": "s",
    "sharding.worker_engine_s": "s",
    "sharding.ipc_s": "s",
    "sharding.payload_bytes": "bytes",
    "sharding.retries": "count",
    "sharding.failovers": "count",
    "served.lateness_ms_p90": "ms",
    "drills.recovery_s": "s",
    "drills.drain_s": "s",
    "drills.failover_s": "s",
    "ledger.wall_s": "s",
    "ledger.layer_sum_s": "s",
    "ledger.closure": "ratio",
    "trace.overhead_pct": "%",
}

#: the end drills' medians (a workload returns them as ``recovery_s`` etc.):
#: single events, too few per run to repeat within a bound on a shared
#: host, so they are reported with the traced run's per-layer numbers
DRILLS = ("recovery_s", "drain_s", "failover_s")

WORKLOADS = ("served-slices", "sharded-fanout")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import the checkout's own ``src``, or stop: nothing to measure."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro.streaming
    except ImportError as error:
        sys.exit(
            f"perfbench: cannot import the program from {source} ({error}); "
            "run from the root of a full source checkout"
        )
    if source not in Path(repro.streaming.__file__).resolve().parents:
        sys.exit(
            f"perfbench: imported repro from {repro.streaming.__file__}, not "
            f"from this checkout's {source}"
        )


def _workload(name: str):
    if name == "served-slices":
        import wl_served

        return wl_served.served_slices
    import wl_sharded

    return wl_sharded.sharded_fanout


def _layer_report(run, tracer) -> dict[str, float]:
    from ledger import CLOSURE_TOLERANCE, Analysis, layer_metrics
    from spans import load_dumps

    local = {
        "pid": 0, "role": "client", "spans": tracer.spans, "counts": dict(tracer.counts)
    }
    analysis = Analysis(local, load_dumps(run.workdir))
    values = layer_metrics(analysis)
    values["trace.overhead_pct"] = run.overhead_pct
    values["served.lateness_ms_p90"] = run.lateness_ms_p90
    wall, layers = analysis.ledger()
    print(f"ledger ({run.workload}): wall of traced root operations {wall:.4f} s")
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        share = seconds / wall if wall else 0.0
        print(f"  {layer:<24} self {seconds:10.4f} s  {100 * share:6.2f} %")
    for phase, seconds in sorted(analysis.unattributed().items()):
        if seconds > 0.01 * wall:
            print(f"  unattributed in {phase:<20} {seconds:10.4f} s")
    closure = values["ledger.closure"]
    verdict = "closes" if abs(closure - 1.0) <= CLOSURE_TOLERANCE else "DOES NOT close"
    print(
        f"ledger {verdict}: layer self times sum to {100 * closure:.2f} % of "
        f"wall (tolerance {100 * CLOSURE_TOLERANCE:.0f} %)"
    )
    run.check(
        "ledger",
        abs(closure - 1.0) <= CLOSURE_TOLERANCE,
        f"layer self times sum to {100 * closure:.2f} % of the traced wall time",
    )
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    # SIGTERM unwinds like an error, so the cleanups below stop every
    # process the workload started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One BLAS thread per process, set before numpy loads (the server and
    # the shard workers inherit it): the benchmark's processes fill the cores.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    _import_program()
    from measure import Failed, Run

    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    run = Run(args.workload, args.seed, args.seconds, workdir)
    patches = None
    try:
        if args.trace:
            from spans import Tracer, install_layers

            run.tracer = Tracer(workdir / "trace.flag")
            run.tracer.set_recording(True)
            patches = install_layers(run.tracer)
        try:
            metrics = _workload(args.workload)(run)
        except Failed:
            metrics = None
        if patches is not None:
            patches.restore()
            patches = None
        for line in run.notes:
            print(line)
        print(f"outcomes ({run.workload}, seed {run.seed}):")
        for line in run.outcome_lines():
            print(line)
        for problem in run.problems:
            print(f"PROBLEM: {problem}")
        if metrics is None:
            print("perfbench: the run stopped on a failed operation", file=sys.stderr)
            return 1
        if args.trace:
            values, units = _layer_report(run, run.tracer), PER_LAYER
            values.update({f"drills.{name}": metrics[name] for name in DRILLS})
        else:
            values, units = metrics, END_TO_END
            for name in DRILLS:
                print(f"{name:<20} {values.pop(name):14.6f} s  (per-layer)")
            for name, value in values.items():
                print(f"{name:<20} {value:14.6f} {units[name]}")
        missing = set(units) - set(values)
        if missing:
            raise RuntimeError(f"metrics not produced: {sorted(missing)}")
        result = {
            "correct": not run.problems,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {
                name: {"value": float(values[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        for cleanup in reversed(run.cleanups):
            try:
                cleanup()
            except Exception:  # noqa: BLE001 -- keep stopping the rest
                traceback.print_exc(file=sys.stderr)
        if patches is not None:
            patches.restore()
        if run.tracer is not None:
            run.tracer.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
