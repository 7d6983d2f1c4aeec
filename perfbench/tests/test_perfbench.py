"""Tests of the benchmark's own machinery (not of the program it measures).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from checks import Capture, ScalarTwin, compare  # noqa: E402
from datagen import ABSORB_ROUNDS, INITIALIZATION, PERIOD, Fleet  # noqa: E402
from ledger import Analysis, layer_metrics  # noqa: E402
from spans import Tracer, install_layers  # noqa: E402


def test_same_seed_gives_same_inputs_and_another_seed_does_not():
    first = Fleet(11, 40).rows(100, 180)
    again = Fleet(11, 40).rows(100, 180)
    other = Fleet(12, 40).rows(100, 180)
    for name in ("values", "trend", "seasonal", "spikes"):
        assert np.array_equal(getattr(first, name), getattr(again, name))
    assert not np.array_equal(first.values, other.values)
    assert not np.array_equal(first.trend, other.trend)


def test_rows_regenerate_identically_in_any_slicing():
    fleet = Fleet(3, 16, spike_every=4, spike_groups=2)
    whole = fleet.rows(0, 64)
    parts = [fleet.rows(start, start + 16) for start in range(0, 64, 16)]
    assert np.array_equal(whole.values, np.concatenate([p.values for p in parts]))
    assert np.array_equal(whole.spikes, np.concatenate([p.spikes for p in parts]))
    # placed spikes: one per group of series on every 4th round
    assert np.array_equal(whole.spikes.sum(axis=1), np.tile([2, 0, 0, 0], 16))


def test_wrappers_restore_the_original_callables(tmp_path):
    from repro.core import fleet as fleet_module
    from repro.core.fleet import FleetKernel
    from repro.durability import DirectoryCheckpointStore
    from repro.serving import app as serving_app
    from repro.sharding import router as sharding_router
    from repro.streaming.engine import MultiSeriesEngine

    watched = [
        (FleetKernel, "update_block"),
        (MultiSeriesEngine, "ingest"),
        (MultiSeriesEngine, "open"),
        (DirectoryCheckpointStore, "wal_records"),
        (DirectoryCheckpointStore, "wal_frames"),
        (serving_app, "decode_grid"),
        (serving_app.ServingApp, "handle"),
        (serving_app.ServingApp, "__init__"),
        (sharding_router, "worker_main"),
        (fleet_module, "_search_best_shift"),
    ]
    before = [vars(owner)[attr] for owner, attr in watched]
    tracer = Tracer(tmp_path / "flag")
    patches = install_layers(tracer)
    try:
        during = [vars(owner)[attr] for owner, attr in watched]
        assert all(now is not then for now, then in zip(during, before))
        assert isinstance(vars(MultiSeriesEngine)["open"], classmethod)
    finally:
        patches.restore()
        tracer.close()
    after = [vars(owner)[attr] for owner, attr in watched]
    assert all(now is then for now, then in zip(after, before))


def test_tracer_records_only_under_a_recorded_root(tmp_path):
    tracer = Tracer(tmp_path / "flag")
    try:
        inner = lambda: tracer.call("engine.inner", lambda: 1, (), {})  # noqa: E731
        tracer.set_recording(False)
        tracer.span("bench.quiet", inner)
        assert tracer.spans == []
        tracer.set_recording(True)
        tracer.span("bench.loud", inner)
        names = sorted(span[1] for span in tracer.spans)
        assert names == ["bench.loud", "engine.inner"]
    finally:
        tracer.close()


def _twin_outputs(key: str):
    from repro.streaming.engine import MultiSeriesEngine

    values = Fleet(5, 1).rows(0, INITIALIZATION + ABSORB_ROUNDS + 20).values[:, 0]
    twin = ScalarTwin(MultiSeriesEngine.for_oneshotstl(PERIOD).spec, [key])
    twin.send(key, values)
    return twin.replay()


def test_checker_accepts_equal_outputs_and_rejects_an_altered_array():
    key = "s00000"
    outputs = _twin_outputs(key)
    start = INITIALIZATION + 5
    honest = Capture([key])
    honest.add(key, start, outputs[key][start : start + 10].copy())
    assert compare(honest, outputs) == []

    altered_rows = outputs[key][start : start + 10].copy()
    altered_rows[3, 0] = np.nextafter(altered_rows[3, 0], np.inf)
    altered = Capture([key])
    altered.add(key, start, altered_rows)
    problems = compare(altered, outputs)
    assert len(problems) == 1 and "trend differs" in problems[0]


def test_setup_is_the_median_wave_and_the_note_keeps_the_total(tmp_path):
    from measure import Run, setup_seconds

    run = Run("sharded-fanout", 1, 1.0, tmp_path)
    assert setup_seconds(run, 0.5, [4.0, 1.0, 2.0, 3.0]) == pytest.approx(2.5)
    assert run.notes[-1].endswith("total 10.5000")


def test_quarters_pool_connections_and_the_median_resists_one_burst():
    from measure import by_quarter, quarters

    first, second = np.arange(8.0), np.arange(100.0, 108.0)
    parts = quarters(first, second)
    assert [part.tolist() for part in parts[:2]] == [[0, 1, 100, 101], [2, 3, 102, 103]]
    steady = np.ones(40)
    burst = steady.copy()
    burst[:10] = 3.0  # one quarter slowed 3x
    p90 = lambda part: np.percentile(part, 90)  # noqa: E731
    assert np.percentile(burst, 90) == 3.0
    assert by_quarter(p90, quarters(burst)) == by_quarter(p90, quarters(steady)) == 1.0


def _dump(spans, role="client"):
    return {"pid": 1, "role": role, "spans": spans, "counts": {}}


def test_ledger_self_times_nest_and_close():
    local = _dump(
        [
            [0, "bench.ingest", 0.0, 1.0, -1, 0.0],
            [1, "engine.ingest.grid", 0.05, 0.95, 0, 100.0],
            [2, "fleet.update_block", 0.1, 0.8, 1, 100.0],
            [3, "batched_ldlt.extend_solve", 0.2, 0.6, 2, 0.0],
        ]
    )
    analysis = Analysis(local, [])
    wall, layers = analysis.ledger()
    assert wall == pytest.approx(1.0)
    assert layers["batched_ldlt"] == pytest.approx(0.4)
    assert layers["fleet"] == pytest.approx(0.3)
    assert layers["engine"] == pytest.approx(0.2)
    metrics = layer_metrics(analysis)
    assert metrics["ledger.closure"] == pytest.approx(0.9)
    assert metrics["engine.kernel_point_share"] == pytest.approx(1.0)
    assert metrics["engine.grid_calls"] == 1


def test_fallback_points_are_scalar_updates_inside_an_ingest_call():
    local = _dump(
        [
            [0, "bench.ingest", 0.0, 1.0, -1, 0.0],
            [1, "engine.ingest.rows", 0.0, 1.0, 0, 3.0],
            [2, "fleet.update", 0.1, 0.2, 1, 1.0],
            [3, "oneshotstl.update", 0.3, 0.4, 1, 0.0],
            [4, "oneshotstl.update", 0.5, 0.6, 1, 0.0],
            [5, "bench.ingest", 1.0, 2.0, -1, 0.0],
            [6, "engine.process", 1.0, 2.0, 5, 1.0],
            [7, "oneshotstl.update", 1.1, 1.9, 6, 0.0],
        ]
    )
    metrics = layer_metrics(Analysis(local, []))
    assert metrics["engine.fallback_points"] == 2
    assert metrics["engine.process_calls"] == 1
    assert metrics["oneshotstl.update_calls"] == 3


def test_ledger_keeps_only_the_slowest_parallel_worker():
    local = _dump(
        [
            [0, "bench.ingest", 0.0, 1.0, -1, 0.0],
            [1, "sharding.router.ingest", 0.1, 0.9, 0, 0.0],
        ]
    )
    workers = [
        _dump([[0, "engine.ingest.grid", 0.2, 0.6, -1, 10.0]], "worker"),
        _dump([[0, "engine.ingest.grid", 0.2, 0.8, -1, 10.0]], "worker"),
    ]
    metrics = layer_metrics(Analysis(local, workers))
    assert metrics["sharding.router_s"] == pytest.approx(0.8)
    assert metrics["sharding.worker_engine_s"] == pytest.approx(1.0)
    assert metrics["sharding.ipc_s"] == pytest.approx(0.2)
    assert metrics["ledger.layer_sum_s"] == pytest.approx(0.8)


def test_metric_tables_match_benchmark_json():
    import run

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
