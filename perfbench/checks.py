"""Correctness checks and ground-truth quality for every workload.

Correctness: a sample of keys is replayed through a scalar-path twin --
an engine with ``fleet_kernel_enabled = False`` fed exactly the values
the workload sent, one observation at a time -- and every output the
system under test returned for those keys must equal the twin's, float
for float.  Outputs are compared by each key's ordinal of accepted
observations, so a captured slice of any batch form lines up with the
twin's history.

Quality: anomaly F1 against the generator's spike labels and the RMSE
of the estimated trend and seasonal parts against the true ones.
"""

from __future__ import annotations

import numpy as np

#: per-point outputs compared between the system and the scalar twin
FIELDS = ("trend", "seasonal", "residual", "anomaly_score", "is_anomaly")


def result_columns(result, n_keys: int, columns) -> dict[int, np.ndarray]:
    """``(rounds, len(FIELDS))`` outputs of grid columns of an IngestResult."""
    rounds = len(result) // n_keys if n_keys else 0
    stacked = np.stack(
        [np.asarray(getattr(result, name), dtype=float) for name in FIELDS], axis=1
    ).reshape(rounds, n_keys, len(FIELDS))
    live = np.asarray(result.live).reshape(rounds, n_keys)
    stacked[~live] = np.nan
    return {column: stacked[:, column, :].copy() for column in columns}


def record_rows(records) -> np.ndarray:
    """``(len(records), len(FIELDS))`` outputs of EngineRecords."""
    rows = np.full((len(records), len(FIELDS)), np.nan)
    for index, outcome in enumerate(records):
        record = outcome.record
        if record is not None:
            rows[index] = [getattr(record, name) for name in FIELDS]
    return rows


class Capture:
    """Outputs the system returned for the sample keys, by ordinal."""

    def __init__(self, keys):
        self.keys = list(keys)
        self.slices: dict = {key: [] for key in self.keys}

    def add(self, key, ordinal: int, rows: np.ndarray) -> None:
        self.slices[key].append((int(ordinal), np.asarray(rows, dtype=float)))


class ScalarTwin:
    """The scalar-path reference for a sample of keys."""

    def __init__(self, spec, keys):
        from repro.streaming.engine import MultiSeriesEngine

        self.engine = MultiSeriesEngine.from_spec(spec)
        self.engine.fleet_kernel_enabled = False
        self.keys = list(keys)
        self.inputs: dict = {key: [] for key in self.keys}

    def send(self, key, values) -> None:
        """Record observations the workload sent to ``key`` (any order of keys)."""
        self.inputs[key].extend(float(value) for value in np.atleast_1d(values))

    def replay(self) -> dict:
        """Run every input; outputs by ordinal, one row per observation."""
        return {
            key: record_rows([self.engine.process(key, v) for v in self.inputs[key]])
            for key in self.keys
        }

    def forecast(self, key, horizon: int) -> np.ndarray:
        return self.engine.forecast(key, horizon)


class Tracked:
    """A fleet under test, its clock, and the twin that shadows its sample.

    Every key has accepted exactly ``t`` observations between operations,
    so ``t`` is also each key's ordinal for the twin comparison.
    """

    def __init__(self, spec, keys, sample_columns):
        self.keys = keys
        self.t = 0
        self.sample_columns = list(sample_columns)
        sample = [keys[column] for column in self.sample_columns]
        self.twin = ScalarTwin(spec, sample)
        self.capture = Capture(sample)

    def sent(self, columns, values) -> None:
        """Tell the twin what ``columns`` (grid order) were sent."""
        for position, column in enumerate(columns):
            if column in self.sample_columns:
                self.twin.send(self.keys[column], values[:, position])

    def captured_grid(self, result, columns, ordinal: int) -> None:
        """Capture sample outputs of a grid result over ``columns``."""
        wanted = [
            position
            for position, column in enumerate(columns)
            if column in self.sample_columns
        ]
        for position, rows in result_columns(result, len(columns), wanted).items():
            self.capture.add(self.keys[columns[position]], ordinal, rows)


def compare(capture: Capture, outputs: dict) -> list[str]:
    """Mismatches between captured outputs and the twin's (empty: equal)."""
    problems = []
    for key in capture.keys:
        reference = outputs[key]
        for ordinal, rows in capture.slices[key]:
            expected = reference[ordinal : ordinal + len(rows)]
            if expected.shape != rows.shape:
                problems.append(
                    f"{key}: outputs at ordinal {ordinal} cover {len(rows)} "
                    f"points, the twin has {len(expected)}"
                )
            elif not np.array_equal(expected, rows, equal_nan=True):
                bad = np.argwhere(
                    ~((expected == rows) | (np.isnan(expected) & np.isnan(rows)))
                )[0]
                problems.append(
                    f"{key}: {FIELDS[bad[1]]} differs at ordinal "
                    f"{ordinal + bad[0]}: system {rows[tuple(bad)]!r}, "
                    f"scalar twin {expected[tuple(bad)]!r}"
                )
    return problems


class Quality:
    """Anomaly F1 and decomposition RMSE, accumulated over batches."""

    def __init__(self):
        self.hits = self.flagged = self.actual = 0
        self.squared = 0.0
        self.estimates = 0

    def add(self, detected, truth, trend, seasonal, true_trend, true_seasonal):
        """One batch: flags vs labels, estimated vs true components."""
        detected = np.asarray(detected, dtype=bool).ravel()
        truth = np.asarray(truth, dtype=bool).ravel()
        self.hits += int(np.sum(detected & truth))
        self.flagged += int(np.sum(detected))
        self.actual += int(np.sum(truth))
        for estimate, true in ((trend, true_trend), (seasonal, true_seasonal)):
            error = np.asarray(estimate, dtype=float).ravel() - np.ravel(true)
            error = error[np.isfinite(error)]
            self.squared += float(np.dot(error, error))
            self.estimates += error.size

    def f1(self) -> float:
        return f1_score(self.hits, self.flagged, self.actual)

    def rmse(self) -> float:
        return float(np.sqrt(self.squared / self.estimates)) if self.estimates else 0.0


def f1_score(hits: float, flagged: float, actual: float) -> float:
    if hits == 0:
        return 0.0
    precision = hits / flagged
    recall = hits / actual
    return 2.0 * precision * recall / (precision + recall)


def count_f1(predicted: np.ndarray, truth: np.ndarray) -> float:
    """F1 over per-cell anomaly *counts* (cells: key x request)."""
    predicted = np.asarray(predicted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    hits = float(np.minimum(predicted, truth).sum())
    return f1_score(hits, float(predicted.sum()), float(truth.sum()))
