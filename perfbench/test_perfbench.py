"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from measure import MIN_TAIL, min_samples, percentile  # noqa: E402
from oracle import make_shape, result_matches, stream_verdicts_match  # noqa: E402
from spans import SpanRecorder  # noqa: E402


class TestPercentileRule:
    def test_p99_needs_a_thousand_samples(self):
        assert min_samples(99.0) == 1000
        assert min_samples(50.0) == 20

    def test_too_thin_a_tail_is_refused(self):
        with pytest.raises(ValueError, match="p99 needs at least 1000"):
            percentile(list(range(999)), 99.0)

    def test_reported_p99_has_ten_samples_beyond_it(self):
        samples = [float(value) for value in range(1, 1001)]
        p99 = percentile(samples, 99.0)
        assert p99 == 990.0
        assert sum(value > p99 for value in samples) == MIN_TAIL

    def test_nearest_rank_returns_an_observed_value(self):
        samples = [0.5, 0.1, 0.9] * 400
        assert percentile(samples, 50.0) in samples


class FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


class TestSelfTime:
    def test_nested_spans(self):
        # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
        recorder = SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
        recorder.enter("outer")
        recorder.enter("a")
        recorder.enter("b")
        recorder.exit()
        recorder.exit()
        recorder.enter("c")
        recorder.exit()
        recorder.exit()
        assert recorder.self_s == {"outer": 3, "a": 2, "b": 1, "c": 4}
        # Self times partition the root span's duration.
        assert recorder.total_self_s() == 10
        parents = {span["name"]: span["parent"] for span in recorder.spans}
        ids = {span["name"]: span["id"] for span in recorder.spans}
        assert parents == {
            "outer": None,
            "a": ids["outer"],
            "b": ids["a"],
            "c": ids["outer"],
        }

    def test_same_name_nesting_counts_each_call(self):
        recorder = SpanRecorder(clock=FakeClock([0, 1, 3, 6]))
        recorder.enter("faults.run")
        recorder.enter("faults.run")
        recorder.exit()
        recorder.exit()
        assert recorder.calls["faults.run"] == 2
        assert recorder.self_s["faults.run"] == 6

    def test_patch_wraps_and_restores(self):
        import oracle

        original = oracle.mask
        recorder = SpanRecorder()
        recorder.patch("oracle", "mask", "oracle.mask")
        assert oracle.mask is not original
        oracle.mask(np.ones((3, 1), dtype=np.int64), ((0, 1, 1, False),))
        recorder.unpatch()
        assert oracle.mask is original
        assert recorder.calls["oracle.mask"] == 1


@pytest.fixture(scope="module")
def served():
    from repro.data import generate_lab_dataset
    from repro.engine import AcquisitionalEngine
    from repro.planning import CorrSeqPlanner

    lab = generate_lab_dataset(n_readings=2_000, n_motes=4, seed=0)
    names = list(lab.schema.names)
    shape = make_shape(
        names,
        [(names.index("light"), 2, 8, False), (names.index("temp"), 3, 9, False)],
        ("nodeid", "temp"),
    )
    engine = AcquisitionalEngine(
        lab.schema, lab.data[:1_000], planner_factory=CorrSeqPlanner
    )
    window = lab.data[1_000:1_500]
    return shape, window, engine.execute(shape.text, window)


class TestOracle:
    def test_accepts_the_programs_answer(self, served):
        shape, window, result = served
        assert len(result.rows) > 0
        assert result_matches(result, window, shape)

    def test_rejects_a_corrupted_row(self, served):
        shape, window, result = served
        rows = list(result.rows)
        rows[0] = (rows[0][0], rows[0][1] + 1)
        corrupted = dataclasses.replace(result, rows=tuple(rows))
        assert not result_matches(corrupted, window, shape)

    def test_rejects_a_dropped_row(self, served):
        shape, window, result = served
        corrupted = dataclasses.replace(result, rows=result.rows[1:])
        assert not result_matches(corrupted, window, shape)

    def test_rejects_wrong_columns(self, served):
        shape, window, result = served
        corrupted = dataclasses.replace(result, columns=("temp", "nodeid"))
        assert not result_matches(corrupted, window, shape)

    def test_stream_verdicts(self):
        data = np.array([[1], [2], [3], [4]])
        predicates = ((0, 2, 3, False),)
        truth = np.array([False, True, True, False])
        report = dataclasses.make_dataclass("R", ["verdicts", "abstained"])
        assert stream_verdicts_match(report(truth, None), data, predicates)
        flipped = truth.copy()
        flipped[0] = True
        assert not stream_verdicts_match(report(flipped, None), data, predicates)
        # An abstained tuple is exempt, unless it is reported as selected.
        abstained = np.array([False, True, False, False])
        withdrawn = np.array([False, False, True, False])
        assert stream_verdicts_match(report(withdrawn, abstained), data, predicates)
        selected = np.array([False, True, True, False])
        assert not stream_verdicts_match(
            report(selected, abstained), data, predicates
        )
