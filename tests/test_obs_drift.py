"""Tests for Eq. 3 per-node predictions and drift scoring (repro.obs.drift)."""

import json

import numpy as np
import pytest

from repro.core import (
    Attribute,
    ConjunctiveQuery,
    RangePredicate,
    Schema,
    dataset_execution,
    expected_cost,
)
from repro.obs import DEFAULT_DRIFT_THRESHOLD, DriftMonitor, PlanProfile, profile_report
from repro.planning import CorrSeqPlanner, GreedyConditionalPlanner
from repro.probability import EmpiricalDistribution
from repro.verify import ROOT_PATH


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [
            Attribute("mode", 2, 1.0),
            Attribute("p", 2, 100.0),
            Attribute("q", 2, 100.0),
        ]
    )


@pytest.fixture
def query(schema) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        schema, [RangePredicate("p", 2, 2), RangePredicate("q", 2, 2)]
    )


def regime_data(n: int, flipped: bool, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mode = rng.integers(1, 3, n)
    fail_p = (mode == 1) != flipped
    p = np.where(fail_p, 1, rng.integers(1, 3, n))
    q = np.where(~fail_p, 1, rng.integers(1, 3, n))
    return np.stack([mode, p, q], axis=1).astype(np.int64)


@pytest.fixture
def train(schema) -> np.ndarray:
    return regime_data(3000, flipped=False, seed=1)


@pytest.fixture
def distribution(schema, train) -> EmpiricalDistribution:
    return EmpiricalDistribution(schema, train, smoothing=0.5)


@pytest.fixture
def planned(query, distribution):
    planner = GreedyConditionalPlanner(
        distribution, CorrSeqPlanner(distribution), max_splits=3
    )
    return planner.plan(query)


class TestPredictPlan:
    """The monitor's predictions: the plan's Eq. 3 records."""

    def test_per_node_costs_sum_to_eq3(self, planned, distribution):
        predictions = DriftMonitor(planned.plan, distribution).predictions
        total = sum(prediction.cost for prediction in predictions.values())
        assert total == pytest.approx(
            expected_cost(planned.plan, distribution), abs=1e-9
        )
        assert total == pytest.approx(planned.expected_cost, abs=1e-9)

    def test_root_reach_is_one(self, planned, distribution):
        predictions = DriftMonitor(planned.plan, distribution).predictions
        assert predictions[ROOT_PATH].reach == pytest.approx(1.0)

    def test_covers_every_plan_node(self, planned, distribution):
        from repro.verify import iter_plan_paths

        predictions = DriftMonitor(planned.plan, distribution).predictions
        assert set(predictions) == {
            path for path, _node in iter_plan_paths(planned.plan)
        }

    def test_probabilities_are_valid(self, planned, distribution):
        predictions = DriftMonitor(planned.plan, distribution).predictions
        for prediction in predictions.values():
            if prediction.probability_below is not None:
                assert 0.0 <= prediction.probability_below <= 1.0
            for passed in prediction.step_passes:
                assert 0.0 <= passed <= 1.0


class TestDriftMonitor:
    def test_no_drift_in_distribution(self, schema, planned, distribution):
        monitor = DriftMonitor(
            planned.plan, distribution, expected=planned.expected_cost
        )
        profile = PlanProfile(schema)
        dataset_execution(
            planned.plan,
            regime_data(3000, flipped=False, seed=2),
            schema,
            observer=profile,
        )
        report = monitor.assess(profile)
        assert not report.drifted
        assert report.normalized < DEFAULT_DRIFT_THRESHOLD
        assert report.cost_ratio == pytest.approx(1.0, abs=0.25)
        assert "ok" in report.describe()

    def test_detects_regime_flip(self, schema, planned, distribution):
        monitor = DriftMonitor(
            planned.plan, distribution, expected=planned.expected_cost
        )
        profile = PlanProfile(schema)
        dataset_execution(
            planned.plan,
            regime_data(3000, flipped=True, seed=3),
            schema,
            observer=profile,
        )
        report = monitor.assess(profile)
        assert report.drifted
        assert report.normalized > DEFAULT_DRIFT_THRESHOLD
        assert report.worst  # the worst cells are named
        assert "DRIFTED" in report.describe()

    def test_min_visits_suppresses_small_samples(
        self, schema, planned, distribution
    ):
        monitor = DriftMonitor(planned.plan, distribution, min_visits=1000)
        profile = PlanProfile(schema)
        dataset_execution(
            planned.plan,
            regime_data(100, flipped=True, seed=4),
            schema,
            observer=profile,
        )
        report = monitor.assess(profile)
        assert report.cells == 0
        assert report.score == 0.0
        assert not report.drifted

    def test_empty_profile_is_not_drifted(self, schema, planned, distribution):
        monitor = DriftMonitor(planned.plan, distribution)
        report = monitor.assess(PlanProfile(schema))
        assert report.tuples == 0
        assert not report.drifted

    def test_cell_drifts_and_report_serialize(
        self, schema, planned, distribution
    ):
        monitor = DriftMonitor(planned.plan, distribution)
        profile = PlanProfile(schema)
        dataset_execution(
            planned.plan,
            regime_data(2000, flipped=True, seed=5),
            schema,
            observer=profile,
        )
        cells = monitor.cell_drifts(profile)
        assert cells
        for cell in cells:
            assert cell.kind in ("split", "step")
            assert cell.term >= 0.0
        json.dumps(monitor.assess(profile).as_dict())  # must not raise

    def test_threshold_is_respected(self, schema, planned, distribution):
        lax = DriftMonitor(planned.plan, distribution, threshold=1e9)
        profile = PlanProfile(schema)
        dataset_execution(
            planned.plan,
            regime_data(2000, flipped=True, seed=6),
            schema,
            observer=profile,
        )
        assert not lax.assess(profile).drifted


class TestDebounce:
    """The latch: one crossing fires once, not once per assessment window."""

    def drifted_profile(self, schema, planned, seed=7) -> PlanProfile:
        profile = PlanProfile(schema)
        dataset_execution(
            planned.plan,
            regime_data(2000, flipped=True, seed=seed),
            schema,
            observer=profile,
        )
        return profile

    def test_crossing_fires_exactly_once(self, schema, planned, distribution):
        monitor = DriftMonitor(planned.plan, distribution)
        profile = self.drifted_profile(schema, planned)
        first = monitor.assess(profile)
        assert first.drifted
        assert not first.debounced
        assert monitor.fired
        second = monitor.assess(profile)
        assert not second.drifted
        assert second.debounced
        # The underlying score is unchanged — only the edge is filtered.
        assert second.normalized == pytest.approx(first.normalized)
        assert "debounced" in second.describe()
        assert second.as_dict()["debounced"] is True

    def test_rearm_restores_the_trigger(self, schema, planned, distribution):
        monitor = DriftMonitor(planned.plan, distribution)
        profile = self.drifted_profile(schema, planned)
        assert monitor.assess(profile).drifted
        monitor.rearm()
        assert not monitor.fired
        report = monitor.assess(profile)
        assert report.drifted
        assert not report.debounced

    def test_level_triggered_mode_refires(self, schema, planned, distribution):
        monitor = DriftMonitor(planned.plan, distribution, debounce=False)
        profile = self.drifted_profile(schema, planned)
        for _ in range(3):
            report = monitor.assess(profile)
            assert report.drifted
            assert not report.debounced

    def test_quiet_profile_never_latches(self, schema, planned, distribution):
        monitor = DriftMonitor(planned.plan, distribution)
        profile = PlanProfile(schema)
        dataset_execution(
            planned.plan,
            regime_data(3000, flipped=False, seed=8),
            schema,
            observer=profile,
        )
        for _ in range(2):
            report = monitor.assess(profile)
            assert not report.drifted
            assert not report.debounced
        assert not monitor.fired


class TestProfileReportVerdict:
    """One assessment per profile report: its JSON and its text agree."""

    @pytest.fixture
    def cell_drift_calls(self, monkeypatch) -> list[int]:
        calls: list[int] = []
        genuine = DriftMonitor.cell_drifts

        def counting(self, profile):
            calls.append(1)
            return genuine(self, profile)

        monkeypatch.setattr(DriftMonitor, "cell_drifts", counting)
        return calls

    def test_library_report_scores_once(
        self, schema, planned, distribution, cell_drift_calls
    ):
        profile = PlanProfile(schema)
        dataset_execution(
            planned.plan,
            regime_data(3000, flipped=True, seed=3),
            schema,
            observer=profile,
        )
        monitor = DriftMonitor(
            planned.plan, distribution, expected=planned.expected_cost
        )
        payload, text = profile_report(
            planned.plan, distribution, profile, monitor=monitor
        )
        assert len(cell_drift_calls) == 1
        assert payload["drift"]["drifted"] is True
        assert "-> DRIFTED" in text
        flagged = [line for line in text.splitlines() if "<< DRIFT" in line]
        assert len(flagged) == sum(
            cell["term"] > monitor.threshold
            for cell in (c.as_dict() for c in monitor.cell_drifts(profile))
        )

    def test_cli_text_and_json_agree_on_a_flipped_regime(
        self, schema, train, tmp_path, capsys, cell_drift_calls
    ):
        from repro.cli import main
        from repro.data.trace_io import save_schema, save_trace

        save_schema(schema, tmp_path / "schema.json")
        save_trace(train, schema, tmp_path / "train.csv")
        save_trace(
            regime_data(3000, flipped=True, seed=3), schema, tmp_path / "test.csv"
        )
        artifact = tmp_path / "profile.json"
        code = main(
            [
                "profile",
                "--schema", str(tmp_path / "schema.json"),
                "--trace", str(tmp_path / "train.csv"),
                "--test", str(tmp_path / "test.csv"),
                "--query", "SELECT * WHERE p >= 2 AND q >= 2",
                "--max-splits", "3",
                "--smoothing", "0.5",
                "--out", str(artifact),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        payload = json.loads(artifact.read_text())
        assert payload["drift"]["drifted"] is True
        assert payload["drift"]["debounced"] is False
        assert "-> DRIFTED" in text
        assert len(cell_drift_calls) == 1
