"""LearnedStreamExecutor: bandit loop, drift fusion, state, and faults."""

import numpy as np
import pytest

from repro.exceptions import FaultConfigError, LearningError, PlanningError
from repro.faults.model import AttributeFaults, FaultSchedule
from repro.learn import (
    BanditStateStore,
    LearnedStreamExecutor,
    adversarial_stream,
    drifting_stream,
)
from repro.verify.learn import check_learned


@pytest.fixture(scope="module")
def workload():
    return adversarial_stream(n_segments=2, segment_length=200, seed=0)


def make_executor(workload, **kwargs):
    defaults = dict(window=96, warmup=48, smoothing=0.5, burst_pulls=6)
    defaults.update(kwargs)
    return LearnedStreamExecutor(workload.schema, workload.query, **defaults)


@pytest.fixture(scope="module")
def report(workload):
    return make_executor(workload).process(workload.data)


class TestValidation:
    def test_parameter_bounds(self, workload):
        bad = [
            dict(window=0),
            dict(warmup=0),
            dict(smoothing=-0.1),
            dict(regret_budget=-1.0),
            dict(drift_check_every=0),
            dict(drift_min_tuples=0),
            dict(warm_discount=0.0),
            dict(warm_discount=1.5),
            dict(state_store=BanditStateStore()),  # no state_key
        ]
        for kwargs in bad:
            with pytest.raises(LearningError):
                make_executor(workload, **kwargs)

    def test_fault_schedule_needs_rng(self, workload):
        schedule = FaultSchedule(profiles={1: AttributeFaults(drop_rate=0.1)})
        with pytest.raises(FaultConfigError, match="fault_rng"):
            make_executor(workload, fault_schedule=schedule)

    def test_fault_schedule_forbids_skeleton(self, workload):
        from repro.planning import CorrSeqPlanner

        schedule = FaultSchedule(profiles={1: AttributeFaults(drop_rate=0.1)})
        with pytest.raises(FaultConfigError, match="flat"):
            make_executor(
                workload,
                fault_schedule=schedule,
                fault_rng=np.random.default_rng(0),
                skeleton_planner=lambda d: CorrSeqPlanner(d),
            )

    def test_stream_shape_checked(self, workload):
        executor = make_executor(workload)
        with pytest.raises(PlanningError, match="incompatible"):
            executor.process(np.zeros((10, 7), dtype=np.int64))
        with pytest.raises(LearningError, match="empty"):
            executor.process(np.zeros((0, 3), dtype=np.int64))


class TestFaultFreeRun:
    def test_report_shapes_and_trace(self, workload, report):
        n = workload.data.shape[0]
        assert report.costs.shape == (n,)
        assert report.verdicts.shape == (n,)
        assert report.pulls.shape == (n,)
        assert report.abstained is None
        assert report.faults is None
        # Warmup tuples carry no arm pull; post-warmup tuples all do.
        assert (report.pulls[:48] == -1).all()
        assert (report.pulls[48:] >= 0).all()
        assert report.replans[0].reason == "warmup"
        assert report.replans[0].position == 48

    def test_verdicts_are_exact(self, workload, report):
        expected = np.array(
            [workload.query.evaluate(row) for row in workload.data]
        )
        assert (report.verdicts == expected).all()

    def test_ledger_conserved_and_within_budget(self, report):
        assert report.ledger_conserved()
        assert report.ledger.gap(report.total_cost) == pytest.approx(0.0, abs=1e-6)
        assert report.ledger.exploration_cost <= report.ledger.budget
        assert report.ledger.total_cost == pytest.approx(report.total_cost)

    def test_provenance_passes_lrn_rules(self, report):
        assert check_learned(report.plan, report.provenance) == []
        assert report.provenance.observed_total == pytest.approx(
            report.total_cost
        )

    def test_regime_flip_triggers_adaptation(self, workload, report):
        reasons = {event.reason for event in report.replans}
        assert reasons & {"order-swap", "drift-refit"}, reasons
        # Something happened after the flip boundary.
        boundary = workload.boundaries[0]
        assert any(
            event.position > boundary
            for event in report.replans
            if event.reason != "warmup"
        )

    def test_as_dict_summarizes(self, workload, report):
        payload = report.as_dict()
        assert payload["tuples"] == workload.data.shape[0]
        assert payload["replans"] == len(report.replans)
        assert payload["ledger"]["budget"] == report.ledger.budget

    def test_on_replan_sees_every_event(self, workload):
        seen = []
        run = make_executor(workload, on_replan=seen.append).process(
            workload.data
        )
        assert tuple(seen) == run.replans

    def test_disabled_monitor_never_refits(self, workload):
        run = make_executor(workload, drift_threshold=None).process(
            workload.data
        )
        assert all(
            event.reason != "drift-refit" for event in run.replans
        )


class TestStatePersistence:
    def test_states_stored_under_provided_version(self, workload):
        store = BanditStateStore()
        make_executor(
            workload,
            state_store=store,
            state_key="q",
            version_provider=lambda: 7,
        ).process(workload.data)
        assert store.versions("q") == (7,)
        assert store.get("q", 7) is not None

    def test_second_run_adopts_stored_evidence(self, workload):
        store = BanditStateStore()
        make_executor(
            workload, state_store=store, state_key="q"
        ).process(workload.data)
        rerun = make_executor(
            workload, state_store=store, state_key="q"
        ).process(workload.data)
        warmup = rerun.replans[0]
        assert warmup.reason == "warmup"
        assert warmup.warm  # posteriors survived into the new run

    def test_cold_start_reports_no_adoption(self, workload, report):
        assert not report.replans[0].warm


class TestFaultedRun:
    @pytest.fixture(scope="class")
    def faulted(self):
        workload = drifting_stream(n_tuples=400, flip_at=0.5, seed=1)
        schedule = FaultSchedule(
            profiles={
                1: AttributeFaults(drop_rate=0.05),
                2: AttributeFaults(noise_rate=0.05),
            }
        )
        executor = LearnedStreamExecutor(
            workload.schema,
            workload.query,
            window=96,
            warmup=48,
            smoothing=0.5,
            burst_pulls=6,
            fault_schedule=schedule,
            fault_rng=np.random.default_rng(3),
        )
        return executor.process(workload.data)

    def test_fault_stats_and_abstentions_reported(self, faulted):
        assert faulted.faults is not None
        assert faulted.abstained is not None
        assert faulted.faults.acquisitions_failed > 0
        assert faulted.faults.tuples_abstained == int(faulted.abstained.sum())

    def test_ledger_survives_the_storm(self, faulted):
        assert faulted.ledger_conserved()
        assert faulted.ledger.exploration_cost <= faulted.ledger.budget

    def test_provenance_still_verifies(self, faulted):
        assert check_learned(faulted.plan, faulted.provenance) == []


class TestFaultModeDriftRule:
    """The chi-square monitor needs the walker's observer events.

    Fault-injected windows run through the fault-tolerant executor, which
    emits none, so the drift options have no effect under faults; they
    are accepted (not rejected) because callers share one option set
    across fault-free and faulted runs.
    """

    @staticmethod
    def run(drift_threshold, faulted):
        workload = adversarial_stream(n_segments=3, segment_length=150, seed=3)
        faults = {}
        if faulted:
            faults = dict(
                fault_schedule=FaultSchedule(
                    profiles={1: AttributeFaults(drop_rate=0.05, outage_rate=0.02)}
                ),
                fault_rng=np.random.default_rng(5),
            )
        executor = make_executor(
            workload,
            drift_threshold=drift_threshold,
            drift_check_every=1,
            drift_min_tuples=1,
            **faults,
        )
        return executor.process(workload.data)

    def test_faulted_run_ignores_the_drift_threshold(self):
        hair_trigger = self.run(1e-9, faulted=True)
        disabled = self.run(None, faulted=True)
        assert hair_trigger.costs.tobytes() == disabled.costs.tobytes()
        assert hair_trigger.verdicts.tobytes() == disabled.verdicts.tobytes()
        assert hair_trigger.abstained.tobytes() == disabled.abstained.tobytes()
        assert hair_trigger.pulls.tobytes() == disabled.pulls.tobytes()
        assert hair_trigger.replans == disabled.replans
        assert hair_trigger.ledger == disabled.ledger
        assert hair_trigger.plan == disabled.plan
        assert hair_trigger.committed == disabled.committed
        assert hair_trigger.faults == disabled.faults
        assert "drift-refit" not in {e.reason for e in hair_trigger.replans}

    def test_fault_free_run_honours_it(self):
        reasons = [e.reason for e in self.run(1e-9, faulted=False).replans]
        assert "drift-refit" in reasons
