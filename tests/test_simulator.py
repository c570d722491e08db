"""Tests for the sensor-network simulator."""

import numpy as np
import pytest

from repro.core import (
    Attribute,
    ConjunctiveQuery,
    ExistentialQuery,
    RangePredicate,
    Schema,
    SequentialNode,
    SequentialStep,
    VerdictLeaf,
)
from repro.exceptions import AcquisitionError
from repro.execution import Mote, SensorNetworkSimulator


@pytest.fixture
def schema() -> Schema:
    return Schema([Attribute("hour", 4, 1.0), Attribute("temp", 4, 100.0)])


def make_motes(schema, seed=0, n_motes=3, epochs=100):
    rng = np.random.default_rng(seed)
    motes = []
    for mote_id in range(1, n_motes + 1):
        readings = np.stack(
            [rng.integers(1, 5, epochs), rng.integers(1, 5, epochs)], axis=1
        ).astype(np.int64)
        motes.append(Mote(mote_id, readings))
    return motes


def temp_plan():
    return SequentialNode(
        steps=(
            SequentialStep(
                predicate=RangePredicate("temp", 4, 4), attribute_index=1
            ),
        )
    )


class TestConstruction:
    def test_requires_motes(self, schema):
        with pytest.raises(AcquisitionError):
            SensorNetworkSimulator(schema, [])

    def test_requires_consistent_shapes(self, schema):
        motes = [
            Mote(1, np.ones((10, 2), dtype=np.int64)),
            Mote(2, np.ones((5, 2), dtype=np.int64)),
        ]
        with pytest.raises(AcquisitionError):
            SensorNetworkSimulator(schema, motes)

    def test_mote_readings_must_be_2d(self):
        with pytest.raises(AcquisitionError):
            Mote(1, np.ones(5, dtype=np.int64))


class TestRun:
    def test_acquisition_energy_per_mote(self, schema):
        motes = make_motes(schema)
        sim = SensorNetworkSimulator(schema, motes, radio_cost_per_byte=0.0)
        report = sim.run(temp_plan(), epochs=50)
        # Every epoch each mote reads temp: 50 * 100 units.
        for mote in motes:
            assert report.acquisition_energy[mote.mote_id] == 50 * 100.0
        assert report.epochs == 50

    def test_dissemination_cost_scales_with_plan_size(self, schema):
        motes = make_motes(schema)
        sim = SensorNetworkSimulator(schema, motes, radio_cost_per_byte=2.0)
        plan = temp_plan()
        assert sim.dissemination_cost(plan) == plan.size_bytes() * 2.0
        report = sim.run(plan, epochs=1)
        for mote in motes:
            assert report.dissemination_energy[mote.mote_id] == sim.dissemination_cost(
                plan
            )

    def test_result_energy_counts_matches(self, schema):
        motes = make_motes(schema, seed=2)
        sim = SensorNetworkSimulator(
            schema, motes, radio_cost_per_byte=1.0, result_bytes=4
        )
        report = sim.run(temp_plan(), epochs=100)
        expected_matches = sum(
            int(np.sum(mote.readings[:100, 1] == 4)) for mote in motes
        )
        assert report.matches == expected_matches
        total_result_energy = sum(report.result_energy.values())
        assert total_result_energy == expected_matches * 4.0

    def test_total_energy_aggregates(self, schema):
        motes = make_motes(schema)
        sim = SensorNetworkSimulator(schema, motes, radio_cost_per_byte=0.5)
        report = sim.run(temp_plan(), epochs=10)
        manual = sum(report.mote_energy(m.mote_id) for m in motes)
        assert report.total_energy == pytest.approx(manual)
        assert report.energy_per_epoch == pytest.approx(manual / 10)

    def test_effective_alpha(self, schema):
        sim = SensorNetworkSimulator(
            schema, make_motes(schema), radio_cost_per_byte=3.0
        )
        assert sim.effective_alpha(lifetime_epochs=100) == pytest.approx(0.03)
        with pytest.raises(AcquisitionError):
            sim.effective_alpha(0)


class TestExistential:
    def test_stops_at_first_match(self, schema):
        # Mote 3 always matches; motes 1-2 never do.
        epochs = 20
        never = np.column_stack(
            [np.ones(epochs, dtype=np.int64), np.ones(epochs, dtype=np.int64)]
        )
        always = np.column_stack(
            [np.ones(epochs, dtype=np.int64), np.full(epochs, 4, dtype=np.int64)]
        )
        motes = [Mote(1, never), Mote(2, never), Mote(3, always)]
        sim = SensorNetworkSimulator(schema, motes, radio_cost_per_byte=0.0)
        query = ExistentialQuery(
            ConjunctiveQuery(schema, [RangePredicate("temp", 4, 4)])
        )
        report = sim.run_existential(temp_plan(), query)
        # The always-matching mote is polled first (highest match rate), so
        # only one acquisition happens per epoch.
        assert report.acquisitions_performed == epochs
        assert report.matches == epochs
        assert report.acquisition_energy.get(1, 0.0) == 0.0

    def test_polls_through_misses(self, schema):
        epochs = 10
        never = np.column_stack(
            [np.ones(epochs, dtype=np.int64), np.ones(epochs, dtype=np.int64)]
        )
        motes = [Mote(1, never), Mote(2, never)]
        sim = SensorNetworkSimulator(schema, motes, radio_cost_per_byte=0.0)
        query = ExistentialQuery(
            ConjunctiveQuery(schema, [RangePredicate("temp", 4, 4)])
        )
        report = sim.run_existential(temp_plan(), query)
        assert report.matches == 0
        assert report.acquisitions_performed == epochs * 2  # every mote, every epoch

    def test_respects_supplied_match_rates(self, schema):
        epochs = 5
        readings = np.column_stack(
            [np.ones(epochs, dtype=np.int64), np.full(epochs, 4, dtype=np.int64)]
        )
        motes = [Mote(1, readings), Mote(2, readings.copy())]
        sim = SensorNetworkSimulator(schema, motes, radio_cost_per_byte=0.0)
        query = ExistentialQuery(
            ConjunctiveQuery(schema, [RangePredicate("temp", 4, 4)])
        )
        report = sim.run_existential(
            temp_plan(), query, training_match_rates={1: 0.1, 2: 0.9}
        )
        # Mote 2 ranked first and always matches: mote 1 never consulted.
        assert report.acquisition_energy.get(1, 0.0) == 0.0


class TestVerdictLeafPlan:
    def test_free_plan_costs_only_radio(self, schema):
        motes = make_motes(schema)
        sim = SensorNetworkSimulator(
            schema, motes, radio_cost_per_byte=1.0, result_bytes=0
        )
        report = sim.run(VerdictLeaf(False), epochs=10)
        assert all(v == 0.0 for v in report.acquisition_energy.values())
        assert report.matches == 0


class TestLimitQueries:
    def test_limit_stops_after_k_matches(self, schema):
        from repro.core import ConjunctiveQuery, LimitQuery, RangePredicate

        epochs = 10
        always = np.column_stack(
            [np.ones(epochs, dtype=np.int64), np.full(epochs, 4, dtype=np.int64)]
        )
        motes = [Mote(mote_id, always.copy()) for mote_id in (1, 2, 3, 4)]
        sim = SensorNetworkSimulator(schema, motes, radio_cost_per_byte=0.0)
        query = LimitQuery(
            ConjunctiveQuery(schema, [RangePredicate("temp", 4, 4)]), limit=2
        )
        report = sim.run_limit(temp_plan(), query)
        # Every mote matches, so each epoch stops after exactly 2 polls.
        assert report.acquisitions_performed == epochs * 2
        assert report.matches == epochs * 2

    def test_limit_exhausts_fleet_when_scarce(self, schema):
        from repro.core import ConjunctiveQuery, LimitQuery, RangePredicate

        epochs = 6
        never = np.column_stack(
            [np.ones(epochs, dtype=np.int64), np.ones(epochs, dtype=np.int64)]
        )
        motes = [Mote(mote_id, never.copy()) for mote_id in (1, 2, 3)]
        sim = SensorNetworkSimulator(schema, motes, radio_cost_per_byte=0.0)
        query = LimitQuery(
            ConjunctiveQuery(schema, [RangePredicate("temp", 4, 4)]), limit=2
        )
        report = sim.run_limit(temp_plan(), query)
        assert report.matches == 0
        assert report.acquisitions_performed == epochs * 3

    def test_limit_larger_than_matches_collects_all(self, schema):
        from repro.core import ConjunctiveQuery, LimitQuery, RangePredicate

        epochs = 5
        always = np.column_stack(
            [np.ones(epochs, dtype=np.int64), np.full(epochs, 4, dtype=np.int64)]
        )
        never = np.column_stack(
            [np.ones(epochs, dtype=np.int64), np.ones(epochs, dtype=np.int64)]
        )
        motes = [Mote(1, always), Mote(2, never)]
        sim = SensorNetworkSimulator(schema, motes, radio_cost_per_byte=0.0)
        query = LimitQuery(
            ConjunctiveQuery(schema, [RangePredicate("temp", 4, 4)]), limit=5
        )
        report = sim.run_limit(temp_plan(), query)
        assert report.matches == epochs  # one match per epoch available

    @pytest.mark.parametrize("rates", [None, {1: 0.9, 2: 0.1, 3: 0.5}])
    def test_exists_is_limit_one(self, schema, rates):
        from repro.core import LimitQuery

        sim = SensorNetworkSimulator(
            schema, make_motes(schema, seed=4, epochs=40), radio_cost_per_byte=0.5
        )
        inner = ConjunctiveQuery(schema, [RangePredicate("temp", 4, 4)])
        exists = sim.run_existential(
            temp_plan(), ExistentialQuery(inner), training_match_rates=rates, epochs=30
        )
        limit = sim.run_limit(
            temp_plan(), LimitQuery(inner, 1), training_match_rates=rates, epochs=30
        )
        assert exists == limit
        assert exists.matches > 0 and exists.result_energy
