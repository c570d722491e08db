"""Golden verifier reports: findings and Eq. 3 figures must not move by accident.

``tests/data/verifier_reports.json`` records, as sorted
``(severity, code, path, message, hint)`` rows:

- the ``verify_plan`` / ``verify_bytecode`` report of every case of the
  plan, bytecode, dataflow and certificate mutation corpora, on two
  fixtures (the corpus runner's two-attribute fixture and a
  three-attribute one), plus a few edge cases: an inconsistent model
  (COST002), model-dead branches (COST004), a narrowed root context, a
  conditional cost model, a boolean query and fault-tolerance policies;
- for every plan of ``tests/test_plan_digests.py`` (280 Heuristic-5
  plans) and for exhaustive plans of the small fixtures: the admission
  report (``claimed_cost`` and ``certificate`` attached), the planner's
  expected cost, every certificate bound and every
  ``cost_decomposition`` field, floats as ``float.hex()``.

Regenerate only on purpose, with
``PYTHONPATH=src python -m tests.test_verifier_reports``, and say why.
It prints, per code, how many rows the new file gains or loses against
the committed one.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from repro.analysis import certificate_mutations, dataflow_mutations
from repro.core import (
    Attribute,
    ConditionNode,
    ConjunctiveQuery,
    RangePredicate,
    RangeVector,
    Schema,
    SequentialNode,
    SequentialStep,
    VerdictLeaf,
)
from repro.core.boolean import BooleanQuery, Leaf, Or
from repro.core.cost import cost_decomposition
from repro.core.cost_models import BoardAwareCostModel
from repro.data import generate_lab_dataset
from repro.engine.language import parse_query
from repro.faults.policy import DegradationMode, FaultPolicy
from repro.learn.workloads import adversarial_stream
from repro.planning import (
    CorrSeqPlanner,
    ExhaustivePlanner,
    GreedyConditionalPlanner,
)
from repro.probability import EmpiricalDistribution
from repro.verify import bytecode_mutations, plan_mutations, verify_bytecode, verify_plan
from repro.verify.mutations import canonical_conditional_plan, canonical_sequential_plan
from tests.test_plan_digests import _LAB_DOMAINS, _STREAM_TEXT, _lab_texts

GOLDEN = Path(__file__).parent / "data" / "verifier_reports.json"

# The NodeCostContribution fields the golden file pins.
_DECOMPOSITION_FIELDS = (
    "kind",
    "reach",
    "acquisition",
    "cost",
    "probability_below",
    "step_passes",
    "step_costs",
    "feasible",
    "is_leaf",
    "detail",
)


def _rows(diagnostics) -> list[list[str]]:
    return sorted(
        [d.severity.value, d.code, d.path, d.message, d.hint] for d in diagnostics
    )


def _hex(value: Any) -> Any:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return [_hex(item) for item in value]
    return value


def _decomposition(plan, distribution, **kwargs) -> dict[str, dict[str, Any]]:
    records = cost_decomposition(plan, distribution, **kwargs)
    return {
        path: {name: _hex(getattr(record, name)) for name in _DECOMPOSITION_FIELDS}
        for path, record in records.items()
    }


def _planned(result, schema, query, distribution) -> dict[str, Any]:
    report = verify_plan(
        result.plan,
        schema,
        query=query,
        distribution=distribution,
        claimed_cost=result.expected_cost,
        certificate=result.certificate,
    )
    return {
        "tree": result.plan.pretty(),
        "expected_cost": result.expected_cost.hex(),
        "report": _rows(report.diagnostics),
        "bounds": {
            path: bound.hex() for path, bound in result.certificate.bounds.items()
        },
        "decomposition": _decomposition(result.plan, distribution),
    }


def _fixtures() -> dict[str, tuple[Schema, ConjunctiveQuery, EmpiricalDistribution]]:
    pair = Schema(
        (
            Attribute(name="pressure", domain_size=8, cost=10.0),
            Attribute(name="flow", domain_size=8, cost=4.0),
        )
    )
    pair_query = ConjunctiveQuery(
        pair, (RangePredicate("pressure", 3, 6), RangePredicate("flow", 2, 7))
    )
    rng = np.random.default_rng(29)
    pair_data = np.column_stack(
        [rng.integers(1, 9, size=300), rng.integers(1, 9, size=300)]
    )
    triple = Schema(
        [Attribute("a", 8, 1.0), Attribute("b", 8, 2.0), Attribute("c", 8, 4.0)]
    )
    triple_query = ConjunctiveQuery(
        triple,
        [
            RangePredicate("a", 3, 6),
            RangePredicate("b", 2, 5),
            RangePredicate("c", 4, 7),
        ],
    )
    triple_data = np.random.default_rng(0).integers(1, 9, size=(500, 3))
    return {
        "pair": (
            pair,
            pair_query,
            EmpiricalDistribution(pair, pair_data, smoothing=0.5),
        ),
        "triple": (
            triple,
            triple_query,
            EmpiricalDistribution(triple, triple_data, smoothing=0.5),
        ),
    }


class _InconsistentModel:
    """Delegates to a real distribution but claims P(below) = 1.5."""

    def __init__(self, inner: EmpiricalDistribution) -> None:
        self._inner = inner
        self.schema = inner.schema

    def split_probability(self, index, value, ranges):
        return 1.5

    def sequential_conditioner(self, ranges):
        return self._inner.sequential_conditioner(ranges)


def _edge_reports(schema, query, distribution) -> dict[str, list[list[str]]]:
    sequential = canonical_sequential_plan(query)
    conditional = canonical_conditional_plan(query)
    first = query.attribute_indices[0]
    name = schema[first].name
    split = ConditionNode(
        attribute=name,
        attribute_index=first,
        split_value=5,
        below=sequential,
        above=sequential,
    )
    # Every history row sits at 5 on the first attribute: the below
    # branch of a split at 5 is dead under the model (P = 0), and the
    # above branch of a split at 6 inside it is too (P = 1 there).
    pinned = np.random.default_rng(3).integers(1, 9, size=(200, len(schema)))
    pinned[:, first] = 5
    dead_model = EmpiricalDistribution(schema, pinned, smoothing=0.0)
    nested = ConditionNode(
        attribute=name,
        attribute_index=first,
        split_value=6,
        below=split,
        above=sequential,
    )
    narrowed = RangeVector.full(schema).with_range(
        first, RangeVector.full(schema)[first].split_at(3)[1]
    )
    boards = BoardAwareCostModel(
        schema, {0: "board", 1: "board"}, power_up_cost=3.0, per_read_cost=0.5
    )
    boolean = BooleanQuery(
        schema,
        Or(Leaf(query.predicates[0]), Leaf(query.predicates[1])),
    )
    # Broken nodes with defects below them: nothing below may be reported.
    ghost = ConditionNode(
        attribute="ghost",
        attribute_index=len(schema) + 1,
        split_value=3,
        below=VerdictLeaf(verdict=True),
        above=SequentialNode(steps=sequential.steps[:1]),
    )
    ghost_step = SequentialNode(
        steps=(
            SequentialStep(
                predicate=query.predicates[0], attribute_index=len(schema) + 2
            ),
        )
        + sequential.steps
    )
    degenerate = ConditionNode(
        attribute=name,
        attribute_index=first,
        split_value=2,
        below=VerdictLeaf(verdict=True),
        above=VerdictLeaf(verdict=True),
    )
    # The constructor rejects a split at the domain minimum; a decoded
    # byte string can still carry one (DF004).
    object.__setattr__(degenerate, "split_value", 1)
    repeated = ConditionNode(
        attribute=name,
        attribute_index=first,
        split_value=5,
        below=ConditionNode(
            attribute=name,
            attribute_index=first,
            split_value=6,
            below=VerdictLeaf(verdict=True),
            above=SequentialNode(steps=sequential.steps[:1]),
        ),
        above=sequential,
    )
    broken_in_dead = ConditionNode(
        attribute=name,
        attribute_index=first,
        split_value=5,
        below=ConditionNode(
            attribute=name,
            attribute_index=first,
            split_value=7,
            below=VerdictLeaf(verdict=True),
            above=sequential,
        ),
        above=sequential,
    )
    # A query that leaves the last attribute as conditioning-only (FT003).
    partial = ConjunctiveQuery(schema, tuple(query.predicates[:-1]))
    last = len(schema) - 1
    conditioning = ConditionNode(
        attribute=schema[last].name,
        attribute_index=last,
        split_value=4,
        below=canonical_sequential_plan(partial),
        above=canonical_sequential_plan(partial),
    )
    cases = {
        "ghost-attribute": verify_plan(
            ghost, schema, query=query, distribution=distribution
        ),
        "ghost-step": verify_plan(
            ghost_step, schema, query=query, distribution=distribution
        ),
        "degenerate-split": verify_plan(
            degenerate, schema, query=query, distribution=distribution
        ),
        "repeated-split": verify_plan(
            repeated, schema, query=query, distribution=distribution
        ),
        "broken-in-dead": verify_plan(
            broken_in_dead, schema, query=query, distribution=dead_model
        ),
        "inconsistent-model": verify_plan(
            split, schema, query=query, distribution=_InconsistentModel(distribution)
        ),
        "dead-below": verify_plan(
            split, schema, query=query, distribution=dead_model
        ),
        "dead-nested": verify_plan(
            nested, schema, query=query, distribution=dead_model
        ),
        "narrowed-root": verify_plan(
            sequential,
            schema,
            query=query,
            distribution=distribution,
            ranges=narrowed,
        ),
        "narrowed-root-conditional": verify_plan(
            split, schema, query=query, distribution=distribution, ranges=narrowed
        ),
        "board-cost-model": verify_plan(
            conditional,
            schema,
            query=query,
            distribution=distribution,
            cost_model=boards,
            claimed_cost=1.0,
        ),
        "boolean-sequential": verify_plan(sequential, schema, query=boolean),
        "boolean-verdicts": verify_plan(
            ConditionNode(
                attribute=name,
                attribute_index=first,
                split_value=3,
                below=VerdictLeaf(verdict=False),
                above=VerdictLeaf(verdict=True),
            ),
            schema,
            query=boolean,
            distribution=distribution,
        ),
    }
    for mode in DegradationMode:
        for confirm in (True, False):
            policy = FaultPolicy(degradation=mode, confirm_positives=confirm)
            for plan_name, plan in (("split", split), ("conditional", conditional)):
                cases[f"ft-{mode.value}-{confirm}-{plan_name}"] = verify_plan(
                    plan, schema, query=query, fault_policy=policy
                )
            cases[f"ft-{mode.value}-{confirm}-conditioning"] = verify_plan(
                conditioning, schema, query=partial, fault_policy=policy
            )
    return {name: _rows(report.diagnostics) for name, report in cases.items()}


def _fixture_reports() -> dict[str, Any]:
    out: dict[str, Any] = {}
    for fixture, (schema, query, distribution) in _fixtures().items():
        reports: dict[str, Any] = {}
        for case in plan_mutations(query):
            reports[f"plan/{case.name}"] = _rows(
                verify_plan(case.plan, schema, query=query).diagnostics
            )
            reports[f"plan-costed/{case.name}"] = _rows(
                verify_plan(
                    case.plan, schema, query=query, distribution=distribution
                ).diagnostics
            )
        for case in bytecode_mutations(query):
            reports[f"bytecode/{case.name}"] = _rows(
                verify_bytecode(
                    case.code, schema, query=query, distribution=distribution
                ).diagnostics
            )
        for case in dataflow_mutations(query):
            reports[f"dataflow/{case.name}"] = _rows(
                verify_plan(
                    case.plan, schema, query=query, distribution=distribution
                ).diagnostics
            )
        for case in certificate_mutations(query, distribution):
            reports[f"certificate/{case.name}"] = _rows(
                verify_plan(
                    case.plan,
                    schema,
                    query=query,
                    distribution=distribution,
                    certificate=case.certificate,
                ).diagnostics
            )
        for name, rows in _edge_reports(schema, query, distribution).items():
            reports[f"edge/{name}"] = rows
        reports["exhaustive"] = _planned(
            ExhaustivePlanner(distribution).plan(query), schema, query, distribution
        )
        out[fixture] = reports
    return out


def _greedy(schema, history: np.ndarray, text: str) -> dict[str, Any]:
    distribution = EmpiricalDistribution(schema, history)
    planner = GreedyConditionalPlanner(
        distribution, CorrSeqPlanner(distribution), max_splits=5
    )
    query = parse_query(text, schema).query
    return _planned(planner.plan(query), schema, query, distribution)


def _digest_plan_reports() -> dict[str, Any]:
    """The plan set of ``tests/test_plan_digests.py``, in its key scheme."""
    lab = generate_lab_dataset(
        n_readings=40_000, n_motes=8, seed=0, domain_sizes=_LAB_DOMAINS
    )
    schema = lab.schema
    train = lab.data[:20_000]
    histories = {
        "train": train,
        "refit-1000": train[1_000:17_000],
        "refit-4000": train[4_000:20_000],
    }
    pools = {
        "serve_hot": _lab_texts(schema, train, 24, pool_seed=11),
        "plan_churn": _lab_texts(schema, train, 36, pool_seed=23),
    }
    out: dict[str, Any] = {}
    for history_name, history in histories.items():
        for pool_name, texts in pools.items():
            for position, text in enumerate(texts):
                key = f"lab/{history_name}/{pool_name}/{position}"
                out[key] = _greedy(schema, history, text)
    for seed in range(25):
        stream = adversarial_stream(3, 90, seed=seed)
        for end in (96, 150, 210, 270):
            window = stream.data[end - 96 : end]
            out[f"stream/{seed}/{end}"] = _greedy(stream.schema, window, _STREAM_TEXT)
    return out


def compute_reports() -> dict[str, Any]:
    return {"fixtures": _fixture_reports(), "plans": _digest_plan_reports()}


@pytest.fixture(scope="module")
def reports() -> dict[str, Any]:
    # Round-trip through JSON so tuples and lists compare alike.
    return json.loads(json.dumps(compute_reports()))


def test_golden_file_covers_every_case(reports):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden["plans"]) == sorted(reports["plans"])
    assert len(golden["plans"]) == 3 * (24 + 36) + 100
    assert {
        fixture: sorted(cases) for fixture, cases in golden["fixtures"].items()
    } == {fixture: sorted(cases) for fixture, cases in reports["fixtures"].items()}


def test_fixture_reports_match_golden(reports):
    golden = json.loads(GOLDEN.read_text())
    moved = [
        f"{fixture}/{case}"
        for fixture, cases in golden["fixtures"].items()
        for case in cases
        if cases[case] != reports["fixtures"][fixture].get(case)
    ]
    assert not moved, f"{len(moved)} fixture reports moved: {moved}"


def test_plan_reports_match_golden(reports):
    golden = json.loads(GOLDEN.read_text())
    moved = [key for key in golden["plans"] if golden["plans"][key] != reports["plans"][key]]
    assert not moved, f"{len(moved)} plans moved, first {moved[0]}: " + json.dumps(
        {"golden": golden["plans"][moved[0]], "now": reports["plans"][moved[0]]},
        indent=1,
    )


def code_counts(golden: dict[str, Any]) -> Counter:
    """Rows per diagnostic code, over every report of a golden file."""
    counts: Counter = Counter()
    for cases in [*golden["fixtures"].values(), golden["plans"]]:
        for entry in cases.values():
            rows = entry["report"] if isinstance(entry, dict) else entry
            counts.update(row[1] for row in rows)
    return counts


if __name__ == "__main__":
    fresh = compute_reports()
    before = code_counts(json.loads(GOLDEN.read_text())) if GOLDEN.exists() else Counter()
    after = code_counts(fresh)
    print("| code | rows before | rows after | change |")
    print("|---|---|---|---|")
    for code in sorted(before | after):
        if before[code] != after[code]:
            change = after[code] - before[code]
            print(f"| {code} | {before[code]} | {after[code]} | {change:+d} |")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
