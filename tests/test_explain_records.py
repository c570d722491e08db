"""EXPLAIN, the drift monitor and ``repro profile`` print one set of numbers.

A plan's predicted per-node numbers have one producer, the Eq. 3 walk
(:func:`repro.core.cost.cost_decomposition`).  For every plan of
``tests/test_plan_digests.py`` EXPLAIN's ``p``, ``reach`` and ``pass``
figures must be the records' values, and the predicted fields of
``profile_report``'s dict must be the same values.  The set holds plans
with a sequential leaf whose all-pass reaches 0 before its last step;
the walk leaves the later steps at 0.0, and EXPLAIN prints that.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core import Attribute, ConditionNode, Schema, VerdictLeaf, annotate_plan
from repro.core.cost import cost_decomposition
from repro.data import generate_lab_dataset
from repro.engine.language import parse_query
from repro.learn.workloads import adversarial_stream
from repro.obs import DriftMonitor, PlanProfile
from repro.obs.report import profile_report
from repro.planning import CorrSeqPlanner, GreedyConditionalPlanner
from repro.probability import EmpiricalDistribution
from tests.test_plan_digests import _LAB_DOMAINS, _STREAM_TEXT, _lab_texts

_NUMBER = r"(-|-?\d+\.\d+)"


def _digest_plans():
    """(plan, distribution) for every digest plan, as the golden file plans them."""
    lab = generate_lab_dataset(
        n_readings=40_000, n_motes=8, seed=0, domain_sizes=_LAB_DOMAINS
    )
    train = lab.data[:20_000]
    texts = _lab_texts(lab.schema, train, 24, pool_seed=11) + _lab_texts(
        lab.schema, train, 36, pool_seed=23
    )
    workloads = [
        (lab.schema, history, text)
        for history in (train, train[1_000:17_000], train[4_000:20_000])
        for text in texts
    ]
    for seed in range(25):
        stream = adversarial_stream(3, 90, seed=seed)
        for end in (96, 150, 210, 270):
            workloads.append((stream.schema, stream.data[end - 96 : end], _STREAM_TEXT))
    plans = []
    for schema, history, text in workloads:
        distribution = EmpiricalDistribution(schema, history)
        planner = GreedyConditionalPlanner(
            distribution, CorrSeqPlanner(distribution), max_splits=5
        )
        plans.append((planner.plan(parse_query(text, schema).query).plan, distribution))
    return plans


@pytest.fixture(scope="module")
def digest_plans():
    return _digest_plans()


def _explained(text: str) -> list[dict]:
    """EXPLAIN's node lines in pre-order, parsed to their printed figures."""
    nodes: list[dict] = []
    for line in text.splitlines():
        body = line.strip()
        if body.startswith("else"):
            # The last condition still open is the one this else closes.
            opened = next(n for n in reversed(nodes) if "p" in n and "p_above" not in n)
            opened["p_above"] = re.search(rf"\[p={_NUMBER}\]", body).group(1)
            continue
        entry = {"reach": re.search(rf"reach={_NUMBER}", body).group(1)}
        if body.startswith("if"):
            entry["p"] = re.search(rf"\[p={_NUMBER},", body).group(1)
        if body.startswith("seq:"):
            entry["passes"] = re.findall(rf"\[pass={_NUMBER}\]", body)
        nodes.append(entry)
    return nodes


def _fmt(value: float | None, digits: int) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def _check_plan(plan, distribution) -> int:
    """Assert EXPLAIN and the profile report agree with the records; return
    how many steps come after an all-pass of 0."""
    records = cost_decomposition(plan, distribution)
    explained = _explained(annotate_plan(plan, distribution))
    assert len(explained) == len(records)
    report, _text = profile_report(
        plan, distribution, PlanProfile(distribution.schema)
    )
    assert list(report["nodes"]) == list(records)
    after_zero = 0
    for (path, record), printed in zip(records.items(), explained):
        predicted = report["nodes"][path]
        assert printed["reach"] == _fmt(record.reach, 3), path
        assert predicted["reach_predicted"] == round(record.reach, 6), path
        if record.kind == "condition":
            below = record.probability_below
            assert printed["p"] == _fmt(below, 3), path
            assert printed["p_above"] == _fmt(None if below is None else 1 - below, 3)
            assert predicted.get("p_below_predicted") == (
                None if below is None else round(below, 6)
            ), path
        if "passes" in printed:
            assert printed["passes"] == [_fmt(p, 2) for p in record.step_passes], path
            assert predicted.get("step_pass_predicted", []) == [
                round(p, 6) for p in record.step_passes
            ], path
            survival = 1.0
            for passed in record.step_passes:
                after_zero += survival == 0.0
                survival *= passed
    return after_zero


def test_explain_and_profile_print_the_records(digest_plans):
    assert len(digest_plans) == 280
    steps_after_zero = sum(
        _check_plan(plan, distribution) for plan, distribution in digest_plans
    )
    # Plans whose leaves run on past an all-pass of 0 are in the set.
    assert steps_after_zero > 0


def test_monitor_predictions_are_the_records(digest_plans):
    plan, distribution = digest_plans[0]
    assert DriftMonitor(plan, distribution).predictions == cost_decomposition(
        plan, distribution
    )


def test_zero_reach_split_prints_a_dash():
    schema = Schema([Attribute("a", 8, 1.0), Attribute("b", 8, 2.0)])
    data = np.random.default_rng(3).integers(1, 9, size=(200, 2))
    data[:, 0] = 5  # a split of ``a`` at 5 sends nothing below
    dead = EmpiricalDistribution(schema, data, smoothing=0.0)
    inner = ConditionNode(
        attribute="b",
        attribute_index=1,
        split_value=4,
        below=VerdictLeaf(verdict=True),
        above=VerdictLeaf(verdict=False),
    )
    plan = ConditionNode(
        attribute="a",
        attribute_index=0,
        split_value=5,
        below=inner,
        above=VerdictLeaf(verdict=True),
    )
    assert _check_plan(plan, dead) == 0
    lines = annotate_plan(plan, dead).splitlines()
    assert lines[1] == "    if b < 4:  [p=-, reach=0.000]"
    assert lines[3] == "    else (b >= 4):  [p=-]"
