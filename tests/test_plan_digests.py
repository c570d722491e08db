"""Golden plan digests: Heuristic-5 plans must not move by accident.

``tests/data/plan_digests.json`` records, for every plan below, the plan
tree, its :class:`~repro.planning.PlannerStats` and its expected cost to
12 significant digits.  The planner under test is the engine's default
(Heuristic-5 over CorrSeq) on:

- the perfbench lab workloads' 24 ``serve_hot`` and 36 ``plan_churn``
  shapes, each planned on the 20,000-row training half and on two
  16,000-row refit slices of it;
- 100 refit windows of 96 rows from ``adversarial_stream``, planned for
  the stream workload's statement.

A change that means to move plans regenerates the file with
``PYTHONPATH=src python -m tests.test_plan_digests`` and says why; any
other change must leave every digest as it is.  The 12-digit rounding
keeps the last-bit noise of a numpy upgrade out, while a changed tree,
counter or cost still fails.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data import generate_lab_dataset
from repro.engine.language import parse_query
from repro.learn.workloads import adversarial_stream
from repro.planning import CorrSeqPlanner, GreedyConditionalPlanner
from repro.probability import EmpiricalDistribution

GOLDEN = Path(__file__).parent / "data" / "plan_digests.json"

_LAB_DOMAINS = {"hour": 8, "voltage": 4, "light": 6, "temp": 6, "humidity": 6}
_SENSOR_SETS = (
    ("light", "temp", "humidity"),
    ("light", "temp"),
    ("temp", "humidity"),
    ("light", "humidity"),
)
_SELECTS = 4
_STREAM_TEXT = (
    "SELECT * WHERE mode BETWEEN 1 AND 3 AND p BETWEEN 1 AND 2 "
    "AND q BETWEEN 1 AND 2"
)


def _lab_texts(schema, train: np.ndarray, count: int, pool_seed: int) -> list[str]:
    """The WHERE clauses of perfbench's lab shape pool, in pool order.

    Replays the pool's draws (sensors, width, left ends, SELECT list) so
    the same ``count`` shapes come out; shapes differing only in their
    SELECT list plan alike and share a text here.
    """
    names = list(schema.names)
    rng = np.random.default_rng(pool_seed)
    seen: set[tuple[str, int]] = set()
    texts: list[str] = []
    while len(seen) < count:
        sensors = _SENSOR_SETS[int(rng.integers(len(_SENSOR_SETS)))]
        width_stds = float(rng.choice([1.0, 1.5, 2.0]))
        clauses = []
        for name in sensors:
            column = names.index(name)
            domain = schema[column].domain_size
            width = int(round(width_stds * float(train[:, column].std())))
            width = min(max(1, width), domain - 1)
            left = int(rng.integers(1, domain - width + 1))
            clauses.append(f"{name} BETWEEN {left} AND {left + width}")
        text = "SELECT * WHERE " + " AND ".join(clauses)
        key = (text, int(rng.integers(_SELECTS)))
        if key not in seen:
            seen.add(key)
            texts.append(text)
    return texts


def _digest(schema, history: np.ndarray, text: str) -> dict:
    distribution = EmpiricalDistribution(schema, history)
    planner = GreedyConditionalPlanner(
        distribution, CorrSeqPlanner(distribution), max_splits=5
    )
    result = planner.plan(parse_query(text, schema).query)
    return {
        "tree": result.plan.pretty(),
        "stats": dataclasses.asdict(result.stats),
        "cost": f"{result.expected_cost:.12g}",
    }


def compute_digests() -> dict[str, dict]:
    """Every digest the golden file holds, keyed by history and shape."""
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
    digests: dict[str, dict] = {}
    for history_name, history in histories.items():
        for pool_name, texts in pools.items():
            for position, text in enumerate(texts):
                key = f"lab/{history_name}/{pool_name}/{position}"
                digests[key] = _digest(schema, history, text)
    for seed in range(25):
        stream = adversarial_stream(3, 90, seed=seed)
        for end in (96, 150, 210, 270):
            window = stream.data[end - 96 : end]
            key = f"stream/{seed}/{end}"
            digests[key] = _digest(stream.schema, window, _STREAM_TEXT)
    return digests


@pytest.fixture(scope="module")
def digests() -> dict[str, dict]:
    return compute_digests()


def test_golden_file_covers_every_plan(digests):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(digests)
    assert len(golden) == 3 * (24 + 36) + 100


def test_plans_match_golden_digests(digests):
    golden = json.loads(GOLDEN.read_text())
    moved = [key for key in golden if golden[key] != digests.get(key)]
    assert not moved, f"{len(moved)} plans moved, first {moved[0]}: " + json.dumps(
        {"golden": golden[moved[0]], "now": digests.get(moved[0])}, indent=1
    )


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
