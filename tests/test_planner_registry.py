"""One planner-by-name table: the CLI and a shard build the same plan."""

from __future__ import annotations

import pytest

from tests.conftest import make_day_night_data
from repro.cli import main
from repro.cluster import ShardConfig, ShardServer
from repro.core import Attribute, Schema
from repro.data.trace_io import load_plan, save_schema, save_trace
from repro.exceptions import ClusterError
from repro.planning import PLANNER_NAMES

SCHEMA = Schema(
    [
        Attribute("hour", 2, 0.0),
        Attribute("temp", 2, 1.0),
        Attribute("light", 2, 1.0),
    ]
)
HISTORY = make_day_night_data()
TEXT = "SELECT temp WHERE temp = 2 AND light = 2"
SHARD_NAMES = ("naive", "greedy-seq", "opt-seq", "corr-seq", "heuristic")


@pytest.mark.parametrize("name", SHARD_NAMES)
def test_cli_and_shard_build_the_same_plan(name: str, tmp_path, capsys) -> None:
    save_schema(SCHEMA, tmp_path / "schema.json")
    save_trace(HISTORY, SCHEMA, tmp_path / "train.csv")
    argv = ["plan", "--schema", str(tmp_path / "schema.json")]
    argv += ["--trace", str(tmp_path / "train.csv"), "--query", TEXT]
    argv += ["--planner", name, "--out", str(tmp_path / "plan.json")]
    assert main(argv) == 0
    capsys.readouterr()
    shard = ShardServer(0, ShardConfig(schema=SCHEMA, history=HISTORY, planner=name))
    assert shard.service.plan_for(TEXT).plan == load_plan(tmp_path / "plan.json")


def test_shard_accepts_every_name_but_exhaustive() -> None:
    assert set(PLANNER_NAMES) - set(SHARD_NAMES) == {"exhaustive"}
    with pytest.raises(ClusterError):
        ShardConfig(schema=SCHEMA, history=HISTORY, planner="exhaustive")
