"""Tests for the ``repro analyze`` CLI verb."""

import json

import pytest

from repro.cli import build_parser, main
from repro.corpus import run_corpus
from repro.core import (
    Attribute,
    ConditionNode,
    ConjunctiveQuery,
    RangePredicate,
    Schema,
)
from repro.data.trace_io import load_plan, save_plan, save_schema
from repro.verify.mutations import canonical_conditional_plan


@pytest.fixture
def schema():
    return Schema(
        (
            Attribute("pressure", domain_size=8, cost=10.0),
            Attribute("flow", domain_size=8, cost=4.0),
        )
    )


@pytest.fixture
def query(schema):
    return ConjunctiveQuery(
        schema,
        (RangePredicate("pressure", 3, 6), RangePredicate("flow", 2, 7)),
    )


@pytest.fixture
def artifacts(tmp_path, schema, query):
    """schema.json + a clean plan + a plan with a dead re-split branch."""
    save_schema(schema, tmp_path / "schema.json")
    clean = canonical_conditional_plan(query)
    save_plan(clean, tmp_path / "clean.json")
    dirty = ConditionNode(
        attribute="pressure",
        attribute_index=0,
        split_value=3,
        below=ConditionNode(
            attribute="pressure",
            attribute_index=0,
            split_value=3,
            below=clean,
            above=clean,
        ),
        above=clean,
    )
    save_plan(dirty, tmp_path / "dirty.json")
    return tmp_path


QUERY_TEXT = "SELECT * WHERE pressure >= 3 AND pressure <= 6 AND flow >= 2 AND flow <= 7"


class TestParser:
    def test_analyze_args(self):
        args = build_parser().parse_args(
            ["analyze", "--schema", "s.json", "--plan", "p.json", "--fix"]
        )
        assert args.command == "analyze"
        assert args.fix and not args.suite

    def test_suite_flag(self):
        args = build_parser().parse_args(["analyze", "--suite"])
        assert args.suite


class TestFileMode:
    def test_clean_plan_exits_zero(self, artifacts, capsys):
        code = main(
            [
                "analyze",
                "--schema",
                str(artifacts / "schema.json"),
                "--plan",
                str(artifacts / "clean.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "root" in out and "clean" in out

    def test_dirty_plan_exits_one_and_reports_df(self, artifacts, capsys):
        code = main(
            [
                "analyze",
                "--schema",
                str(artifacts / "schema.json"),
                "--plan",
                str(artifacts / "dirty.json"),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "DF004" in out

    def test_query_enables_truth_annotations(self, artifacts, capsys):
        code = main(
            [
                "analyze",
                "--schema",
                str(artifacts / "schema.json"),
                "--plan",
                str(artifacts / "clean.json"),
                "--query",
                QUERY_TEXT,
            ]
        )
        assert code == 0
        assert "always false" in capsys.readouterr().out

    def test_missing_plan_is_usage_error(self, artifacts, capsys):
        code = main(["analyze", "--schema", str(artifacts / "schema.json")])
        assert code == 2

    def test_json_output(self, artifacts, capsys):
        code = main(
            [
                "analyze",
                "--schema",
                str(artifacts / "schema.json"),
                "--plan",
                str(artifacts / "dirty.json"),
                "--json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["ok"] is False
        assert "root" in payload["states"]
        codes = {d["code"] for d in payload["report"]["diagnostics"]}
        assert "DF004" in codes


class TestFix:
    def test_fix_writes_smaller_plan(self, artifacts, capsys):
        out_path = artifacts / "fixed.json"
        code = main(
            [
                "analyze",
                "--schema",
                str(artifacts / "schema.json"),
                "--plan",
                str(artifacts / "dirty.json"),
                "--fix",
                "--out",
                str(out_path),
            ]
        )
        assert code == 1  # exit code reflects the *input* plan's findings
        dirty = load_plan(artifacts / "dirty.json")
        fixed = load_plan(out_path)
        assert fixed.size_nodes() < dirty.size_nodes()
        assert "fix: wrote optimized plan" in capsys.readouterr().out
        # The fixed plan is clean.
        assert (
            main(
                [
                    "analyze",
                    "--schema",
                    str(artifacts / "schema.json"),
                    "--plan",
                    str(out_path),
                ]
            )
            == 0
        )

    def test_fix_defaults_to_overwriting_plan(self, artifacts):
        plan_path = artifacts / "dirty.json"
        before = load_plan(plan_path).size_nodes()
        main(
            [
                "analyze",
                "--schema",
                str(artifacts / "schema.json"),
                "--plan",
                str(plan_path),
                "--fix",
            ]
        )
        assert load_plan(plan_path).size_nodes() < before

    def test_fix_keeps_clean_plan_identical(self, artifacts):
        plan_path = artifacts / "clean.json"
        before = load_plan(plan_path)
        code = main(
            [
                "analyze",
                "--schema",
                str(artifacts / "schema.json"),
                "--plan",
                str(plan_path),
                "--fix",
                "--query",
                QUERY_TEXT,
            ]
        )
        assert code == 0
        assert load_plan(plan_path) == before


class TestSuiteSelfTest:
    def test_mutation_corpus_self_test_is_clean(self):
        # The suite's DF corpus check: every seeded mutation fires, every
        # clean control stays silent.  Running it directly keeps the slow
        # planner sweep out of the unit-test tier.
        assert run_corpus("dataflow") == []
