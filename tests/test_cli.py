"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data import load_plan, load_schema, load_trace


@pytest.fixture
def trace_dir(tmp_path):
    """A generated lab trace on disk, shared across CLI tests."""
    out = tmp_path / "trace"
    code = main(
        [
            "generate",
            "lab",
            "--rows",
            "6000",
            "--motes",
            "5",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    return out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "garden", "--rows", "100", "--out-dir", "/tmp/x"]
        )
        assert args.dataset == "garden"
        assert args.rows == 100


class TestGenerate:
    def test_lab_artifacts(self, trace_dir):
        schema = load_schema(trace_dir / "schema.json")
        assert "light" in schema
        train = load_trace(trace_dir / "train.csv", schema)
        test = load_trace(trace_dir / "test.csv", schema)
        assert len(train) + len(test) == 6000

    def test_synthetic(self, tmp_path, capsys):
        out = tmp_path / "syn"
        code = main(
            [
                "generate",
                "synthetic",
                "--rows",
                "500",
                "--motes",
                "8",
                "--gamma",
                "3",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        schema = load_schema(out / "schema.json")
        assert len(schema) == 8

    def test_garden(self, tmp_path):
        out = tmp_path / "g"
        assert (
            main(
                [
                    "generate",
                    "garden",
                    "--rows",
                    "300",
                    "--motes",
                    "3",
                    "--out-dir",
                    str(out),
                ]
            )
            == 0
        )
        schema = load_schema(out / "schema.json")
        assert len(schema) == 10  # 3 motes x 3 + hour


class TestPlanAndExecute:
    QUERY = "SELECT * WHERE light >= 9 AND temp <= 5"

    def test_plan_writes_plan_json(self, trace_dir, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        code = main(
            [
                "plan",
                "--schema",
                str(trace_dir / "schema.json"),
                "--trace",
                str(trace_dir / "train.csv"),
                "--query",
                self.QUERY,
                "--out",
                str(plan_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "expected cost/tuple" in output
        plan = load_plan(plan_path)
        assert plan.size_nodes() >= 1

    def test_execute_reports_costs(self, trace_dir, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        main(
            [
                "plan",
                "--schema",
                str(trace_dir / "schema.json"),
                "--trace",
                str(trace_dir / "train.csv"),
                "--query",
                self.QUERY,
                "--out",
                str(plan_path),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "execute",
                "--schema",
                str(trace_dir / "schema.json"),
                "--plan",
                str(plan_path),
                "--trace",
                str(trace_dir / "test.csv"),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "mean cost/tuple" in output

    def test_explain_prints_annotations(self, trace_dir, capsys):
        code = main(
            [
                "explain",
                "--schema",
                str(trace_dir / "schema.json"),
                "--trace",
                str(trace_dir / "train.csv"),
                "--query",
                self.QUERY,
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "p=" in output

    def test_compare_lists_planners(self, trace_dir, capsys):
        code = main(
            [
                "compare",
                "--schema",
                str(trace_dir / "schema.json"),
                "--trace",
                str(trace_dir / "train.csv"),
                "--test",
                str(trace_dir / "test.csv"),
                "--query",
                self.QUERY,
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "naive" in output and "heuristic" in output

    def test_planner_choices(self, trace_dir, capsys):
        for planner in ("naive", "corr-seq", "greedy-seq"):
            code = main(
                [
                    "plan",
                    "--schema",
                    str(trace_dir / "schema.json"),
                    "--trace",
                    str(trace_dir / "train.csv"),
                    "--query",
                    self.QUERY,
                    "--planner",
                    planner,
                ]
            )
            assert code == 0


class TestServeBench:
    def test_reports_speedup_and_writes_json(self, trace_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "serve-bench",
                "--schema",
                str(trace_dir / "schema.json"),
                "--trace",
                str(trace_dir / "train.csv"),
                "--live",
                str(trace_dir / "test.csv"),
                "--shapes",
                "5",
                "--requests",
                "30",
                "--rows-per-request",
                "32",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "cache on" in captured and "q/s" in captured
        report = json.loads(out.read_text())
        assert report["cache_on"]["queries_per_second"] > 0
        assert report["cache_off"]["queries_per_second"] > 0
        assert report["cache_on"]["stats"]["cache"]["hits"] > 0

    def test_batched_admission(self, trace_dir, capsys):
        code = main(
            [
                "serve-bench",
                "--schema",
                str(trace_dir / "schema.json"),
                "--trace",
                str(trace_dir / "train.csv"),
                "--shapes",
                "4",
                "--requests",
                "20",
                "--batch-size",
                "8",
            ]
        )
        assert code == 0
        assert "hit rate" in capsys.readouterr().out


class TestCacheStats:
    def test_prints_fingerprints_and_snapshot(self, trace_dir, capsys):
        code = main(
            [
                "cache-stats",
                "--schema",
                str(trace_dir / "schema.json"),
                "--trace",
                str(trace_dir / "train.csv"),
                "--query",
                "SELECT * WHERE temp >= 5 AND light <= 4",
                "--query",
                "SELECT * WHERE light <= 4 AND temp >= 5",
                "--repeat",
                "3",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        fingerprints = {
            line.split()[0] for line in captured.splitlines() if "SELECT" in line
        }
        assert len(fingerprints) == 1  # permuted spellings share a slot
        snapshot = json.loads(captured[captured.index("{") :])
        assert snapshot["cache"]["hits"] == 5
        assert snapshot["counters"]["plans_built"] == 1


class TestErrors:
    def test_bad_query_reports_error(self, trace_dir, capsys):
        code = main(
            [
                "plan",
                "--schema",
                str(trace_dir / "schema.json"),
                "--trace",
                str(trace_dir / "train.csv"),
                "--query",
                "SELECT * WHERE nonsense >= 1",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_reports_error(self, tmp_path, capsys):
        code = main(
            [
                "execute",
                "--schema",
                str(tmp_path / "nope.json"),
                "--plan",
                str(tmp_path / "nope2.json"),
                "--trace",
                str(tmp_path / "nope3.csv"),
            ]
        )
        assert code == 2


class TestVersionAndLogging:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_log_level_routes_status_to_stderr(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = main(
            [
                "--log-level",
                "info",
                "generate",
                "garden",
                "--rows",
                "200",
                "--motes",
                "2",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "wrote" in captured.err  # status goes through logging
        assert "wrote" not in captured.out

    def test_default_level_suppresses_status(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = main(
            [
                "generate",
                "garden",
                "--rows",
                "200",
                "--motes",
                "2",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "wrote" not in captured.err
        assert "wrote" not in captured.out


class TestProfileCommand:
    QUERY = "SELECT * WHERE light >= 9 AND temp <= 5"

    def test_tree_shows_predicted_vs_observed(self, trace_dir, capsys):
        code = main(
            [
                "profile",
                "--schema",
                str(trace_dir / "schema.json"),
                "--trace",
                str(trace_dir / "train.csv"),
                "--test",
                str(trace_dir / "test.csv"),
                "--query",
                self.QUERY,
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "drift" in output
        assert "pred=" in output and "obs=" in output
        assert "cost/tuple" in output

    def test_json_report(self, trace_dir, tmp_path, capsys):
        out = tmp_path / "profile.json"
        code = main(
            [
                "profile",
                "--schema",
                str(trace_dir / "schema.json"),
                "--trace",
                str(trace_dir / "train.csv"),
                "--query",
                self.QUERY,
                "--json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query"] == self.QUERY
        assert payload["tuples"] > 0
        assert payload["nodes"]
        assert "drift" in payload
        assert json.loads(out.read_text()) == payload


class TestMetricsCommand:
    QUERY = "SELECT * WHERE light >= 9 AND temp <= 5"

    def _run(self, trace_dir, *extra):
        return main(
            [
                "metrics",
                "--schema",
                str(trace_dir / "schema.json"),
                "--trace",
                str(trace_dir / "train.csv"),
                "--query",
                self.QUERY,
                "--repeat",
                "3",
                *extra,
            ]
        )

    def test_prometheus_output_parses(self, trace_dir, capsys):
        from repro.obs import parse_prometheus

        assert self._run(trace_dir, "--profiling") == 0
        samples = parse_prometheus(capsys.readouterr().out)
        assert samples["repro_queries_total"] == 3
        assert samples['repro_cache_events_total{event="hit"}'] == 2
        assert samples["repro_profiled_plans"] == 1

    def test_json_output(self, trace_dir, capsys):
        assert self._run(trace_dir, "--format", "json") == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["queries"] == 3
        assert snapshot["counters"]["plans_built"] == 1


class TestServeBenchObservability:
    def test_metrics_and_trace_outputs(self, trace_dir, tmp_path, capsys):
        from repro.obs import TRACE_PHASES, parse_prometheus

        metrics_out = tmp_path / "metrics.json"
        trace_out = tmp_path / "trace.jsonl"
        code = main(
            [
                "serve-bench",
                "--schema",
                str(trace_dir / "schema.json"),
                "--trace",
                str(trace_dir / "train.csv"),
                "--shapes",
                "4",
                "--requests",
                "20",
                "--rows-per-request",
                "32",
                "--metrics-out",
                str(metrics_out),
                "--trace-out",
                str(trace_out),
            ]
        )
        assert code == 0
        doc = json.loads(metrics_out.read_text())
        samples = parse_prometheus(doc["prometheus"])
        assert samples["repro_queries_total"] == 20
        assert doc["snapshot"]["counters"]["queries"] == 20
        phases = set()
        for line in trace_out.read_text().splitlines():
            event = json.loads(line)
            assert event["phase"] in TRACE_PHASES
            phases.add(event["phase"])
        assert {"plan", "execute", "cache-hit", "cache-miss"} <= phases

    def test_trace_out_tracer_buffers_nothing(self, trace_dir, tmp_path, monkeypatch):
        from tests.test_cli_sharded import record_cli_tracers

        tracers = record_cli_tracers(monkeypatch)
        trace_out = tmp_path / "trace.jsonl"
        code = main(
            [
                "serve-bench",
                "--schema",
                str(trace_dir / "schema.json"),
                "--trace",
                str(trace_dir / "train.csv"),
                "--shapes",
                "4",
                "--requests",
                "20",
                "--rows-per-request",
                "32",
                "--trace-out",
                str(trace_out),
            ]
        )
        assert code == 0
        (tracer,) = tracers
        lines = trace_out.read_text().splitlines()
        assert tracer.events == ()
        assert tracer.emitted == len(lines) > 0


class TestLintPlan:
    QUERY = "SELECT * WHERE light >= 9 AND temp <= 5"

    def _planned(self, trace_dir, tmp_path):
        plan_path = tmp_path / "plan.json"
        code = main(
            [
                "plan",
                "--schema",
                str(trace_dir / "schema.json"),
                "--trace",
                str(trace_dir / "train.csv"),
                "--query",
                self.QUERY,
                "--out",
                str(plan_path),
            ]
        )
        assert code == 0
        return plan_path

    def test_clean_plan_exits_zero(self, trace_dir, tmp_path, capsys):
        plan_path = self._planned(trace_dir, tmp_path)
        capsys.readouterr()
        code = main(
            [
                "lint-plan",
                "--schema",
                str(trace_dir / "schema.json"),
                "--plan",
                str(plan_path),
                "--trace",
                str(trace_dir / "train.csv"),
                "--query",
                self.QUERY,
            ]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_wrong_query_exits_nonzero_with_codes(
        self, trace_dir, tmp_path, capsys
    ):
        plan_path = self._planned(trace_dir, tmp_path)
        capsys.readouterr()
        code = main(
            [
                "lint-plan",
                "--schema",
                str(trace_dir / "schema.json"),
                "--plan",
                str(plan_path),
                "--query",
                "SELECT * WHERE humidity >= 4",
            ]
        )
        assert code == 1
        output = capsys.readouterr().out
        assert "SEM" in output

    def test_json_output(self, trace_dir, tmp_path, capsys):
        plan_path = self._planned(trace_dir, tmp_path)
        capsys.readouterr()
        code = main(
            [
                "lint-plan",
                "--schema",
                str(trace_dir / "schema.json"),
                "--plan",
                str(plan_path),
                "--query",
                self.QUERY,
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["errors"] == 0

    def test_bytecode_mode(self, trace_dir, tmp_path, capsys):
        from repro.execution import compile_plan

        plan_path = self._planned(trace_dir, tmp_path)
        plan = load_plan(plan_path)
        code_path = tmp_path / "plan.bin"
        code_path.write_bytes(compile_plan(plan))
        capsys.readouterr()
        code = main(
            [
                "lint-plan",
                "--schema",
                str(trace_dir / "schema.json"),
                "--bytecode",
                str(code_path),
                "--query",
                self.QUERY,
            ]
        )
        assert code == 0

    def test_corrupt_bytecode_rejected(self, trace_dir, tmp_path, capsys):
        from repro.execution import compile_plan

        plan_path = self._planned(trace_dir, tmp_path)
        plan = load_plan(plan_path)
        blob = bytearray(compile_plan(plan))
        blob = blob[:-1]  # truncate
        code_path = tmp_path / "plan.bin"
        code_path.write_bytes(bytes(blob))
        capsys.readouterr()
        code = main(
            [
                "lint-plan",
                "--schema",
                str(trace_dir / "schema.json"),
                "--bytecode",
                str(code_path),
            ]
        )
        assert code == 1
        assert "BC" in capsys.readouterr().out

    def test_plan_and_bytecode_together_is_an_error(self, tmp_path, capsys):
        code = main(
            [
                "lint-plan",
                "--schema",
                str(tmp_path / "schema.json"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestLearnBench:
    ARGS = ["learn-bench", "--segments", "3", "--segment-length", "250"]

    def test_gates_pass_and_json_written(self, tmp_path, capsys):
        out = tmp_path / "learned.json"
        code = main(self.ARGS + ["--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "bandit" in captured and "gate" in captured
        report = json.loads(out.read_text())
        strategies = {run["name"]: run for run in report["strategies"]}
        assert set(strategies) == {
            "oracle",
            "never-replan",
            "chi-square-refit",
            "bandit",
        }
        assert (
            strategies["bandit"]["total_cost"]
            < strategies["never-replan"]["total_cost"]
        )
        assert all(report["gates"].values())
        # Regret curves are present for plotting, sampled on a shared axis.
        assert set(report["regret_curves"]) == {
            "never-replan",
            "chi-square-refit",
            "bandit",
        }
        for curve in report["regret_curves"].values():
            assert len(curve) == len(report["curve_positions"])

    def test_json_flag_prints_the_report(self, capsys):
        code = main(self.ARGS + ["--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ledger"]["budget"] > 0
        assert report["ledger"]["exploration_cost"] <= report["ledger"]["budget"]
