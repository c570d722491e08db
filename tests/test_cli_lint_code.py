"""CLI tests for the ``lint-code`` verb (exit codes, JSON, --suite)."""

import json
import textwrap

import pytest

from repro.cli import main


@pytest.fixture
def violating_file(tmp_path):
    path = tmp_path / "bad_planner.py"
    path.write_text(
        textwrap.dedent(
            """
            import random


            def pick(items):
                return random.choice(items)
            """
        ).strip()
        + "\n"
    )
    return path


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "good_planner.py"
    path.write_text(
        textwrap.dedent(
            """
            import numpy as np


            def pick(items, seed):
                rng = np.random.default_rng(seed)
                return items[rng.integers(len(items))]
            """
        ).strip()
        + "\n"
    )
    return path


class TestFileMode:
    def test_clean_file_exits_zero(self, clean_file, capsys):
        assert main(["lint-code", str(clean_file)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violation_exits_one(self, violating_file, capsys):
        assert main(["lint-code", str(violating_file)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "ERROR" in out

    def test_json_output_is_machine_readable(self, violating_file, capsys):
        assert main(["lint-code", "--json", str(violating_file)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["code"] == "DET001"

    def test_out_writes_the_report_file(
        self, violating_file, tmp_path, capsys
    ):
        artifact = tmp_path / "report.json"
        assert (
            main(["lint-code", "--out", str(artifact), str(violating_file)])
            == 1
        )
        payload = json.loads(artifact.read_text())
        assert payload["errors"] == 1

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["lint-code", str(tmp_path / "nope.py")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_directory_is_a_usage_error(self, tmp_path, capsys):
        assert main(["lint-code", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_files_is_a_usage_error(self, capsys):
        assert main(["lint-code"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSuiteMode:
    def test_suite_self_tests_and_scans_clean(self, capsys):
        assert main(["lint-code", "--suite"]) == 0
        out = capsys.readouterr().out
        assert "corpus ok" in out
        assert "clean" in out

    def test_suite_json_carries_corpus_and_report(self, tmp_path, capsys):
        artifact = tmp_path / "suite.json"
        assert (
            main(["lint-code", "--suite", "--json", "--out", str(artifact)])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["corpus"]["ok"] is True
        assert payload["report"]["files"] > 50
        assert json.loads(artifact.read_text()) == payload

    def test_suite_rejects_positional_files(self, clean_file, capsys):
        assert main(["lint-code", "--suite", str(clean_file)]) == 2
        assert "error:" in capsys.readouterr().err
