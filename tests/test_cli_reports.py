"""The report verbs share one emitter; the two suites share one sweep."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.cli as cli
from repro.cli import REPORT_VERBS, main
from repro.corpus import FAMILIES

QUERY = "SELECT * WHERE light >= 9 AND temp <= 5"


def _trace(tmp_path):
    out = tmp_path / "trace"
    argv = ["generate", "lab", "--rows", "2000", "--motes", "3"]
    assert main(argv + ["--out-dir", str(out)]) == 0
    return out


def _profile_args(trace_dir):
    return [
        "profile",
        "--schema",
        str(trace_dir / "schema.json"),
        "--trace",
        str(trace_dir / "train.csv"),
        "--query",
        QUERY,
        "--max-splits",
        "2",
    ]


def _lint_code_args(tmp_path):
    source = tmp_path / "picker.py"
    source.write_text(
        textwrap.dedent(
            """
            import random


            def pick(items):
                return random.choice(items)
            """
        )
    )
    return ["lint-code", str(source)]


def _obs_report_args(tmp_path):
    trace = tmp_path / "traced.jsonl"
    trace.write_text("")
    return ["obs-report", "--trace", str(trace)]


# verb -> (argv of a usage error, argv whose --out report is checked, or
# None when the verb's --out is not a report path)
VERB_CASES = {
    "lint-plan": (lambda tmp: ["lint-plan"], None),
    "analyze": (lambda tmp: ["analyze"], None),
    "lint-code": (lambda tmp: ["lint-code"], _lint_code_args),
    "chaos": (
        lambda tmp: [
            "chaos",
            "--schema",
            str(tmp / "missing.json"),
            "--plan",
            str(tmp / "missing-plan.json"),
            "--trace",
            str(tmp / "missing.csv"),
            "--schedule",
            str(tmp / "missing-faults.json"),
        ],
        None,
    ),
    "obs-report": (
        lambda tmp: _obs_report_args(tmp) + ["--top", "-1"],
        _obs_report_args,
    ),
    "profile": (
        lambda tmp: [
            "profile",
            "--schema",
            str(tmp / "missing.json"),
            "--trace",
            str(tmp / "missing.csv"),
            "--query",
            QUERY,
        ],
        lambda tmp: _profile_args(_trace(tmp)),
    ),
    "learn-bench": (
        lambda tmp: ["learn-bench", "--segments", "0"],
        lambda tmp: ["learn-bench", "--segments", "2", "--segment-length", "100"],
    ),
}


def test_every_report_verb_has_a_case():
    assert set(VERB_CASES) == set(REPORT_VERBS)


@pytest.mark.parametrize("verb", sorted(VERB_CASES))
def test_report_verb_usage_error_and_out_file(verb, tmp_path, capsys):
    usage_args, out_args = VERB_CASES[verb]
    assert main(usage_args(tmp_path)) == 2
    assert "error:" in capsys.readouterr().err
    if out_args is None:
        return
    artifact = tmp_path / "report.json"
    code = main(out_args(tmp_path) + ["--json", "--out", str(artifact)])
    assert code in (0, 1)
    printed = capsys.readouterr().out
    assert artifact.read_text() == printed
    assert isinstance(json.loads(printed), dict)


def test_profile_out_writes_json_without_the_json_flag(tmp_path, capsys):
    artifact = tmp_path / "profile.json"
    assert main(_profile_args(_trace(tmp_path)) + ["--out", str(artifact)]) == 0
    assert "pred=" in capsys.readouterr().out
    payload = json.loads(artifact.read_text())
    assert payload["query"] == QUERY
    assert payload["nodes"]


def test_analyze_suite_sweeps_every_planner_and_corpus(capsys):
    assert main(["analyze", "--suite", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["errors"] == 0
    assert len(payload["results"]) == 15
    exhaustive = [row for row in payload["results"] if row["planner"] == "exhaustive"]
    assert len(exhaustive) == 3
    assert all(row["certified"] == row["queries"] for row in exhaustive)
    assert payload["certificate_gate_failures"] == []
    assert payload["corpus_failures"] == {family: [] for family in FAMILIES}
    assert set(FAMILIES) == {"plan", "dataflow", "source"}


def test_suite_smoothing_zero_reaches_the_distribution(monkeypatch):
    seen = []

    class Stop(Exception):
        pass

    def spy(schema, data, smoothing):
        seen.append(smoothing)
        raise Stop

    monkeypatch.setattr(cli, "EmpiricalDistribution", spy)
    for argv in (
        ["analyze", "--suite", "--smoothing", "0"],
        ["lint-plan", "--suite", "--smoothing", "0"],
        ["lint-plan", "--suite"],
    ):
        with pytest.raises(Stop):
            main(argv)
    assert seen == [0.0, 0.0, 0.5]


# ----------------------------------------------------------------------
# A closed standard output (``repro ... | head -1``)
# ----------------------------------------------------------------------


def _run_into_closed_pipe(argv):
    """Run the CLI in a child process whose stdout pipe has no reader.

    The reading end is closed before the child starts writing, so its
    first write to stdout fails as a pipe whose reader exited does.
    Returns the exit status and everything written to stderr.
    """
    source = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(source))
    read, write = os.pipe()
    child = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
            *argv,
        ],
        stdout=write,
        stderr=subprocess.PIPE,
        env=env,
    )
    os.close(write)
    os.close(read)
    _stdout, stderr = child.communicate(timeout=300)
    return child.returncode, stderr.decode()


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_report_into_a_closed_pipe_exits_quietly(tmp_path, json_flag):
    status, stderr = _run_into_closed_pipe(_lint_code_args(tmp_path) + json_flag)
    assert stderr == ""
    assert status == cli.EXIT_BROKEN_PIPE == 141


def test_command_into_a_closed_pipe_exits_quietly(tmp_path):
    trace = _trace(tmp_path)
    status, stderr = _run_into_closed_pipe(
        [
            "explain",
            "--schema",
            str(trace / "schema.json"),
            "--trace",
            str(trace / "train.csv"),
            "--query",
            QUERY,
        ]
    )
    assert stderr == ""
    assert status == cli.EXIT_BROKEN_PIPE
