"""Command-line interface for the acquisitional query planner.

Mirrors the basestation workflow of the paper's architecture
(Section 2.5) as shell commands:

    repro generate lab --rows 50000 --out-dir ./trace
    repro plan    --schema trace/schema.json --trace trace/train.csv \
                  --query "SELECT * WHERE light >= 9 AND temp <= 5" \
                  --planner heuristic --max-splits 5 --out plan.json
    repro explain --schema trace/schema.json --trace trace/train.csv \
                  --query "SELECT * WHERE light >= 9 AND temp <= 5"
    repro execute --schema trace/schema.json --plan plan.json \
                  --trace trace/test.csv
    repro compare --schema trace/schema.json --trace trace/train.csv \
                  --test trace/test.csv --query "SELECT * WHERE ..."
    repro serve-bench --schema trace/schema.json --trace trace/train.csv \
                  --live trace/test.csv --shapes 20 --requests 400
    repro serve-sharded --schema trace/schema.json --trace trace/train.csv \
                  --workers 4 --trace-out traced.jsonl --slo-out slo.json \
                  --out report.json
    repro obs-report --trace traced.jsonl --report report.json --json
    repro cache-stats --schema trace/schema.json --trace trace/train.csv \
                  --query "SELECT * WHERE ..." --repeat 25
    repro lint-plan --schema trace/schema.json --plan plan.json \
                  --trace trace/train.csv --query "SELECT * WHERE ..."
    repro lint-plan --suite
    repro lint-code src/repro/service/service.py --json
    repro lint-code --suite --out lint-code.json
    repro analyze --schema trace/schema.json --plan plan.json \
                  --query "SELECT * WHERE ..."
    repro analyze --schema trace/schema.json --plan plan.json --fix \
                  --out plan.min.json
    repro analyze --suite
    repro profile --schema trace/schema.json --trace trace/train.csv \
                  --test trace/test.csv --query "SELECT * WHERE ..."
    repro metrics --schema trace/schema.json --trace trace/train.csv \
                  --query "SELECT * WHERE ..." --repeat 25 --format prometheus
    repro chaos   --schema trace/schema.json --plan plan.json \
                  --trace trace/test.csv --query "SELECT * WHERE ..." \
                  --schedule faults.json --seed 7 --degradation skip

Every command reads/writes the JSON/CSV formats of
:mod:`repro.data.trace_io`, so artifacts interoperate with the library
API and external tooling.

Exit status: 0 on success (a report verb: its report is ok), 1 when a
report verb's report is not, 2 on a usage or I/O error, and 141 (128 +
SIGPIPE, what a shell reports for a command a broken pipe stopped) when
standard output is closed before the command has written it all, as in
``repro analyze --suite | head -1``: the rest of the output is dropped
without a traceback.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro import __version__
from repro.analysis import (
    analyze_plan,
    check_dataflow,
    optimize_plan,
    render_analysis,
)
from repro.core.analysis import annotate_plan, plan_summary
from repro.core.attributes import Schema
from repro.core.cost import dataset_execution
from repro.corpus import FAMILIES, run_corpus
from repro.data.garden import generate_garden_dataset
from repro.data.lab import generate_lab_dataset
from repro.data.split import time_split
from repro.data.synthetic import generate_synthetic_dataset
from repro.data.trace_io import (
    load_plan,
    load_schema,
    load_trace,
    save_plan,
    save_schema,
    save_trace,
)
from repro.data.workload import (
    garden_queries,
    lab_queries,
    query_text,
    random_range_query,
    zipf_draws,
)
from repro.engine.engine import AcquisitionalEngine
from repro.engine.language import parse_query
from repro.exceptions import ReproError
from repro.faults import (
    DegradationMode,
    FaultPolicy,
    FaultSchedule,
    FaultTolerantExecutor,
    RetryPolicy,
)
from repro.lint import lint_paths, lint_repo
from repro.obs import (
    DEFAULT_DRIFT_THRESHOLD,
    SEGMENTS,
    DriftMonitor,
    PlanProfile,
    Tracer,
    assemble_traces,
    critical_paths,
    latency_decomposition,
    profile_report,
    reconcile_costs,
    render_prometheus,
    trace_summary,
)
from repro.planning.exhaustive import ExhaustivePlanner
from repro.planning.registry import PLANNER_NAMES, planner_by_name
from repro.planning.split_points import SplitPointPolicy
from repro.probability.empirical import EmpiricalDistribution
from repro.service.service import AcquisitionalService
from repro.verify import (
    VerificationReport,
    iter_plan_paths,
    verify_bytecode,
    verify_plan,
)

__all__ = ["main", "build_parser"]

logger = logging.getLogger("repro.cli")

LOG_LEVELS = ("debug", "info", "warning", "error")

# What a report verb builds: the JSON payload, its text rendering, and
# whether it passed (exit 0) or not (exit 1).
Report = tuple[dict, str, bool]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Conditional query plans for acquisitional query processing",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="warning",
        help="stderr logging verbosity (default: warning)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a dataset (schema JSON + train/test CSV)"
    )
    generate.add_argument(
        "dataset", choices=("lab", "garden", "synthetic"), help="generator"
    )
    generate.add_argument("--rows", type=int, default=20_000)
    generate.add_argument("--motes", type=int, default=None)
    generate.add_argument("--gamma", type=int, default=3, help="synthetic only")
    generate.add_argument(
        "--selectivity", type=float, default=0.5, help="synthetic only"
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--train-fraction", type=float, default=0.5)
    generate.add_argument("--out-dir", type=Path, required=True)

    def add_common(sub, with_trace=True):
        sub.add_argument("--schema", type=Path, required=True)
        if with_trace:
            sub.add_argument(
                "--trace", type=Path, required=True, help="training trace CSV"
            )

    plan = commands.add_parser("plan", help="plan a query and save the plan")
    add_common(plan)
    plan.add_argument("--query", required=True, help="SELECT ... WHERE ...")
    plan.add_argument("--planner", choices=PLANNER_NAMES, default="heuristic")
    plan.add_argument("--max-splits", type=int, default=5)
    plan.add_argument("--spsf", type=float, default=None)
    plan.add_argument("--smoothing", type=float, default=0.0)
    plan.add_argument("--out", type=Path, default=None, help="plan JSON path")

    explain = commands.add_parser(
        "explain", help="print an annotated plan for a query"
    )
    add_common(explain)
    explain.add_argument("--query", required=True)
    explain.add_argument("--planner", choices=PLANNER_NAMES, default="heuristic")
    explain.add_argument("--max-splits", type=int, default=5)
    explain.add_argument("--spsf", type=float, default=None)
    explain.add_argument("--smoothing", type=float, default=0.0)

    execute = commands.add_parser(
        "execute", help="run a saved plan over a trace and report costs"
    )
    execute.add_argument("--schema", type=Path, required=True)
    execute.add_argument("--plan", type=Path, required=True)
    execute.add_argument("--trace", type=Path, required=True)

    compare = commands.add_parser(
        "compare", help="plan with every algorithm and compare test costs"
    )
    add_common(compare)
    compare.add_argument("--test", type=Path, required=True, help="test trace CSV")
    compare.add_argument("--query", required=True)
    compare.add_argument("--max-splits", type=int, default=5)
    compare.add_argument("--smoothing", type=float, default=0.0)
    compare.add_argument(
        "--include-exhaustive",
        action="store_true",
        help="also run the exponential optimal planner (small inputs only)",
    )

    serve_bench = commands.add_parser(
        "serve-bench",
        help="throughput of the serving layer on a Zipf workload, cache on vs off",
    )
    add_common(serve_bench)
    serve_bench.add_argument(
        "--live", type=Path, default=None, help="live trace CSV (default: --trace)"
    )
    serve_bench.add_argument("--shapes", type=int, default=20)
    serve_bench.add_argument("--requests", type=int, default=400)
    serve_bench.add_argument("--zipf", type=float, default=1.1)
    serve_bench.add_argument("--rows-per-request", type=int, default=64)
    serve_bench.add_argument("--batch-size", type=int, default=1)
    serve_bench.add_argument("--capacity", type=int, default=64)
    serve_bench.add_argument("--policy", choices=("lru", "lfu"), default="lfu")
    serve_bench.add_argument("--smoothing", type=float, default=0.0)
    serve_bench.add_argument("--seed", type=int, default=0)
    serve_bench.add_argument("--out", type=Path, default=None, help="JSON report path")
    serve_bench.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write the cache-on service's metrics snapshot (JSON with an "
        "embedded Prometheus text rendering)",
    )
    serve_bench.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="stream JSON-lines trace events from the cache-on service",
    )

    cache_stats = commands.add_parser(
        "cache-stats",
        help="run statements through the serving layer and print service.stats()",
    )
    add_common(cache_stats)
    cache_stats.add_argument(
        "--query",
        action="append",
        required=True,
        help="statement to serve (repeatable)",
    )
    cache_stats.add_argument("--repeat", type=int, default=10)
    cache_stats.add_argument(
        "--live", type=Path, default=None, help="live trace CSV (default: --trace)"
    )
    cache_stats.add_argument("--capacity", type=int, default=64)
    cache_stats.add_argument("--policy", choices=("lru", "lfu"), default="lru")
    cache_stats.add_argument("--smoothing", type=float, default=0.0)

    serve_sharded = commands.add_parser(
        "serve-sharded",
        help="drive a Zipf workload through the sharded async serving tier",
    )
    add_common(serve_sharded)
    serve_sharded.add_argument(
        "--live", type=Path, default=None, help="live trace CSV (default: --trace)"
    )
    serve_sharded.add_argument("--workers", type=int, default=4)
    serve_sharded.add_argument("--shapes", type=int, default=24)
    serve_sharded.add_argument("--requests", type=int, default=400)
    serve_sharded.add_argument("--zipf", type=float, default=1.1)
    serve_sharded.add_argument("--rows-per-request", type=int, default=48)
    serve_sharded.add_argument(
        "--concurrency",
        type=int,
        default=64,
        help="requests submitted per concurrent wave",
    )
    serve_sharded.add_argument(
        "--backend", choices=("process", "inproc"), default="process"
    )
    serve_sharded.add_argument(
        "--shed-mode", choices=("abstain", "skip"), default="abstain"
    )
    serve_sharded.add_argument("--soft-limit", type=int, default=256)
    serve_sharded.add_argument("--hard-limit", type=int, default=1024)
    serve_sharded.add_argument(
        "--no-coalescing",
        action="store_true",
        help="dispatch every request individually (baseline mode)",
    )
    serve_sharded.add_argument(
        "--induce-outage",
        type=int,
        default=None,
        metavar="SHARD",
        help="kill this shard halfway through the workload",
    )
    serve_sharded.add_argument(
        "--outage-mode",
        choices=("skip", "abstain"),
        default="skip",
        help="re-route (skip) or shed (abstain) a dead shard's requests",
    )
    serve_sharded.add_argument("--capacity", type=int, default=256)
    serve_sharded.add_argument("--policy", choices=("lru", "lfu"), default="lfu")
    serve_sharded.add_argument("--smoothing", type=float, default=0.0)
    serve_sharded.add_argument("--seed", type=int, default=0)
    serve_sharded.add_argument("--out", type=Path, default=None, help="JSON report path")
    serve_sharded.add_argument(
        "--prometheus-out",
        type=Path,
        default=None,
        help="write the merged shard-labeled Prometheus exposition",
    )
    serve_sharded.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="enable distributed tracing and stream the merged JSON-lines "
        "trace (front-door events plus shard spans piggybacked on replies)",
    )
    serve_sharded.add_argument(
        "--slo-out",
        type=Path,
        default=None,
        help="write the front door's SLO snapshot (burn rates, budgets) "
        "as JSON",
    )
    serve_sharded.add_argument(
        "--slo-latency-ms",
        type=float,
        default=250.0,
        help="latency SLO target in milliseconds (default: 250)",
    )

    shard_stats = commands.add_parser(
        "shard-stats",
        help="boot a sharded cluster, serve statements, print cluster stats JSON",
    )
    add_common(shard_stats)
    shard_stats.add_argument(
        "--query",
        action="append",
        required=True,
        help="statement to serve (repeatable)",
    )
    shard_stats.add_argument("--repeat", type=int, default=10)
    shard_stats.add_argument(
        "--live", type=Path, default=None, help="live trace CSV (default: --trace)"
    )
    shard_stats.add_argument("--workers", type=int, default=2)
    shard_stats.add_argument("--rows-per-request", type=int, default=48)
    shard_stats.add_argument(
        "--backend", choices=("process", "inproc"), default="inproc"
    )
    shard_stats.add_argument("--capacity", type=int, default=256)
    shard_stats.add_argument("--policy", choices=("lru", "lfu"), default="lfu")
    shard_stats.add_argument("--smoothing", type=float, default=0.0)

    obs_report = commands.add_parser(
        "obs-report",
        help="analyze a merged distributed trace: waterfalls, critical "
        "paths, SLO state, and the trace-vs-ledger Eq. 3 reconciliation",
        description="Assemble span trees from a JSON-lines trace file "
        "(as written by serve-sharded --trace-out), decompose tail "
        "latency into route/queue/coalesce/execute segments, rank the "
        "slowest critical paths, and — given the serve-sharded JSON "
        "report — check that span-attributed acquisition cost "
        "reconciles with each shard's Eq. 3 ledger.  Exit status: 0 "
        "when every trace is a complete single-root tree and the "
        "ledgers reconcile, 1 on incomplete trees or reconciliation "
        "drift, 2 on usage errors.",
    )
    obs_report.add_argument(
        "--trace",
        type=Path,
        required=True,
        help="JSON-lines trace file (serve-sharded --trace-out)",
    )
    obs_report.add_argument(
        "--report",
        type=Path,
        default=None,
        help="serve-sharded JSON report (--out) to reconcile against",
    )
    obs_report.add_argument(
        "--top", type=int, default=5, help="critical paths to rank"
    )
    obs_report.add_argument(
        "--percentile",
        type=float,
        default=95.0,
        help="tail percentile for the latency decomposition",
    )
    obs_report.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit the full report as JSON instead of text",
    )
    obs_report.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the JSON report here (with or without --json)",
    )

    lint = commands.add_parser(
        "lint-plan",
        help="statically verify a plan file, a bytecode file, or every "
        "planner x dataset combination (--suite)",
        description="Statically verify a plan against the full rule catalog "
        "(STR/SEM/RNG/COST/DF/BC codes).  Exit status: 0 when no ERROR-level "
        "diagnostic fires (warnings do not fail), 1 on any ERROR, 2 on usage "
        "or I/O errors.  `repro analyze` shares these exit-code semantics.  "
        "Honours the global --log-level flag.",
    )
    lint.add_argument("--schema", type=Path, default=None)
    lint.add_argument("--plan", type=Path, default=None, help="plan JSON to lint")
    lint.add_argument(
        "--bytecode", type=Path, default=None, help="compiled plan file to lint"
    )
    lint.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="training trace CSV; enables the Eq. 3 cost-conservation rules",
    )
    lint.add_argument(
        "--query",
        default=None,
        help="statement the plan should answer; enables the semantic rules",
    )
    lint.add_argument(
        "--smoothing",
        type=float,
        default=None,
        help="distribution smoothing (default: 0, or 0.5 under --suite)",
    )
    lint.add_argument(
        "--suite",
        action="store_true",
        help="run the planner x dataset sweep (every rule, compiled "
        "forms, cost certificates) and every corpus self-test; exit 1 on "
        "any ERROR diagnostic or corpus failure (same as analyze --suite)",
    )
    lint.add_argument(
        "--json", action="store_true", dest="as_json", help="JSON report output"
    )

    analyze = commands.add_parser(
        "analyze",
        help="dataflow-analyze a plan: per-node abstract states, DF* "
        "diagnostics, --fix rewriting, or the CI suite (--suite)",
        description="Run the interval-domain abstract interpretation over a "
        "plan and report the DF* dataflow diagnostics (dead branches, "
        "decided predicates, redundant re-acquisitions, infeasible splits) "
        "alongside a tree rendering of each node's abstract state.  "
        "--fix rewrites the plan with the analysis-driven optimizer (dead-"
        "branch elimination and predicate subsumption; the result is "
        "re-verified before it is written).  --suite runs the planner x "
        "dataset sweep shared with `repro lint-plan --suite`: every rule, "
        "compiled forms and planner cost certificates (DF101), then every "
        "corpus self-test.  Exit status matches "
        "`repro lint-plan`: 0 when no ERROR-level diagnostic fires "
        "(warnings do not fail), 1 on any ERROR, 2 on usage or I/O errors.  "
        "Honours the global --log-level flag.",
    )
    analyze.add_argument("--schema", type=Path, default=None)
    analyze.add_argument(
        "--plan", type=Path, default=None, help="plan JSON to analyze"
    )
    analyze.add_argument(
        "--query",
        default=None,
        help="statement the plan should answer; enables query-truth facts "
        "and query-aware --fix subsumption",
    )
    analyze.add_argument(
        "--fix",
        action="store_true",
        help="rewrite the plan with optimize_plan and write it back "
        "(to --out, or over --plan)",
    )
    analyze.add_argument(
        "--out",
        type=Path,
        default=None,
        help="where --fix writes the optimized plan (default: --plan)",
    )
    analyze.add_argument(
        "--suite",
        action="store_true",
        help="run the planner x dataset sweep (every rule, compiled "
        "forms, cost certificates) and every corpus self-test; exit 1 on "
        "any ERROR diagnostic or corpus failure (same as lint-plan --suite)",
    )
    analyze.add_argument(
        "--smoothing",
        type=float,
        default=None,
        help="suite distribution smoothing (default: 0.5)",
    )
    analyze.add_argument(
        "--json", action="store_true", dest="as_json", help="JSON report output"
    )

    lint_code = commands.add_parser(
        "lint-code",
        help="run the repro-lint static analyzer over source files or the "
        "whole package plus its violation corpus (--suite)",
        description="Run the domain-aware static analyzer (DET/RC/ASY/LED "
        "rule families; see docs/LINTING.md) over the given source files, "
        "or with --suite first self-test every rule on the seeded "
        "violation corpus and then scan the whole repro package.  Exit "
        "status matches `repro lint-plan`/`repro analyze`: 0 when no "
        "ERROR-level finding fires (warnings do not fail), 1 on any ERROR "
        "or corpus failure, 2 on usage or I/O errors.  Honours the global "
        "--log-level flag.",
    )
    lint_code.add_argument(
        "paths",
        type=Path,
        nargs="*",
        help="Python source files to lint (omit with --suite)",
    )
    lint_code.add_argument(
        "--suite",
        action="store_true",
        help="self-test every rule on the violation corpus, then lint "
        "every module of the repro package; exit 1 on any ERROR finding "
        "or corpus failure",
    )
    lint_code.add_argument(
        "--root",
        type=Path,
        default=None,
        help="package root for --suite's repo scan and for deriving "
        "module names (default: the installed repro source tree)",
    )
    lint_code.add_argument(
        "--json", action="store_true", dest="as_json", help="JSON report output"
    )
    lint_code.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the JSON report to this file, with or without "
        "--json (the CI artifact)",
    )

    profile = commands.add_parser(
        "profile",
        help="plan a query, execute it with per-node profiling, and print an "
        "EXPLAIN-ANALYZE-style tree of predicted vs observed behaviour",
    )
    add_common(profile)
    profile.add_argument(
        "--test", type=Path, default=None, help="execution trace CSV (default: --trace)"
    )
    profile.add_argument("--query", required=True, help="SELECT ... WHERE ...")
    profile.add_argument("--planner", choices=PLANNER_NAMES, default="heuristic")
    profile.add_argument("--max-splits", type=int, default=5)
    profile.add_argument("--spsf", type=float, default=None)
    profile.add_argument("--smoothing", type=float, default=0.0)
    profile.add_argument(
        "--drift-threshold",
        type=float,
        default=DEFAULT_DRIFT_THRESHOLD,
        help="normalized chi-square score above which the plan is flagged "
        f"as drifted (default: {DEFAULT_DRIFT_THRESHOLD:g})",
    )
    profile.add_argument(
        "--json", action="store_true", dest="as_json", help="JSON report output"
    )
    profile.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the JSON report here (with or without --json)",
    )

    metrics = commands.add_parser(
        "metrics",
        help="serve statements through the serving layer and print its "
        "metrics snapshot (JSON or Prometheus text exposition)",
    )
    add_common(metrics)
    metrics.add_argument(
        "--query",
        action="append",
        required=True,
        help="statement to serve (repeatable)",
    )
    metrics.add_argument("--repeat", type=int, default=10)
    metrics.add_argument(
        "--live", type=Path, default=None, help="live trace CSV (default: --trace)"
    )
    metrics.add_argument(
        "--format", choices=("json", "prometheus"), default="prometheus"
    )
    metrics.add_argument("--capacity", type=int, default=64)
    metrics.add_argument("--policy", choices=("lru", "lfu"), default="lru")
    metrics.add_argument("--smoothing", type=float, default=0.0)
    metrics.add_argument(
        "--profiling",
        action="store_true",
        help="enable per-plan execution profiling in the service",
    )

    chaos = commands.add_parser(
        "chaos",
        help="replay a fault schedule against a saved plan and audit "
        "soundness plus the retry cost ledger",
        description="Run a saved plan over a trace through the seeded "
        "fault injector, degrade failed acquisitions per --degradation, "
        "and audit the outcome: every selected tuple must satisfy the "
        "query on its observed (delivered) values, and the cost ledger "
        "must reconcile (total == base + retry).  The replay is "
        "deterministic for a fixed --seed.  Exit status: 0 when the "
        "audit passes, 1 when a selected tuple is unsound or the ledger "
        "drifts, 2 on usage or I/O errors.",
    )
    chaos.add_argument("--schema", type=Path, required=True)
    chaos.add_argument("--plan", type=Path, required=True)
    chaos.add_argument("--trace", type=Path, required=True, help="replay trace CSV")
    chaos.add_argument(
        "--schedule",
        type=Path,
        required=True,
        help="fault schedule JSON "
        '({"faults": {"<attr>": {"drop_rate": 0.2, ...}}})',
    )
    chaos.add_argument(
        "--query",
        default=None,
        help="statement the plan answers; required for skip/impute "
        "degradation, enables the soundness audit",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--degradation", choices=("abstain", "skip", "impute"), default="abstain"
    )
    chaos.add_argument("--max-retries", type=int, default=2)
    chaos.add_argument("--backoff-base", type=float, default=2.0)
    chaos.add_argument(
        "--train",
        type=Path,
        default=None,
        help="training trace CSV; fits the distribution consulted by "
        "impute degradation (skip semantics without it)",
    )
    chaos.add_argument("--smoothing", type=float, default=0.0)
    chaos.add_argument(
        "--json", action="store_true", dest="as_json", help="JSON report output"
    )

    learn_bench = commands.add_parser(
        "learn-bench",
        help="run the learned-planner benchmark: bandit vs oracle, "
        "never-replan, and chi-square-refit baselines",
        description="Generate the adversarial drifting stream (the "
        "optimal predicate order flips every segment), run the oracle / "
        "never-replan / chi-square-refit / bandit strategies over it, "
        "and report totals, cumulative-regret curves, the regret "
        "ledger, and the PR's hard gates (bandit beats both non-oracle "
        "baselines, ledger conserved, exploration within budget, LRN "
        "provenance verified).  Exit status: 0 when every gate passes, "
        "1 otherwise, 2 on usage errors.",
    )
    learn_bench.add_argument(
        "--segments", type=int, default=6, help="number of regime segments"
    )
    learn_bench.add_argument(
        "--segment-length", type=int, default=500, help="tuples per segment"
    )
    learn_bench.add_argument("--seed", type=int, default=0)
    learn_bench.add_argument(
        "--window", type=int, default=96, help="statistics window / warmup"
    )
    learn_bench.add_argument("--smoothing", type=float, default=0.5)
    learn_bench.add_argument(
        "--delta", type=float, default=0.2, help="PAO confidence parameter"
    )
    learn_bench.add_argument(
        "--burst-pulls",
        type=int,
        default=8,
        help="minimum full-information pulls per exploration burst",
    )
    learn_bench.add_argument(
        "--posterior-decay",
        type=float,
        default=0.95,
        help="D-UCB observation-weight discount",
    )
    learn_bench.add_argument(
        "--drift-threshold",
        type=float,
        default=8.0,
        help="normalized chi-square refit trigger",
    )
    learn_bench.add_argument(
        "--regret-budget",
        type=float,
        default=None,
        help="exploration budget in Eq. 3 units (default: 64 worst-case "
        "pulls)",
    )
    learn_bench.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the JSON report here (with or without --json)",
    )
    learn_bench.add_argument(
        "--json", action="store_true", dest="as_json", help="JSON report output"
    )

    return parser


def _planner_for(
    parsed,
    name: str,
    distribution: EmpiricalDistribution,
    max_splits: int,
    spsf: float | None,
):
    """Planner for a parsed statement, honouring its query class.

    Boolean (OR-containing) WHERE clauses only run through the exhaustive
    planner; sequential/heuristic planning is conjunctive-only.
    """
    schema = distribution.schema
    policy = None if spsf is None else SplitPointPolicy.from_spsf(schema, spsf)
    if parsed.is_conjunctive:
        return planner_by_name(name, distribution, max_splits, policy)
    if policy is None:
        # Coarse default: two candidates per attribute plus the always-
        # included predicate boundaries keeps the exponential search
        # tractable on full-size schemas.
        policy = SplitPointPolicy.equal_width(schema, [2] * len(schema))
    return ExhaustivePlanner(
        distribution, split_policy=policy, max_subproblems=500_000
    )


def _command_generate(args: argparse.Namespace) -> int:
    out_dir: Path = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.dataset == "lab":
        dataset = generate_lab_dataset(
            n_readings=args.rows, n_motes=args.motes or 12, seed=args.seed
        )
        schema, data = dataset.schema, dataset.data
    elif args.dataset == "garden":
        dataset = generate_garden_dataset(
            n_motes=args.motes or 11, n_epochs=args.rows, seed=args.seed
        )
        schema, data = dataset.schema, dataset.data
    else:
        dataset = generate_synthetic_dataset(
            n_attributes=args.motes or 10,
            gamma=args.gamma,
            selectivity=args.selectivity,
            n_rows=args.rows,
            seed=args.seed,
        )
        schema, data = dataset.schema, dataset.data

    train, test = time_split(data, args.train_fraction)
    save_schema(schema, out_dir / "schema.json")
    save_trace(train, schema, out_dir / "train.csv")
    save_trace(test, schema, out_dir / "test.csv")
    logger.info(
        "wrote %s/schema.json (%d attributes), train.csv (%d rows), "
        "test.csv (%d rows)",
        out_dir,
        len(schema),
        len(train),
        len(test),
    )
    return 0


def _command_plan(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema)
    train = load_trace(args.trace, schema)
    distribution = EmpiricalDistribution(schema, train, smoothing=args.smoothing)
    parsed = parse_query(args.query, schema)
    planner = _planner_for(
        parsed, args.planner, distribution, args.max_splits, args.spsf
    )
    result = planner.plan(parsed.query)
    summary = plan_summary(result.plan)
    print(f"planner: {result.planner}")
    print(f"expected cost/tuple: {result.expected_cost:.2f}")
    print(f"plan: {summary.describe()}")
    print(result.plan.pretty())
    if args.out is not None:
        save_plan(result.plan, args.out)
        logger.info("plan written to %s", args.out)
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema)
    train = load_trace(args.trace, schema)
    distribution = EmpiricalDistribution(schema, train, smoothing=args.smoothing)
    parsed = parse_query(args.query, schema)
    planner = _planner_for(
        parsed, args.planner, distribution, args.max_splits, args.spsf
    )
    result = planner.plan(parsed.query)
    print(f"query: {args.query.strip()}")
    print(f"where clause: {parsed.query.describe()}")
    print(f"planner: {result.planner}")
    print(f"expected cost/tuple: {result.expected_cost:.2f}")
    print(f"plan: {plan_summary(result.plan).describe()}\n")
    print(annotate_plan(result.plan, distribution))
    return 0


def _command_execute(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema)
    plan = load_plan(args.plan)
    trace = load_trace(args.trace, schema)
    outcome = dataset_execution(plan, trace, schema)
    matches = int(outcome.verdicts.sum())
    print(f"tuples scanned : {len(trace)}")
    print(f"tuples matched : {matches} ({outcome.pass_fraction:.1%})")
    print(f"total cost     : {outcome.total_cost:.1f}")
    print(f"mean cost/tuple: {outcome.mean_cost:.2f}")
    return 0


def _report_chaos(args: argparse.Namespace) -> Report:
    schema = load_schema(args.schema)
    plan = load_plan(args.plan)
    trace = load_trace(args.trace, schema)
    with open(args.schedule, encoding="utf-8") as handle:
        schedule = FaultSchedule.from_dict(json.load(handle), schema)
    query = None
    if args.query is not None:
        parsed = parse_query(args.query, schema)
        if not parsed.is_conjunctive:
            raise ReproError("chaos needs a conjunctive WHERE clause")
        query = parsed.query
    mode = DegradationMode[args.degradation.upper()]
    if mode is not DegradationMode.ABSTAIN and query is None:
        raise ReproError(f"--degradation {args.degradation} needs --query")
    distribution = None
    if args.train is not None:
        train = load_trace(args.train, schema)
        distribution = EmpiricalDistribution(schema, train, smoothing=args.smoothing)
    policy = FaultPolicy(
        retry=RetryPolicy(
            max_retries=args.max_retries, backoff_base=args.backoff_base
        ),
        degradation=mode,
    )
    executor = FaultTolerantExecutor(
        schema, policy, query=query, distribution=distribution
    )
    outcome = executor.run(plan, trace, schedule, np.random.default_rng(args.seed))

    unsound: list[int] = []
    if query is not None:
        for row in outcome.selected:
            for predicate, index in zip(query.predicates, query.attribute_indices):
                if not outcome.acquired[row, index] or not predicate.satisfied_by(
                    int(outcome.observed[row, index])
                ):
                    unsound.append(row)
                    break
    ledger_ok = outcome.ledger.conserved(outcome.total_cost)
    failed = bool(unsound) or not ledger_ok

    payload = {
        "seed": args.seed,
        "degradation": args.degradation,
        "tuples_scanned": outcome.rows,
        "tuples_selected": len(outcome.selected),
        "tuples_abstained": outcome.tuples_abstained,
        "tuples_degraded": outcome.tuples_degraded,
        "abstained_rows": list(outcome.abstained),
        "acquisitions_failed": outcome.acquisitions_failed,
        "retries_total": outcome.retries_total,
        "failures_by_kind": dict(outcome.failures_by_kind),
        "base_cost": outcome.base_cost,
        "retry_cost": outcome.retry_cost,
        "total_cost": outcome.total_cost,
        "ledger_ok": ledger_ok,
        "unsound_rows": unsound,
        "ok": not failed,
    }
    lines = [
        f"tuples scanned     : {outcome.rows}",
        f"tuples selected    : {len(outcome.selected)}",
        f"tuples abstained   : {outcome.tuples_abstained}",
        f"tuples degraded    : {outcome.tuples_degraded}",
        f"acquisitions failed: {outcome.acquisitions_failed}",
        f"retries            : {outcome.retries_total}",
    ]
    if outcome.failures_by_kind:
        kinds = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(outcome.failures_by_kind.items())
        )
        lines.append(f"failures by kind   : {kinds}")
    lines.append(
        f"cost ledger        : total {outcome.total_cost:.1f} = "
        f"base {outcome.base_cost:.1f} + retry {outcome.retry_cost:.1f} "
        f"[{'ok' if ledger_ok else 'DRIFT'}]"
    )
    if query is not None:
        verdict = "sound" if not unsound else f"UNSOUND rows {unsound}"
        lines.append(f"selected tuples    : {verdict}")
    else:
        lines.append("selected tuples    : soundness audit skipped (no --query)")
    lines.append(f"chaos audit        : {'FAILED' if failed else 'passed'}")
    return payload, "\n".join(lines), not failed


def _command_compare(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema)
    train = load_trace(args.trace, schema)
    test = load_trace(args.test, schema)
    distribution = EmpiricalDistribution(schema, train, smoothing=args.smoothing)
    parsed = parse_query(args.query, schema)

    names = ["naive", "corr-seq", "heuristic"]
    if args.include_exhaustive:
        names.append("exhaustive")
    print(f"{'planner':<12} {'expected':>10} {'test cost':>10} {'vs naive':>9}")
    baseline = None
    if not parsed.is_conjunctive:
        names = ["exhaustive"]
    for name in names:
        planner = _planner_for(parsed, name, distribution, args.max_splits, None)
        result = planner.plan(parsed.query)
        measured = dataset_execution(result.plan, test, schema).mean_cost
        if baseline is None:
            baseline = measured
        gain = baseline / measured if measured > 0 else float("inf")
        print(
            f"{name:<12} {result.expected_cost:>10.2f} "
            f"{measured:>10.2f} {gain:>8.2f}x"
        )
    return 0


def _workload_shapes(schema: Schema, n_shapes: int, seed: int) -> list[str]:
    """Distinct random conjunctive query shapes as statement texts."""
    rng = np.random.default_rng(seed)
    names = list(schema.names)
    shapes: list[str] = []
    seen: set[str] = set()
    attempt = 0
    while len(shapes) < n_shapes:
        width = int(rng.integers(2, min(4, len(names)) + 1))
        attributes = [
            str(name)
            for name in rng.choice(names, size=min(width, len(names)), replace=False)
        ]
        query = random_range_query(
            schema, attributes, seed=seed + 101 * attempt
        )
        attempt += 1
        text = query_text(query)
        if text not in seen:
            seen.add(text)
            shapes.append(text)
    return shapes


def _request_matrix(
    live: np.ndarray, position: int, rows_per_request: int
) -> np.ndarray:
    """A rows_per_request slice of the live trace, cycling past the end."""
    indices = (position * rows_per_request + np.arange(rows_per_request)) % len(
        live
    )
    return live[indices]


def _run_workload(
    service: AcquisitionalService,
    requests: list[tuple[str, np.ndarray]],
    batch_size: int,
) -> float:
    """Serve every request; returns queries/second."""
    start = time.perf_counter()
    if batch_size > 1:
        for begin in range(0, len(requests), batch_size):
            service.execute_batch(requests[begin : begin + batch_size])
    else:
        for text, readings in requests:
            service.execute(text, readings)
    elapsed = time.perf_counter() - start
    return len(requests) / elapsed if elapsed > 0 else float("inf")


def _command_serve_bench(args: argparse.Namespace) -> int:
    if args.requests < 1 or args.shapes < 1:
        raise ReproError("serve-bench needs at least one shape and one request")
    schema = load_schema(args.schema)
    train = load_trace(args.trace, schema)
    live = load_trace(args.live, schema) if args.live is not None else train

    shapes = _workload_shapes(schema, args.shapes, args.seed)
    draws = zipf_draws(args.requests, len(shapes), skew=args.zipf, seed=args.seed)
    requests = [
        (shapes[shape], _request_matrix(live, position, args.rows_per_request))
        for position, shape in enumerate(draws)
    ]

    results = {}
    trace_stream = None
    warm_service = None
    try:
        for enabled in (False, True):
            engine = AcquisitionalEngine(schema, train, smoothing=args.smoothing)
            tracer = None
            if enabled and args.trace_out is not None:
                trace_stream = args.trace_out.open("w", encoding="utf-8")
                # Every event goes to the file; nothing reads a buffer.
                tracer = Tracer(stream=trace_stream, capacity=0)
            service = AcquisitionalService(
                engine,
                cache_capacity=args.capacity,
                cache_policy=args.policy,
                cache_enabled=enabled,
                tracer=tracer,
            )
            qps = _run_workload(service, requests, args.batch_size)
            results["cache_on" if enabled else "cache_off"] = {
                "queries_per_second": round(qps, 2),
                "stats": service.stats(),
            }
            if enabled:
                warm_service = service
    finally:
        if trace_stream is not None:
            trace_stream.close()
    if args.trace_out is not None:
        logger.info("trace events written to %s", args.trace_out)
    if args.metrics_out is not None and warm_service is not None:
        snapshot = warm_service.metrics.snapshot()
        args.metrics_out.write_text(
            _json({"snapshot": snapshot, "prometheus": render_prometheus(snapshot)})
            + "\n"
        )
        logger.info("metrics snapshot written to %s", args.metrics_out)

    on = results["cache_on"]["queries_per_second"]
    off = results["cache_off"]["queries_per_second"]
    speedup = on / off if off > 0 else float("inf")
    cache_stats = results["cache_on"]["stats"]["cache"]
    text = (
        f"workload: {args.requests} requests over {len(shapes)} shapes "
        f"(zipf {args.zipf}), {args.rows_per_request} rows/request\n"
        f"cache off: {off:>10.1f} q/s\n"
        f"cache on : {on:>10.1f} q/s   ({speedup:.1f}x)\n"
        f"hit rate {cache_stats['hit_rate']:.1%}, "
        f"{cache_stats['evictions']} evictions, "
        f"{cache_stats['invalidations']} invalidations "
        f"({cache_stats['policy']}, capacity {cache_stats['capacity']})"
    )
    report = {
        "config": {
            "shapes": len(shapes),
            "requests": args.requests,
            "zipf": args.zipf,
            "rows_per_request": args.rows_per_request,
            "batch_size": args.batch_size,
            "capacity": args.capacity,
            "policy": args.policy,
        },
        "speedup": round(speedup, 2),
        **results,
    }
    return _emit(args, report, text, True, out=args.out)


def _command_cache_stats(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema)
    train = load_trace(args.trace, schema)
    live = load_trace(args.live, schema) if args.live is not None else train
    engine = AcquisitionalEngine(schema, train, smoothing=args.smoothing)
    service = AcquisitionalService(
        engine, cache_capacity=args.capacity, cache_policy=args.policy
    )
    for text in args.query:
        fingerprint = service.fingerprint(text)
        print(f"{fingerprint.digest}  {text.strip()}")
        for _repeat in range(args.repeat):
            service.execute(text, live)
    print(_json(service.stats()))
    return 0


def _cluster_config(
    args: argparse.Namespace, schema: Schema, train: np.ndarray, workers: int
) -> "ClusterConfig":
    from repro.cluster import ClusterConfig, ShardConfig

    return ClusterConfig(
        shard_config=ShardConfig(
            schema=schema,
            history=train,
            smoothing=args.smoothing,
            cache_capacity=args.capacity,
            cache_policy=args.policy,
        ),
        shards=workers,
        backend=args.backend,
        coalescing=not getattr(args, "no_coalescing", False),
        soft_limit=getattr(args, "soft_limit", 256),
        hard_limit=getattr(args, "hard_limit", 1024),
        shed_mode=getattr(args, "shed_mode", "abstain"),
        outage_mode=getattr(args, "outage_mode", "skip"),
        tracing=getattr(args, "trace_out", None) is not None,
        slo_latency_ms=getattr(args, "slo_latency_ms", 250.0),
    )


async def _drive_cluster(
    cluster: "ShardedServiceCluster",
    requests: list[tuple[str, np.ndarray]],
    concurrency: int,
    outage_shard: int | None,
) -> tuple[list, float]:
    """Submit the workload in concurrent waves; returns (responses, seconds).

    With an outage shard configured, the shard is killed after half the
    workload has been submitted — mid-wave traffic exercises the
    re-route/shed path.
    """
    from repro.exceptions import ClusterError

    import asyncio

    responses: list = []
    halfway = len(requests) // 2
    outage_pending = outage_shard is not None
    start = time.perf_counter()
    position = 0
    while position < len(requests):
        wave = requests[position : position + concurrency]
        task = asyncio.ensure_future(cluster.execute_many(wave))
        if outage_pending and position + len(wave) > halfway:
            # Kill the shard while this wave is in flight so its pending
            # requests exercise the re-route/shed path, not just future
            # routing.  The small sleep lets the wave's dispatches reach
            # the workers before the plug is pulled.
            await asyncio.sleep(0.01)
            try:
                cluster.induce_outage(outage_shard)
            except ClusterError as error:
                logger.warning("outage injection skipped: %s", error)
            outage_pending = False
        responses.extend(await task)
        position += len(wave)
    return responses, time.perf_counter() - start


def _command_serve_sharded(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster import ShardedServiceCluster

    if args.requests < 1 or args.shapes < 1 or args.workers < 1:
        raise ReproError(
            "serve-sharded needs at least one worker, shape, and request"
        )
    if args.concurrency < 1:
        raise ReproError("--concurrency must be >= 1")
    if args.induce_outage is not None and not (
        0 <= args.induce_outage < args.workers
    ):
        raise ReproError(
            f"--induce-outage shard must be in [0, {args.workers})"
        )
    schema = load_schema(args.schema)
    train = load_trace(args.trace, schema)
    live = load_trace(args.live, schema) if args.live is not None else train

    shapes = _workload_shapes(schema, args.shapes, args.seed)
    draws = zipf_draws(args.requests, len(shapes), skew=args.zipf, seed=args.seed)
    # Requests in one concurrent wave model one acquisition epoch: they
    # read the same sensor window, so repeated shapes within a wave are
    # coalescible (acquire once, serve many).
    requests = [
        (
            shapes[shape],
            _request_matrix(
                live, position // args.concurrency, args.rows_per_request
            ),
        )
        for position, shape in enumerate(draws)
    ]

    async def main() -> dict:
        config = _cluster_config(args, schema, train, args.workers)
        tracer = None
        trace_stream = None
        if args.trace_out is not None:
            # The front door's tracer is the merge point: its own events
            # stream here directly, and shard spans (piggybacked on
            # replies) land in the same file through ingest(); nothing
            # reads a buffer, so the tracer keeps none.
            trace_stream = args.trace_out.open("w", encoding="utf-8")
            tracer = Tracer(stream=trace_stream, capacity=0, name="fd")
        try:
            async with ShardedServiceCluster(config, tracer=tracer) as cluster:
                responses, elapsed = await _drive_cluster(
                    cluster, requests, args.concurrency, args.induce_outage
                )
                stats = await cluster.stats()
                exposition = await cluster.prometheus()
        finally:
            if trace_stream is not None:
                trace_stream.close()
        served = sum(1 for r in responses if r.ok)
        shed = sum(1 for r in responses if r.shed)
        failed = len(responses) - served - shed
        front = stats["front_door"]
        report = {
            "config": {
                "workers": args.workers,
                "backend": args.backend,
                "shapes": len(shapes),
                "requests": args.requests,
                "zipf": args.zipf,
                "rows_per_request": args.rows_per_request,
                "concurrency": args.concurrency,
                "coalescing": not args.no_coalescing,
                "shed_mode": args.shed_mode,
                "soft_limit": args.soft_limit,
                "hard_limit": args.hard_limit,
                "induced_outage": args.induce_outage,
            },
            "queries_per_second": round(len(responses) / elapsed, 2)
            if elapsed > 0
            else float("inf"),
            "served": served,
            "shed": shed,
            "failed": failed,
            "front_door": front,
            "shards": stats["shards"],
            "merged_metrics": stats["merged_metrics"],
        }
        if args.prometheus_out is not None:
            args.prometheus_out.write_text(exposition)
            logger.info("exposition written to %s", args.prometheus_out)
        if args.slo_out is not None:
            args.slo_out.write_text(_json(front["slo"]) + "\n")
            logger.info("SLO snapshot written to %s", args.slo_out)
        return report

    report = asyncio.run(main())
    if args.trace_out is not None:
        logger.info("trace events written to %s", args.trace_out)
    front = report["front_door"]
    coalescing = front["coalescing"]
    slo = front["slo"]
    text = (
        f"workload: {report['config']['requests']} requests over "
        f"{report['config']['shapes']} shapes (zipf {args.zipf}), "
        f"{args.workers} workers ({args.backend})\n"
        f"served {report['served']}, shed {report['shed']}, "
        f"failed {report['failed']} at {report['queries_per_second']:.1f} q/s\n"
        f"coalescing: {coalescing['dispatched_requests']} dispatched, "
        f"{coalescing['coalesced_requests']} coalesced\n"
        f"admission: {front['admission']['requests_shed']} shed, "
        f"{round(front['admission']['shed_cost_avoided'], 4)} Eq.3 cost avoided\n"
        f"slo: {slo['requests']} requests, "
        f"latency burn {slo['latency']['burn_rate']:.2f}, "
        f"error burn {slo['errors']['burn_rate']:.2f}"
    )
    return _emit(args, report, text, True, out=args.out)


def _command_shard_stats(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster import ShardedServiceCluster

    if args.workers < 1 or args.repeat < 1:
        raise ReproError("shard-stats needs at least one worker and repeat")
    schema = load_schema(args.schema)
    train = load_trace(args.trace, schema)
    live = load_trace(args.live, schema) if args.live is not None else train
    readings = live[: args.rows_per_request]

    async def main() -> dict:
        config = _cluster_config(args, schema, train, args.workers)
        async with ShardedServiceCluster(config) as cluster:
            for text in args.query:
                for _repeat in range(args.repeat):
                    response = await cluster.execute(text, readings)
                    if not response.ok:
                        raise ReproError(
                            f"statement failed on shard "
                            f"{response.shard}: {response.error}"
                        )
            return await cluster.stats()

    print(_json(asyncio.run(main())))
    return 0


def _render_obs_report(payload: dict) -> str:
    """Terminal rendering of the obs-report payload."""
    lines: list[str] = []
    summary = payload["summary"]
    lines.append(
        f"traces: {summary['traces']} ({summary['complete']} complete), "
        f"{summary['events']} events; {summary['coalesced']} coalesced, "
        f"{summary['shed']} shed, {summary['rerouted']} rerouted, "
        f"{summary['degraded']} degraded"
    )
    latency = payload["latency"]
    if latency.get("total_ms"):
        tail_label = f"p{latency['percentile']:g}"
        totals = latency["total_ms"]
        lines.append(
            f"latency: p50 {totals['p50']:.3f} ms, "
            f"{tail_label} {totals[tail_label]:.3f} ms, "
            f"max {totals['max']:.3f} ms over {latency['requests']} requests"
        )
        lines.append(f"waterfall ({tail_label} tail mean / tail share):")
        for name in SEGMENTS:
            cell = latency["segments"][name]
            nested = "  (nested in execute)" if name in ("acquire", "plan") else ""
            lines.append(
                f"  {name:<13} {cell['tail_mean_ms']:>10.3f} ms "
                f"{cell['tail_share']:>7.1%}{nested}"
            )
    paths = payload["critical_paths"]
    if paths:
        lines.append(f"critical paths (top {len(paths)}):")
        for path in paths:
            flags = " ".join(
                name
                for name in ("coalesced", "rerouted", "shed")
                if path[name]
            )
            if not path["ok"] and not path["shed"]:
                flags = f"{flags} error".strip()
            suffix = f"  [{flags}]" if flags else ""
            lines.append(
                f"  {path['trace']:<12} {path['segments']['total']:>10.3f} ms"
                f"  dominant={path['dominant']}"
                f"  {path['fingerprint'][:12]}{suffix}"
            )
    reconciliation = payload.get("reconciliation")
    if reconciliation is not None:
        verdict = "ok" if reconciliation["ok"] else "MISMATCH"
        lines.append(f"Eq. 3 reconciliation: {verdict}")
        for shard, row in reconciliation["shards"].items():
            if row["ok"] is None:
                lines.append(
                    f"  shard {shard}: attributed {row['attributed']}, "
                    f"{row['note']}"
                )
            else:
                mark = "ok" if row["ok"] else "MISMATCH"
                lines.append(
                    f"  shard {shard}: attributed {row['attributed']} "
                    f"vs ledger {row['recorded']} [{mark}]"
                )
        shed = reconciliation.get("shed")
        if shed is not None:
            mark = "ok" if shed["ok"] else "MISMATCH"
            lines.append(
                f"  shed: attributed {shed['attributed']} "
                f"vs ledger {shed['recorded']} [{mark}]"
            )
    slo = payload.get("slo")
    if slo is not None:
        lines.append(
            f"slo: {slo['requests']} requests; "
            f"latency burn {slo['latency']['burn_rate']:.2f} "
            f"(budget {slo['latency']['budget_remaining']:.1%} left), "
            f"error burn {slo['errors']['burn_rate']:.2f} "
            f"(budget {slo['errors']['budget_remaining']:.1%} left)"
        )
    if payload["findings"]:
        lines.append("findings:")
        lines.extend(f"  - {finding}" for finding in payload["findings"])
    return "\n".join(lines)


def _report_obs(args: argparse.Namespace) -> Report:
    if args.top < 0:
        raise ReproError("--top must be >= 0")
    if not 0.0 < args.percentile <= 100.0:
        raise ReproError("--percentile must be in (0, 100]")
    records = []
    with args.trace.open(encoding="utf-8") as stream:
        for number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ReproError(
                    f"{args.trace}:{number}: not valid JSON ({error})"
                ) from error
    trees = list(assemble_traces(records).values())
    summary = trace_summary(trees)
    payload: dict = {
        "trace_file": str(args.trace),
        "summary": summary,
        "latency": latency_decomposition(trees, percentile=args.percentile),
        "critical_paths": critical_paths(trees, top=args.top),
    }
    findings: list[str] = []
    if summary["traces"] == 0:
        findings.append("no distributed traces in the input")
    elif summary["complete"] != summary["traces"]:
        findings.append(
            f"{summary['traces'] - summary['complete']} incomplete "
            f"trace trees (multiple roots or orphaned spans)"
        )
    if args.report is not None:
        report = json.loads(args.report.read_text())
        front = report.get("front_door", {})
        reconciliation = reconcile_costs(
            trees, report.get("shards", {}), front.get("admission")
        )
        payload["reconciliation"] = reconciliation
        if not reconciliation["ok"]:
            findings.append(
                "span-attributed acquisition cost does not reconcile "
                "with the Eq. 3 ledgers"
            )
        if front.get("slo") is not None:
            payload["slo"] = front["slo"]
    payload["findings"] = findings
    payload["ok"] = not findings
    return payload, _render_obs_report(payload), not findings


def _report_profile(args: argparse.Namespace) -> Report:
    schema = load_schema(args.schema)
    train = load_trace(args.trace, schema)
    test = load_trace(args.test, schema) if args.test is not None else train
    distribution = EmpiricalDistribution(schema, train, smoothing=args.smoothing)
    parsed = parse_query(args.query, schema)
    planner = _planner_for(
        parsed, args.planner, distribution, args.max_splits, args.spsf
    )
    result = planner.plan(parsed.query)

    profile = PlanProfile(schema)
    dataset_execution(result.plan, test, schema, observer=profile)
    monitor = DriftMonitor(
        result.plan,
        distribution,
        expected=result.expected_cost,
        threshold=args.drift_threshold,
    )
    payload, report = profile_report(
        result.plan, distribution, profile, monitor=monitor
    )
    payload["query"] = args.query.strip()
    payload["planner"] = result.planner
    text = f"query: {args.query.strip()}\nplanner: {result.planner}\n" + report
    return payload, text, True


def _command_metrics(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema)
    train = load_trace(args.trace, schema)
    live = load_trace(args.live, schema) if args.live is not None else train
    engine = AcquisitionalEngine(schema, train, smoothing=args.smoothing)
    service = AcquisitionalService(
        engine,
        cache_capacity=args.capacity,
        cache_policy=args.policy,
        profiling=args.profiling,
    )
    for text in args.query:
        for _repeat in range(args.repeat):
            service.execute(text, live)
    service.stats()  # refresh the gauges before the snapshot is taken
    snapshot = service.metrics.snapshot()
    if args.format == "json":
        print(_json(snapshot))
    else:
        print(render_prometheus(snapshot), end="")
    return 0


def _suite_datasets():
    """Small planner-verification workloads: every dataset family, sized so
    even the exhaustive planner finishes in seconds."""
    garden = generate_garden_dataset(
        n_motes=1,
        n_epochs=300,
        seed=7,
        domain_sizes={"hour": 6, "temp": 6, "humidity": 6, "voltage": 4},
    )
    lab = generate_lab_dataset(
        n_readings=300,
        n_motes=4,
        seed=11,
        domain_sizes={"hour": 6, "voltage": 4, "light": 6, "temp": 6, "humidity": 6},
    )
    synthetic = generate_synthetic_dataset(
        n_attributes=4, gamma=1, selectivity=0.5, n_rows=300, seed=13
    )
    return [
        ("garden", garden, garden_queries(garden, 4, seed=3)),
        ("lab", lab, lab_queries(lab, 4, seed=5)),
        ("synthetic", synthetic, [synthetic.query()]),
    ]


def _suite_planners(distribution: EmpiricalDistribution) -> dict:
    """The five planners the verifier gates, smallest-config exhaustive."""
    schema = distribution.schema
    policy = SplitPointPolicy.equal_width(schema, [1] * len(schema))
    planners = {
        name: planner_by_name(name, distribution)
        for name in ("naive", "opt-seq", "greedy-seq")
    }
    planners["greedy-split"] = planner_by_name("heuristic", distribution)
    planners["exhaustive"] = ExhaustivePlanner(
        distribution, split_policy=policy, max_subproblems=300_000
    )
    return planners


def _report_suite(args: argparse.Namespace) -> Report:
    """The planner x dataset sweep behind ``lint-plan --suite`` and
    ``analyze --suite``.

    Every plan is verified against the full rule catalog, its compiled
    form included, and its planner's cost certificate is re-derived
    (DF101).  Every plan of a planner that issues certificates (the
    exhaustive DP, the heuristic's scoring passes) must ship one that
    survives.  Then every corpus family self-tests its rules.
    """
    smoothing = 0.5 if args.smoothing is None else args.smoothing
    rows: list[dict] = []
    reports: list[VerificationReport] = []
    gate_failures: list[str] = []
    for dataset_name, dataset, queries in _suite_datasets():
        schema = dataset.schema
        distribution = EmpiricalDistribution(
            schema, dataset.data, smoothing=smoothing
        )
        for planner_name, planner in _suite_planners(distribution).items():
            row = {
                "dataset": dataset_name,
                "planner": planner_name,
                "queries": len(queries),
                "errors": 0,
                "warnings": 0,
                "certified": 0,
            }
            issued = 0
            for query in queries:
                result = planner.plan_timed(query)
                report = verify_plan(
                    result.plan,
                    schema,
                    query=query,
                    distribution=distribution,
                    claimed_cost=result.expected_cost,
                    check_compiled=True,
                    certificate=result.certificate,
                    subject=f"{dataset_name}/{planner_name}: {query.describe()}",
                )
                row["errors"] += len(report.errors)
                row["warnings"] += len(report.warnings)
                if result.certificate is not None:
                    issued += 1
                    row["certified"] += not report.has("DF101")
                if report.diagnostics:
                    reports.append(report)
            if issued and row["certified"] != len(queries):
                gate_failures.append(
                    f"{dataset_name}/{planner_name}: only {row['certified']}/"
                    f"{len(queries)} plans certified DF101-clean"
                )
            rows.append(row)
    corpus_failures = {family: run_corpus(family) for family in FAMILIES}
    errors = sum(row["errors"] for row in rows)
    warnings = sum(row["warnings"] for row in rows)
    failed_cases = sum(len(failures) for failures in corpus_failures.values())
    ok = not (errors or gate_failures or failed_cases)
    payload = {
        "ok": ok,
        "errors": errors,
        "warnings": warnings,
        "results": rows,
        "certificate_gate_failures": gate_failures,
        "corpus_failures": corpus_failures,
        "reports": [report.as_dict() for report in reports],
    }
    lines = [
        f"{'dataset':<11} {'planner':<13} {'queries':>7} {'errors':>7} "
        f"{'warnings':>9} {'certified':>9}"
    ]
    lines.extend(
        f"{row['dataset']:<11} {row['planner']:<13} {row['queries']:>7} "
        f"{row['errors']:>7} {row['warnings']:>9} {row['certified']:>9}"
        for row in rows
    )
    lines.extend(f"\n{report.format()}" for report in reports)
    lines.extend(f"\ncertificate gate FAILED: {message}" for message in gate_failures)
    for family, failures in corpus_failures.items():
        lines.extend(f"\n{family} corpus FAILED: {message}" for message in failures)
    lines.append(
        f"\n{args.command} suite {'clean' if ok else 'FAILED'}: "
        f"{errors} error(s), {warnings} warning(s) across {len(rows)} "
        f"planner/dataset runs; {failed_cases} corpus failure(s)"
    )
    return payload, "\n".join(lines), ok


def _report_lint_plan(args: argparse.Namespace) -> Report:
    if args.suite:
        return _report_suite(args)
    if args.schema is None:
        raise ReproError("lint-plan needs --schema (or --suite)")
    if (args.plan is None) == (args.bytecode is None):
        raise ReproError(
            "lint-plan needs exactly one of --plan or --bytecode (or --suite)"
        )
    schema = load_schema(args.schema)
    distribution = None
    if args.trace is not None:
        train = load_trace(args.trace, schema)
        distribution = EmpiricalDistribution(
            schema, train, smoothing=0.0 if args.smoothing is None else args.smoothing
        )
    query = None
    if args.query is not None:
        query = parse_query(args.query, schema).query
    if args.plan is not None:
        plan = load_plan(args.plan)
        report = verify_plan(
            plan,
            schema,
            query=query,
            distribution=distribution,
            check_compiled=True,
            subject=str(args.plan),
        )
    else:
        code = args.bytecode.read_bytes()
        report = verify_bytecode(
            code,
            schema,
            query=query,
            distribution=distribution,
            subject=str(args.bytecode),
        )
    return report.as_dict(), report.format(), report.ok


def _report_lint_code(args: argparse.Namespace) -> Report:
    """Static source analysis: file mode, or corpus self-test + repo scan."""
    if not args.suite:
        if not args.paths:
            raise ReproError("lint-code needs source files (or --suite)")
        report = lint_paths(args.paths, root=args.root)
        return report.as_dict(), report.format(), report.ok
    if args.paths:
        raise ReproError("lint-code --suite takes no positional files")
    corpus_failures = run_corpus("source")
    report = lint_repo(root=args.root)
    ok = report.ok and not corpus_failures
    payload = {
        "ok": ok,
        "corpus": {"ok": not corpus_failures, "failures": corpus_failures},
        "report": report.as_dict(),
    }
    if corpus_failures:
        lines = [f"corpus FAILED ({len(corpus_failures)} case(s)):"]
        lines.extend(f"  - {failure}" for failure in corpus_failures)
    else:
        lines = ["corpus ok: every rule fires on its seeded violation"]
    lines.append(report.format())
    return payload, "\n".join(lines), ok


def _report_analyze(args: argparse.Namespace) -> Report:
    if args.suite:
        return _report_suite(args)
    if args.schema is None or args.plan is None:
        raise ReproError("analyze needs --schema and --plan (or --suite)")
    schema = load_schema(args.schema)
    plan = load_plan(args.plan)
    query = None
    if args.query is not None:
        query = parse_query(args.query, schema).query
    analysis = analyze_plan(plan, schema, query=query)
    findings = check_dataflow(plan, schema, query=query, analysis=analysis)
    report = VerificationReport.from_findings(findings, subject=str(args.plan))
    payload = {
        "subject": str(args.plan),
        "report": report.as_dict(),
        "states": {facts.path: facts.state.describe(schema) for facts in analysis},
    }
    text = f"{render_analysis(analysis)}\n\n{report.format()}"
    if args.fix:
        optimized = optimize_plan(plan, schema, query=query)
        destination = args.out if args.out is not None else args.plan
        save_plan(optimized, destination)
        payload["fix"] = fix = {
            "out": str(destination),
            "nodes_before": sum(1 for _ in iter_plan_paths(plan)),
            "nodes_after": sum(1 for _ in iter_plan_paths(optimized)),
        }
        text += (
            f"\n\nfix: wrote optimized plan to {fix['out']} "
            f"({fix['nodes_before']} -> {fix['nodes_after']} nodes)"
        )
    return payload, text, report.ok


def _report_learn_bench(args: argparse.Namespace) -> Report:
    from repro.learn import run_learned_bench

    report = run_learned_bench(
        n_segments=args.segments,
        segment_length=args.segment_length,
        seed=args.seed,
        window=args.window,
        smoothing=args.smoothing,
        delta=args.delta,
        burst_pulls=args.burst_pulls,
        posterior_decay=args.posterior_decay,
        drift_threshold=args.drift_threshold,
        regret_budget=args.regret_budget,
    )
    payload = report.as_dict()
    ledger = payload["ledger"]
    lines = [
        f"adversarial stream: {report.tuples} tuples, "
        f"{report.segments} segments, seed {report.seed}",
        f"{'strategy':<18} {'total':>12} {'mean':>9} {'replans':>8}",
    ]
    lines.extend(
        f"{run.name:<18} {run.total_cost:>12.0f} "
        f"{run.mean_cost:>9.2f} {run.replans:>8}"
        for run in report.strategies
    )
    lines.append(
        f"ledger: warmup {ledger['warmup_cost']:.0f} + conditioning "
        f"{ledger['conditioning_cost']:.0f} + base "
        f"{ledger['base_cost']:.0f} + exploration "
        f"{ledger['exploration_cost']:.0f} (budget {ledger['budget']:.0f})"
    )
    lines.extend(
        f"  gate {gate}: {'pass' if passed else 'FAIL'}"
        for gate, passed in report.gates.items()
    )
    return payload, "\n".join(lines), report.all_gates_pass


def _json(payload: object) -> str:
    return json.dumps(payload, indent=2)


def _emit(
    args: argparse.Namespace,
    payload: dict,
    text: str,
    ok: bool,
    out: Path | None = None,
) -> int:
    """The one report emitter.

    ``--out`` (when given) always receives the JSON payload, stdout gets
    the same JSON under ``--json`` and the text rendering otherwise, and
    the exit status is 0 when the report is ok, 1 when it is not.  Usage
    and I/O errors never reach here: :func:`main` maps them to 2.
    """
    rendered = _json(payload)
    if out is not None:
        out.write_text(rendered + "\n")
        logger.info("report written to %s", out)
    print(rendered if getattr(args, "as_json", False) else text)
    return 0 if ok else 1


# Report verbs: verb -> (function returning (payload, text, ok), whether
# --out receives the JSON report).  analyze's --out is where --fix writes
# the optimized plan; lint-plan and chaos have no --out.
REPORT_VERBS: dict[str, tuple[Callable[[argparse.Namespace], Report], bool]] = {
    "lint-plan": (_report_lint_plan, False),
    "analyze": (_report_analyze, False),
    "lint-code": (_report_lint_code, True),
    "chaos": (_report_chaos, False),
    "obs-report": (_report_obs, True),
    "profile": (_report_profile, True),
    "learn-bench": (_report_learn_bench, True),
}

COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "generate": _command_generate,
    "plan": _command_plan,
    "explain": _command_explain,
    "execute": _command_execute,
    "compare": _command_compare,
    "serve-bench": _command_serve_bench,
    "cache-stats": _command_cache_stats,
    "serve-sharded": _command_serve_sharded,
    "shard-stats": _command_shard_stats,
    "metrics": _command_metrics,
}


#: Exit status when standard output is closed early (128 + SIGPIPE).
EXIT_BROKEN_PIPE = 141


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code (see the module docs)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    try:
        try:
            if args.command in REPORT_VERBS:
                build, out_is_report = REPORT_VERBS[args.command]
                payload, text, ok = build(args)
                status = _emit(
                    args, payload, text, ok, args.out if out_is_report else None
                )
            else:
                status = COMMANDS[args.command](args)
            # A closed pipe shows at the flush; flush while it can be caught.
            sys.stdout.flush()
            return status
        except (ReproError, FileNotFoundError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_BROKEN_PIPE


def _drop_stdout() -> None:
    """Point stdout at the null device, so that the interpreter's final
    flush of output the closed pipe refused stays quiet."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (OSError, ValueError):
        pass  # stdout is not a file descriptor: nothing is left to flush


if __name__ == "__main__":
    raise SystemExit(main())
