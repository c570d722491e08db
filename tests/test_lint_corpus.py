"""The repro-lint violation corpus: every rule must fire, cleanly."""

from repro.corpus import run_corpus
from repro.lint import (
    LINT_CATALOG,
    clean_cases,
    lint_source,
    violation_cases,
)


class TestCorpusSelfTest:
    def test_run_corpus_is_green(self):
        assert run_corpus() == []

    def test_every_violation_case_fires_its_documented_code(self):
        for case in violation_cases():
            report = lint_source(case.source, module=case.module)
            assert report.has(case.expected_code), (
                f"{case.name} expected {case.expected_code}, "
                f"got {sorted(report.codes())}"
            )

    def test_clean_cases_stay_silent(self):
        for case in clean_cases():
            report = lint_source(case.source, module=case.module)
            assert not report.findings, (
                f"clean case {case.name} fired {sorted(report.codes())}"
            )

    def test_corpus_exercises_every_cataloged_code(self):
        exercised = {case.expected_code for case in violation_cases()}
        assert exercised == set(LINT_CATALOG), (
            "codes with no corpus case: "
            f"{sorted(set(LINT_CATALOG) - exercised)}"
        )

    def test_expected_codes_carry_catalog_severities(self):
        for case in violation_cases():
            assert case.expected_code in LINT_CATALOG
            report = lint_source(case.source, module=case.module)
            matching = [
                f for f in report.findings if f.code == case.expected_code
            ]
            assert matching
            severity, _title = LINT_CATALOG[case.expected_code]
            assert all(f.severity is severity for f in matching)

    def test_case_names_and_modules_are_unique(self):
        names = [case.name for case in violation_cases() + clean_cases()]
        assert len(names) == len(set(names))
