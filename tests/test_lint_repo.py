"""The repo-wide gate: the shipped repro package lints clean.

This is the same scan ``repro lint-code --suite`` and the CI job run.
Keeping it in the tier-1 suite means a determinism, locking, asyncio,
or ledger regression fails the build locally, before any CI tooling.
"""

from pathlib import Path

import pytest

import repro
from repro.lint import LintConfig, lint_repo


def test_shipped_package_lints_clean():
    root = Path(repro.__file__).resolve().parent
    report = lint_repo(root)
    assert report.files > 50  # the scan actually covered the package
    assert not report.findings, "\n" + report.format()


def test_repo_scan_includes_this_linter_itself():
    root = Path(repro.__file__).resolve().parent
    report = lint_repo(root)
    # lint_repo's subject names the scanned root; sanity-check the scan
    # walked into the lint package (it must hold its own rules).
    assert (root / "lint" / "engine.py").exists()
    assert str(root) in report.subject


@pytest.mark.parametrize(
    "field", ["deterministic_modules", "ledger_modules"]
)
def test_config_module_prefixes_name_shipped_modules(field):
    # A prefix naming a deleted module matches nothing, so the rules it
    # scopes would silently stop firing; every entry must still exist.
    root = Path(repro.__file__).resolve().parent
    for prefix in getattr(LintConfig(), field):
        head, *rest = prefix.split(".")
        assert head == "repro", prefix
        path = root.joinpath(*rest)
        assert (path / "__init__.py").is_file() or path.with_suffix(
            ".py"
        ).is_file(), f"{field} names missing module {prefix!r}"
