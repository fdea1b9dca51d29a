"""The real repo passes its own analyzer.

This is the fifth test layer eating its own dog food: the full checker
stack over the actual ``src/`` and ``tests/`` trees must produce no
finding at all.  There is no baseline of accepted findings, so genuine
violations are fixed (or carry a justified inline suppression), never
accumulated.
"""

from pathlib import Path

from repro.analysis.runner import analyze

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_analysis_is_clean_against_baseline():
    """The baseline is no finding at all."""
    findings = analyze(REPO_ROOT)
    assert not findings, "\n".join(f.render() for f in findings)


def test_checked_in_baseline_is_empty():
    """Nothing is checked in to accept a finding: the baseline file is
    gone and the analyzer reads none (test_baseline_runner)."""
    assert not (REPO_ROOT / "analysis-baseline.json").exists()
