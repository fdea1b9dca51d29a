"""The analysis runner: discover, parse, check, report.

``python -m repro.analysis`` (or ``repro analyze``) walks ``src/`` and
``tests/`` — skipping ``fixtures/`` directories, which hold the
deliberately-violating snippets the analyzer's own tests assert on —
runs every registered checker, applies inline suppressions, and exits
non-zero when any finding (an unjustified suppression included)
remains.  An inline ``# repro: allow[RULE] reason`` comment is the only
way to accept a finding.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.context import Checker, ModuleContext, Project
from repro.analysis.contracts import (
    AdoptionChecker,
    BoundedStateChecker,
    TaxonomyChecker,
)
from repro.analysis.determinism import UnseededRandomChecker, WallClockChecker
from repro.analysis.findings import (
    Finding,
    malformed_suppression_findings,
    suppression_for,
)
from repro.analysis.protocol import (
    CrashCatalogChecker,
    MetricNameChecker,
    WireMessageChecker,
)

#: Directory names never descended into during discovery.
SKIPPED_DIRS = frozenset({"__pycache__", "fixtures", ".git"})

#: Default analysis roots, relative to the repo root.
DEFAULT_PATHS = ("src", "tests")


def all_checkers() -> list[Checker]:
    """One fresh instance of every registered checker, in rule order."""
    return [
        WallClockChecker(),
        UnseededRandomChecker(),
        AdoptionChecker(),
        TaxonomyChecker(),
        BoundedStateChecker(),
        WireMessageChecker(),
        MetricNameChecker(),
        CrashCatalogChecker(),
    ]


def discover(root: Path, paths: Sequence[str]) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        target = (root / entry).resolve()
        if target.is_file() and target.suffix == ".py":
            files.append(target)
            continue
        for path in sorted(target.rglob("*.py")):
            if any(part in SKIPPED_DIRS for part in path.parts):
                continue
            files.append(path)
    return files


def build_project(root: Path, files: Iterable[Path]) -> Project:
    modules = [ModuleContext.parse(path, root) for path in files]
    return Project(root=root, modules=modules)


def run_checkers(
    project: Project, checkers: Sequence[Checker] | None = None
) -> list[Finding]:
    """Every finding, suppressions applied, SUP01s included, sorted."""
    checkers = list(checkers) if checkers is not None else all_checkers()
    raw: list[Finding] = []
    for ctx in project.modules:
        for checker in checkers:
            raw.extend(checker.check_module(ctx))
    for checker in checkers:
        raw.extend(checker.finalize(project))

    by_path = {ctx.relpath: ctx for ctx in project.modules}
    kept: list[Finding] = []
    for finding in raw:
        ctx = by_path.get(finding.path)
        if ctx is not None:
            covering = suppression_for(ctx.suppressions, finding)
            if covering is not None and covering.justified:
                covering.used.add(finding.rule)
                continue
        kept.append(finding)
    for ctx in project.modules:
        kept.extend(
            malformed_suppression_findings(ctx.relpath, ctx.suppressions)
        )
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept


def analyze(
    root: Path,
    paths: Sequence[str] = DEFAULT_PATHS,
    checkers: Sequence[Checker] | None = None,
) -> list[Finding]:
    """Programmatic entry point: findings for ``paths`` under ``root``."""
    project = build_project(root, discover(root, paths))
    return run_checkers(project, checkers)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description=(
            "AST-based invariant linter: determinism (DET), "
            "verification-before-adoption (VER), error taxonomy (ERR), "
            "bounded state (BND), wire (WIRE), metrics (OBS), and "
            "crash-catalog (CAT) contracts"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to analyze (default: src tests)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root the paths are relative to (default: .)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit findings as JSON"
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        help="only report these rule ids (repeatable)",
    )
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    # Absolute path arguments would silently ignore --root (pathlib's
    # ``root / "/abs"`` is just ``/abs``) and then crash computing
    # relpaths; anchor them under the root or refuse clearly.
    paths: list[str] = []
    for entry in args.paths:
        candidate = Path(entry)
        if candidate.is_absolute():
            try:
                candidate = candidate.resolve().relative_to(root)
            except ValueError:
                parser.error(
                    f"{entry} is outside the analysis root {root}; "
                    "pass --root pointing at the repository it lives in"
                )
        paths.append(candidate.as_posix())
    findings = analyze(root, paths)
    if args.rule:
        wanted = set(args.rule)
        findings = [f for f in findings if f.rule in wanted]

    if args.json:
        print(
            json.dumps(
                {"findings": [f.as_dict() for f in findings]},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        print(f"analysis: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
