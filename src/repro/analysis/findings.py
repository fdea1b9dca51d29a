"""Findings, suppressions, and their stable identities.

A :class:`Finding` is one rule violation at one source location.  Its
:meth:`Finding.fingerprint` deliberately ignores the line number, so
two runs' ``--json`` findings compare by ``(rule, path, message)`` even
when an unrelated edit shifts code down a few lines.  There is no
baseline of accepted findings: a justified inline suppression is the
only way to accept one.

Inline suppressions are trailing (or immediately-preceding) comments::

    self.cache.put(request, answer)  # repro: allow[VER01] callers verify first

The justification after the closing bracket is **mandatory** — an
``allow`` with no stated reason is itself reported (rule ``SUP01``), so
the suppression mechanism cannot silently decay into a mute button.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

#: Rule id reserved for malformed suppressions (an ``allow`` comment
#: with no trailing justification).
SUPPRESSION_RULE = "SUP01"

_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[A-Z]{3}\d{2}(?:\s*,\s*[A-Z]{3}\d{2})*)\]"
    r"(?P<justification>[^\n]*)"
)


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    hint: str = ""

    def fingerprint(self) -> str:
        """Stable identity across runs (line-number free)."""
        digest = hashlib.sha256(
            f"{self.rule}|{self.path}|{self.message}".encode("utf-8")
        )
        return digest.hexdigest()[:16]

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
            "fingerprint": self.fingerprint(),
        }


@dataclass(frozen=True, slots=True)
class Suppression:
    """One parsed ``# repro: allow[...]`` comment."""

    line: int
    rules: tuple[str, ...]
    justification: str
    used: set = field(default_factory=set, compare=False)

    @property
    def justified(self) -> bool:
        return bool(self.justification)


def parse_suppressions(source_lines: list[str]) -> dict[int, Suppression]:
    """All ``allow`` comments in a file, keyed by 1-based line number."""
    found: dict[int, Suppression] = {}
    for number, text in enumerate(source_lines, start=1):
        match = _ALLOW_RE.search(text)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group("rules").split(",")
        )
        found[number] = Suppression(
            line=number,
            rules=rules,
            justification=match.group("justification").strip(),
        )
    return found


def suppression_for(
    suppressions: dict[int, Suppression], finding: Finding
) -> Suppression | None:
    """The suppression covering ``finding``, if any.

    A suppression covers the physical line it sits on and, when it is
    the sole content of its line (comment-above style), the statement
    beginning on the next line.
    """
    same_line = suppressions.get(finding.line)
    if same_line is not None and finding.rule in same_line.rules:
        return same_line
    above = suppressions.get(finding.line - 1)
    if above is not None and finding.rule in above.rules:
        return above
    return None


def malformed_suppression_findings(
    path: str, suppressions: dict[int, Suppression]
) -> list[Finding]:
    """SUP01 findings for every ``allow`` with no justification."""
    return [
        Finding(
            rule=SUPPRESSION_RULE,
            path=path,
            line=sup.line,
            message=(
                f"suppression allow[{', '.join(sup.rules)}] has no "
                "justification"
            ),
            hint=(
                "state why the violation is acceptable after the bracket: "
                "# repro: allow[RULE] <reason>"
            ),
        )
        for sup in suppressions.values()
        if not sup.justified
    ]
