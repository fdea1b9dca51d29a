"""WIRE01/OBS01/CAT01 — the wire, metrics, and fault-catalog contracts.

* **WIRE01** — every ``@dataclass`` wire message in the message modules
  must be declared ``frozen=True`` (a mutable message breaks the
  codec's value-object assumption) and must be referenced by at least
  one test under ``tests/`` (the round-trip suite — a message type
  nobody round-trips is a message type whose codec path has never run).

* **OBS01** — metric names handed to the registry must follow the
  documented ``component.metric`` grammar (lowercase dotted segments of
  ``[a-z0-9_]``, at least two segments).  Dynamic names (f-strings) must
  carry a static grammar-conforming prefix ending at a segment
  boundary, e.g. ``f"rpc.server.handle_ms.{method}"``.

* **CAT01** — every string literal planted at a
  ``crashpoint``/``torn_prefix``/``crash_now`` site must be a member of
  :data:`repro.fault.crashpoints.CATALOG`, and every catalog entry must
  be planted at at least one library site — a cataloged-but-never-
  planted point silently shrinks chaos coverage, which is worse than a
  loud failure.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.context import (
    Checker,
    ModuleContext,
    Project,
    dotted_name,
    str_arg,
)
from repro.analysis.findings import Finding

# -- WIRE01 -------------------------------------------------------------------

#: Modules whose module-level dataclasses are wire messages.
WIRE_MESSAGE_MODULES = frozenset({"repro.net.pubsub"})


class WireMessageChecker(Checker):
    rule = "WIRE01"
    title = "wire message without frozen contract or round-trip test"

    def finalize(self, project: Project) -> Iterable[Finding]:
        test_sources = [ctx.source for ctx in project.test_modules()]
        for ctx in project.library_modules():
            if ctx.module not in WIRE_MESSAGE_MODULES:
                continue
            for node in ctx.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                decorated = self._dataclass_decorator(node)
                if decorated is None:
                    continue
                if not self._is_frozen(decorated):
                    yield Finding(
                        rule=self.rule,
                        path=ctx.relpath,
                        line=node.lineno,
                        message=(
                            f"wire message {node.name} is not "
                            "@dataclass(frozen=True)"
                        ),
                        hint=(
                            "wire messages are value objects; declare "
                            "them frozen (and slotted)"
                        ),
                    )
                pattern = re.compile(rf"\b{re.escape(node.name)}\b")
                if not any(pattern.search(src) for src in test_sources):
                    yield Finding(
                        rule=self.rule,
                        path=ctx.relpath,
                        line=node.lineno,
                        message=(
                            f"wire message {node.name} has no test "
                            "reference (no round-trip coverage)"
                        ),
                        hint=(
                            "add it to the encode/decode round-trip "
                            "suite in tests/net/"
                        ),
                    )

    @staticmethod
    def _dataclass_decorator(node: ast.ClassDef):
        for decorator in node.decorator_list:
            target = (
                decorator.func
                if isinstance(decorator, ast.Call)
                else decorator
            )
            if dotted_name(target).rsplit(".", 1)[-1] == "dataclass":
                return decorator
        return None

    @staticmethod
    def _is_frozen(decorator: ast.expr) -> bool:
        if not isinstance(decorator, ast.Call):
            return False
        return any(
            kw.arg == "frozen"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in decorator.keywords
        )


# -- OBS01 --------------------------------------------------------------------

#: Registry entry points taking a metric name as their first argument.
METRIC_CALLS = frozenset({"inc", "observe", "set_gauge", "histogram"})

#: The documented naming grammar (docs/observability.md): lowercase
#: dotted segments, at least ``component.metric``.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

#: A static f-string prefix must end exactly at a segment boundary.
METRIC_PREFIX_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*\.$")


class MetricNameChecker(Checker):
    rule = "OBS01"
    title = "metric name violates the component.metric grammar"

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_library:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            parts = name.split(".")
            if parts[-1] not in METRIC_CALLS:
                continue
            if len(parts) < 2 or parts[-2] not in ("obs", "metrics"):
                continue
            if not node.args:
                continue
            yield from self._check_name(ctx, node, node.args[0])

    def _check_name(
        self, ctx: ModuleContext, call: ast.Call, arg: ast.expr
    ) -> Iterable[Finding]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not METRIC_NAME_RE.match(arg.value):
                yield Finding(
                    rule=self.rule,
                    path=ctx.relpath,
                    line=call.lineno,
                    message=(
                        f"metric name {arg.value!r} violates the "
                        "component.metric grammar"
                    ),
                    hint=(
                        "lowercase [a-z0-9_] segments joined by dots, "
                        "at least two segments (see docs/observability.md)"
                    ),
                )
        elif isinstance(arg, ast.JoinedStr):
            first = arg.values[0] if arg.values else None
            prefix = (
                first.value
                if isinstance(first, ast.Constant)
                and isinstance(first.value, str)
                else ""
            )
            if not METRIC_PREFIX_RE.match(prefix):
                yield Finding(
                    rule=self.rule,
                    path=ctx.relpath,
                    line=call.lineno,
                    message=(
                        "dynamic metric name needs a static "
                        "component.metric prefix ending in '.' "
                        f"(got {prefix!r})"
                    ),
                    hint='write f"component.metric.{variable}"',
                )


# -- CAT01 --------------------------------------------------------------------

CRASHPOINT_MODULE = "repro.fault.crashpoints"

#: Call names that plant (or arm) a crashpoint by string literal.
PLANT_CALLS = frozenset({"crashpoint", "torn_prefix", "crash_now"})
ARM_CALLS = frozenset({"crash_armed", "CrashSchedule"})


class CrashCatalogChecker(Checker):
    rule = "CAT01"
    title = "crashpoint literal out of sync with repro.fault.CATALOG"

    def finalize(self, project: Project) -> Iterable[Finding]:
        catalog_ctx = project.find(CRASHPOINT_MODULE)
        if catalog_ctx is None:
            return
        catalog, catalog_line = self._parse_catalog(catalog_ctx)
        planted: dict[str, tuple[str, int]] = {}
        for ctx in project.modules:
            if ctx.module == CRASHPOINT_MODULE:
                continue
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                callee = dotted_name(node.func).rsplit(".", 1)[-1]
                if callee not in PLANT_CALLS and callee not in ARM_CALLS:
                    continue
                literal = str_arg(node)
                if literal is None:
                    continue  # schedule-driven (variable) arming
                if literal not in catalog:
                    yield Finding(
                        rule=self.rule,
                        path=ctx.relpath,
                        line=node.lineno,
                        message=(
                            f"crashpoint {literal!r} is not in "
                            "repro.fault.CATALOG"
                        ),
                        hint=(
                            "add it to the catalog (with a comment on "
                            "the window it models) or fix the typo"
                        ),
                    )
                elif callee in PLANT_CALLS and ctx.in_library:
                    planted.setdefault(literal, (ctx.relpath, node.lineno))
        for point in sorted(catalog - set(planted)):
            yield Finding(
                rule=self.rule,
                path=catalog_ctx.relpath,
                line=catalog_line.get(point, 1),
                message=(
                    f"CATALOG entry {point!r} is planted at no library "
                    "site — chaos sweeps of it are no-ops"
                ),
                hint=(
                    "plant crashpoint()/torn_prefix() at the window it "
                    "names, or remove the stale entry"
                ),
            )

    @staticmethod
    def _parse_catalog(
        ctx: ModuleContext,
    ) -> tuple[set[str], dict[str, int]]:
        names: set[str] = set()
        lines: dict[str, int] = {}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if not any(
                isinstance(t, ast.Name) and t.id == "CATALOG" for t in targets
            ):
                continue
            value = node.value
            if isinstance(value, (ast.Tuple, ast.List)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        names.add(element.value)
                        lines[element.value] = element.lineno
        return names, lines
