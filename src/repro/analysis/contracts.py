"""VER01/ERR01/BND01 — the trust, taxonomy, and bounded-state contracts.

* **VER01** — *no unverified adoption*.  The superlight client's
  tip/index-root state has exactly one producer: the pure core
  ``adopt_bundle``, which verifies every certificate before building a
  ``ClientState``.  Any other write to that state — anything but
  ``self.state = adopt_bundle(...)`` or the empty declaration in
  ``__init__`` — and any ``ClientState(...)`` built outside the core is
  a finding, verified or not.  The remaining trusted writes (the
  gateway's current replica) and every verified-answer-cache admit must
  be **dominated by a verification call** in the same function body.
  The dominance check is the cheap approximation — "some ``verify*``/
  ``validate*``/``_ensure_verified`` call appears earlier in this
  function" — which catches the realistic failure (a new code path that
  adopts first and verifies never) while staying a pure AST pass.  The
  rare verified-elsewhere site carries a justified inline suppression,
  which doubles as documentation.

* **ERR01** — *typed error taxonomy*.  Every class in ``errors.py``
  under :class:`~repro.errors.ReproError` must declare its **own**
  stable wire ``code`` (so ``code_for``/``error_for_code`` round-trip
  it exactly), codes must be unique, and library ``raise`` sites must
  use taxonomy members — never the bare base class, never an
  unregistered ``*Error`` — so a failure always crosses the wire as a
  typed, retryability-classified member.

* **BND01** — *bounded client/network state*.  Growable containers
  (``dict``/``list``/``set``/``deque``) assigned empty in ``__init__``
  of the long-lived network and client classes must show eviction
  evidence somewhere in their module (a ``pop``/``popitem``/
  ``popleft``/``clear``/``discard``/``remove``/``del`` on that
  attribute, or a ``deque(maxlen=...)`` bound) — the paper's
  constant-client-state claim, generalized to every process that
  serves millions of requests.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.context import (
    Checker,
    ModuleContext,
    Project,
    dotted_name,
    enclosing_functions,
)
from repro.analysis.findings import Finding

# -- VER01 --------------------------------------------------------------------

#: module -> trusted-state attribute names whose writes need a
#: dominating verification call (cache admits are checked everywhere
#: in these modules).
TRUST_SCOPES: dict[str, frozenset[str]] = {
    "repro.core.superlight": frozenset(),
    "repro.net.gateway": frozenset({"current", "_tip"}),
}

#: In the superlight client module, the one function that may build a
#: ``ClientState`` or produce the value written to a ``.state``: the
#: pure core, which verifies the whole bundle first.
CLIENT_MODULE = "repro.core.superlight"
ADOPTION_CORE = "adopt_bundle"

#: Call names (last dotted segment) that count as verification.
_VERIFIER_EXACT = frozenset({"_ensure_verified"})


def _is_verifier(name: str) -> bool:
    last = name.rsplit(".", 1)[-1]
    return (
        last.startswith("verify")
        or last.startswith("validate")
        or last in _VERIFIER_EXACT
    )


def _is_cache_admit(name: str) -> bool:
    """``...cache....put(...)`` — admitting an answer into the
    verified-answer cache."""
    parts = name.split(".")
    return parts[-1] == "put" and any("cache" in part for part in parts[:-1])


class AdoptionChecker(Checker):
    rule = "VER01"
    title = "trusted-state write not dominated by verification"

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        trusted = TRUST_SCOPES.get(ctx.module)
        if trusted is None:
            return
        owner = enclosing_functions(ctx.tree)
        if ctx.module == CLIENT_MODULE:
            yield from self._outside_core(ctx, owner)
        verifier_lines = self._verifier_lines_by_function(ctx.tree, owner)
        for node, description in self._trusted_writes(ctx.tree, trusted):
            function = owner.get(node)
            if function is not None and function.name == "__init__":
                continue  # declaring empty state is not adoption
            dominated = any(
                line <= node.lineno
                for line in verifier_lines.get(function, ())
            )
            if not dominated:
                yield Finding(
                    rule=self.rule,
                    path=ctx.relpath,
                    line=node.lineno,
                    message=(
                        f"{description} without a dominating "
                        "verification call in this function"
                    ),
                    hint=(
                        "call verify_*/validate_*/_ensure_verified on "
                        "the material before adopting it, or add a "
                        "justified allow[VER01] if verification "
                        "provably happened on every path here"
                    ),
                )

    def _outside_core(self, ctx: ModuleContext, owner) -> Iterable[Finding]:
        """``.state`` writes and ``ClientState(...)`` constructions
        anywhere but the adoption core."""
        for node in ast.walk(ctx.tree):
            function = getattr(owner.get(node), "name", None)
            if function == ADOPTION_CORE:
                continue
            if isinstance(node, ast.Call):
                breach = _callee(node) == "ClientState" and (
                    node.args or node.keywords
                )
            else:
                # Declaring the empty state in __init__ is not adoption.
                breach = (
                    function != "__init__"
                    and any(
                        _trusted_attr(target, frozenset({"state"}))
                        for target in _write_targets(node)
                    )
                    and _callee(node.value) != ADOPTION_CORE
                )
            if breach:
                yield Finding(
                    rule=self.rule,
                    path=ctx.relpath,
                    line=node.lineno,
                    message=(
                        "client state built or written outside the "
                        f"adoption core {ADOPTION_CORE}()"
                    ),
                    hint=(
                        "client tip/index-root state only ever comes from "
                        f"self.state = {ADOPTION_CORE}(...), which verifies "
                        "every certificate first"
                    ),
                )

    @staticmethod
    def _verifier_lines_by_function(tree, owner) -> dict:
        lines: dict = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _is_verifier(
                dotted_name(node.func)
            ):
                lines.setdefault(owner.get(node), []).append(node.lineno)
        return lines

    @staticmethod
    def _trusted_writes(tree, trusted):
        """(node, description) for every write to a trusted attribute
        and every cache admit."""
        for node in ast.walk(tree):
            for target in _write_targets(node):
                attr = _trusted_attr(target, trusted)
                if attr is not None:
                    yield node, f"write to trusted state .{attr}"
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if _is_cache_admit(name):
                    yield node, f"verified-answer cache admit {name}(...)"


def _callee(node: ast.AST) -> str | None:
    """Last dotted segment of what ``node`` calls (None if not a call)."""
    if isinstance(node, ast.Call):
        return dotted_name(node.func).rsplit(".", 1)[-1]
    return None


def _write_targets(node: ast.AST) -> list[ast.expr]:
    """The targets of an assignment that installs a value (clearing to
    ``None`` is always safe, so it has none)."""
    if not isinstance(node, (ast.Assign, ast.AugAssign)):
        return []
    if isinstance(node.value, ast.Constant) and node.value.value is None:
        return []
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def _trusted_attr(target: ast.AST, trusted: frozenset[str]) -> str | None:
    """The trusted attribute a write targets, if any.

    Covers ``obj.attr = ...`` and ``obj.attr[key] = ...``.
    """
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute) and target.attr in trusted:
        return target.attr
    return None


# -- ERR01 --------------------------------------------------------------------

ERRORS_MODULE = "repro.errors"

#: Exception names raise sites may use without being taxonomy members.
BUILTIN_EXCEPTIONS = frozenset(
    {
        "ArithmeticError", "AssertionError", "AttributeError",
        "BaseException", "Exception", "FileExistsError",
        "FileNotFoundError", "IOError", "IndexError", "KeyError",
        "LookupError", "MemoryError", "NotImplementedError", "OSError",
        "OverflowError", "PermissionError", "RecursionError",
        "RuntimeError", "StopIteration", "TimeoutError", "TypeError",
        "UnicodeDecodeError", "UnicodeEncodeError", "ValueError",
        "ZeroDivisionError",
    }
)


class TaxonomyChecker(Checker):
    rule = "ERR01"
    title = "error taxonomy registration and typed raise sites"

    def finalize(self, project: Project) -> Iterable[Finding]:
        errors_ctx = project.find(ERRORS_MODULE)
        if errors_ctx is None:
            return
        taxonomy, structural = self._parse_taxonomy(errors_ctx)
        yield from structural
        for ctx in project.library_modules():
            yield from self._check_raises(ctx, taxonomy)

    def _parse_taxonomy(
        self, ctx: ModuleContext
    ) -> tuple[frozenset[str], list[Finding]]:
        """Class names under ReproError, plus structural findings
        (missing own ``code``, duplicate codes)."""
        classes: dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        }
        members: set[str] = set()

        def descends(name: str, seen: frozenset[str] = frozenset()) -> bool:
            if name == "ReproError":
                return True
            node = classes.get(name)
            if node is None or name in seen:
                return False
            return any(
                isinstance(base, ast.Name)
                and descends(base.id, seen | {name})
                for base in node.bases
            )

        findings: list[Finding] = []
        codes: dict[str, str] = {}
        for name, node in classes.items():
            if not descends(name):
                continue
            members.add(name)
            code = self._own_code(node)
            if code is None:
                findings.append(
                    Finding(
                        rule=self.rule,
                        path=ctx.relpath,
                        line=node.lineno,
                        message=(
                            f"{name} declares no wire code of its own — "
                            "code_for/error_for_code cannot round-trip it"
                        ),
                        hint='add a class-level  code = "<parent>.<leaf>"',
                    )
                )
                continue
            if code in codes:
                findings.append(
                    Finding(
                        rule=self.rule,
                        path=ctx.relpath,
                        line=node.lineno,
                        message=(
                            f"{name} reuses wire code {code!r} already "
                            f"registered by {codes[code]}"
                        ),
                        hint="wire codes must be unique within the taxonomy",
                    )
                )
                continue
            codes[code] = name
        return frozenset(members), findings

    @staticmethod
    def _own_code(node: ast.ClassDef) -> str | None:
        for statement in node.body:
            targets: list[ast.expr] = []
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign) and statement.value:
                targets = [statement.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "code":
                    value = statement.value
                    if isinstance(value, ast.Constant) and isinstance(
                        value.value, str
                    ):
                        return value.value
        return None

    def _check_raises(
        self, ctx: ModuleContext, taxonomy: frozenset[str]
    ) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = dotted_name(exc).rsplit(".", 1)[-1]
            if name == "ReproError":
                yield Finding(
                    rule=self.rule,
                    path=ctx.relpath,
                    line=node.lineno,
                    message=(
                        "raising the bare ReproError base class — the "
                        'failure crosses the wire as the untyped "error" '
                        "code"
                    ),
                    hint=(
                        "raise the most specific taxonomy subclass (add "
                        "one to errors.py with its own code if none fits)"
                    ),
                )
            elif (
                name.endswith("Error")
                and name not in taxonomy
                and name not in BUILTIN_EXCEPTIONS
            ):
                yield Finding(
                    rule=self.rule,
                    path=ctx.relpath,
                    line=node.lineno,
                    message=(
                        f"raising {name}, which is not registered in the "
                        "repro.errors taxonomy"
                    ),
                    hint=(
                        "define it in errors.py as a ReproError subclass "
                        "with a stable wire code"
                    ),
                )


# -- BND01 --------------------------------------------------------------------

#: Long-lived modules whose classes hold per-peer, per-request or
#: per-block state for the lifetime of the process.
BOUNDED_SCOPES = frozenset(
    {
        "repro.net.rpc",
        "repro.net.bus",
        "repro.net.pubsub",
        "repro.net.gateway",
        "repro.net.resilience",
        "repro.query.answercache",
        "repro.core.certificate",
        "repro.core.superlight",
        "repro.core.issuer",
        "repro.core.recovery",
        "repro.chain.node",
        "repro.storage",
        "repro.query.provider",
    }
)

#: Method calls that count as eviction evidence for an attribute.
EVICTORS = frozenset(
    {"pop", "popitem", "popleft", "clear", "discard", "remove"}
)

#: Zero-argument constructors that build growable containers.
GROWABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "deque", "OrderedDict", "defaultdict", "Counter"}
)


class BoundedStateChecker(Checker):
    rule = "BND01"
    title = "unbounded container on a long-lived class"

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.module not in BOUNDED_SCOPES:
            return
        evicted = self._evicted_attributes(ctx.tree)
        for class_node in ctx.tree.body:
            if not isinstance(class_node, ast.ClassDef):
                continue
            init = next(
                (
                    item
                    for item in class_node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name == "__init__"
                ),
                None,
            )
            if init is None:
                continue
            for node in ast.walk(init):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                value = node.value
                if value is None or not self._is_growable(value):
                    continue
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    if target.attr in evicted:
                        continue
                    yield Finding(
                        rule=self.rule,
                        path=ctx.relpath,
                        line=node.lineno,
                        message=(
                            f"{class_node.name}.{target.attr} grows "
                            "without eviction evidence in this module"
                        ),
                        hint=(
                            "bound it with a named *_LIMIT constant and "
                            "an eviction sweep (pop/popitem/del), or "
                            "deque(maxlen=...)"
                        ),
                    )

    @staticmethod
    def _is_growable(value: ast.expr) -> bool:
        if isinstance(value, ast.Dict) and not value.keys:
            return True
        if isinstance(value, ast.List) and not value.elts:
            return True
        if isinstance(value, ast.Call):
            name = dotted_name(value.func).rsplit(".", 1)[-1]
            if name not in GROWABLE_CONSTRUCTORS:
                return False
            if value.args:
                return False  # seeded from an existing collection
            if any(kw.arg == "maxlen" for kw in value.keywords):
                return False  # deque(maxlen=...) is bounded by design
            return not value.keywords
        return False

    @staticmethod
    def _evicted_attributes(tree: ast.Module) -> frozenset[str]:
        """Attribute names with eviction evidence anywhere in the module."""
        evicted: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in EVICTORS
                    and isinstance(func.value, ast.Attribute)
                ):
                    evicted.add(func.value.attr)
                # heapq.heappop(self._queue) drains a heap kept as an
                # attribute — eviction, spelled as a free function.
                if (
                    node.args
                    and dotted_name(func).rsplit(".", 1)[-1]
                    in ("heappop", "heappushpop")
                    and isinstance(node.args[0], ast.Attribute)
                ):
                    evicted.add(node.args[0].attr)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Attribute
                    ):
                        evicted.add(target.value.attr)
        return frozenset(evicted)
