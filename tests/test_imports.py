"""Every module imports on its own.

``import repro.storage`` used to fail in a fresh interpreter (``storage``
<-> ``core.recovery`` through ``repro.core.__init__``), and so did
``repro.contracts`` and each contract module (``contracts`` <->
``chain.builder`` through ``repro.chain.__init__``) -- hidden because
every test imports ``repro.core`` first.  Here each package root, each
top-level module and each of those seven is the *first* import of its
own interpreter.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_ROOT = Path(repro.__file__).parent
MODULES = sorted(
    {"repro"}
    | {f"repro.{path.parent.name}" for path in _ROOT.glob("*/__init__.py")}
    | {f"repro.{path.stem}" for path in _ROOT.glob("*.py") if path.stem[0] != "_"}
    | {f"repro.contracts.{path.stem}" for path in (_ROOT / "contracts").glob("[a-z]*.py")}
)


def test_the_seven_that_failed_are_covered():
    assert {"repro.storage", "repro.contracts", "repro.contracts.kvstore",
            "repro.contracts.smallbank", "repro.contracts.ioheavy",
            "repro.contracts.cpuheavy", "repro.contracts.donothing"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_is_importable_first(module):
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={"PYTHONPATH": str(_ROOT.parent)}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr[-400:]


# -- no module without a caller ------------------------------------------------

#: Modules no other non-``__init__`` module under ``src/`` imports (names
#: re-exported by a package ``__init__`` are followed to their source).
#: A 195-line fork-aware node sat here unnoticed for eight PRs; a new orphan
#: or a stale entry fails.  Each entry cites what keeps it (ROADMAP,
#: "Settled").
ORPHANS = {
    "repro.__main__": "entry point (python -m repro)",
    "repro.analysis.__main__": "entry point (make analyze)",
    "repro.baselines.flyclient": "Fig. 7 baseline (PR 15 audit)",
    "repro.baselines.nipopow": "Fig. 7 baseline (PR 15 audit)",
    "repro.bench.harness": "imported by benchmarks/ (ROADMAP item 8(d) decides it)",
    "repro.chain.lightclient": "the traditional light client DCert is measured against (Fig. 7)",
    "repro.contracts.cpuheavy": "Blockbench contract, deployed by name",
    "repro.contracts.donothing": "Blockbench contract, deployed by name",
    "repro.contracts.ioheavy": "Blockbench contract, deployed by name",
    "repro.contracts.kvstore": "Blockbench contract, deployed by name",
    "repro.contracts.smallbank": "Blockbench contract, deployed by name",
    "repro.core.statesync": "examples/state_sync.py (PR 15 audit)",
    "repro.obs.tracing": "reached as attributes of the repro.obs package",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path):
    """``(module, name)`` for every import in a file, relative ones resolved."""
    name = _module_name(path)
    package = (name if path.name == "__init__.py" else name.rpartition(".")[0]).split(".")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield from ((module, alias.name) for alias in node.names)


def test_every_module_has_a_caller_or_a_recorded_reason():
    modules = {_module_name(path): path for path in _ROOT.rglob("*.py")}
    exports = {  # package -> {re-exported name: the module it comes from}
        name: {attr: module for module, attr in _imports(path) if attr}
        for name, path in modules.items() if path.name == "__init__.py"
    }
    used = set()

    def use(module, attr):
        if f"{module}.{attr}" in modules:
            used.add(f"{module}.{attr}")
        elif attr in exports.get(module, ()):
            use(exports[module][attr], attr)
        used.add(module)

    for importer, path in modules.items():
        if path.name != "__init__.py":
            for module, attr in _imports(path):
                if module != importer:
                    use(module, attr)
    orphans = {
        name for name, path in modules.items()
        if path.name != "__init__.py" and name not in used
    }
    assert orphans == set(ORPHANS)
