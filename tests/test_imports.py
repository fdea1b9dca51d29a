"""Every module imports on its own.

``import repro.storage`` used to fail in a fresh interpreter (``storage``
<-> ``core.recovery`` through ``repro.core.__init__``), and so did
``repro.contracts`` and each contract module (``contracts`` <->
``chain.builder`` through ``repro.chain.__init__``) -- hidden because
every test imports ``repro.core`` first.  Here each package root, each
top-level module and each of those seven is the *first* import of its
own interpreter.
"""

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
