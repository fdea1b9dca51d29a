"""The benchmark's own contract: BENCHMARK.json and run.py agree, counts
and fingerprints repeat, and the yardstick stands apart from the program.

    PYTHONPATH=src python -m pytest benchmarks/perf/tests

Runs ``run.py --all --smoke`` three times (twice at one seed, traced
once; once at another seed), about a minute and a half in all.
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
sys.path.insert(0, str(PERF))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
from clock import WatchdogExpired, arm_watchdog, disarm_watchdog  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Values that are counts of the run, not timings: they repeat exactly.
EXACT_END_TO_END = ("client_storage_bytes",)
EXACT_INFO = ("rounds", "samples", "virtual_ms_per_op", "failed_op_ratio")
FINGERPRINTS = {"certify-stream": "certificate_sha256", "sim-mixed": "sim_fingerprint"}


def _smoke(tmp_path_factory, seed: int, *, traced: bool) -> dict:
    target = tmp_path_factory.mktemp("perf") / f"smoke-{seed}.json"
    command = [
        sys.executable, str(PERF / "run.py"), "--all", "--smoke",
        "--seed", str(seed), "--json", str(target),
    ]
    if traced:
        command.append("--trace")
    subprocess.run(command, check=True, capture_output=True, timeout=600)
    return json.loads(target.read_text())


@pytest.fixture(scope="module")
def first(tmp_path_factory):
    return _smoke(tmp_path_factory, 2026, traced=True)


@pytest.fixture(scope="module")
def second(tmp_path_factory):
    return _smoke(tmp_path_factory, 2026, traced=False)


@pytest.fixture(scope="module")
def other_seed(tmp_path_factory):
    return _smoke(tmp_path_factory, 7, traced=False)


def _records(document: dict, mode: str) -> dict[str, dict]:
    return {
        record["workload"]: record
        for record in document["records"]
        if record["mode"] == mode
    }


def test_spec_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[group]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_every_named_thing_is_emitted_and_nothing_else(first):
    workloads = [entry["name"] for entry in SPEC["workloads"]]
    measured = _records(first, "measure")
    traced = _records(first, "trace")
    assert sorted(measured) == sorted(workloads)
    assert sorted(traced) == sorted(workloads)
    end_to_end = [entry["name"] for entry in SPEC["end_to_end"]]
    per_layer = [entry["name"] for entry in SPEC["per_layer"]]
    for name in workloads:
        assert list(measured[name]["end_to_end"]) == end_to_end
        assert list(traced[name]["per_layer"]) == per_layer
        assert measured[name]["correct"] and traced[name]["correct"]
        assert measured[name]["failed"] == 0
        assert all(value != 0 for value in measured[name]["end_to_end"].values())
    # Every layer metric is supplied by at least one workload's trace.
    for metric in per_layer:
        assert any(metric in traced[name]["supplied"] for name in workloads), metric


def test_counts_and_fingerprints_repeat(first, second, other_seed):
    a, b, c = (_records(doc, "measure") for doc in (first, second, other_seed))
    for name in a:
        for metric in EXACT_END_TO_END:
            assert a[name]["end_to_end"][metric] == b[name]["end_to_end"][metric]
        for key in EXACT_INFO:
            assert a[name]["info"][key] == b[name]["info"][key], (name, key)
        assert a[name]["attempted"] == b[name]["attempted"]
    for name, key in FINGERPRINTS.items():
        assert a[name]["info"][key] == b[name]["info"][key]
        assert a[name]["info"][key] != c[name]["info"][key]


def test_isolation_predictions_hold_at_smoke_size(first):
    traced = _records(first, "trace")
    assert traced["query-hot"]["per_layer"]["query.answercache.hit_ratio"] >= 0.5
    assert traced["query-cold"]["per_layer"]["query.answercache.hit_ratio"] <= 0.05
    assert traced["certify-stream"]["per_layer"]["net.rpc.calls_per_op"] == 0
    assert traced["tip-follow"]["per_layer"]["query.provider.execute_ms.history"] == 0
    assert (ROOT / traced["sim-mixed"]["info"]["trace_file"]).exists()


def test_yardstick_imports_nothing_from_repro():
    tree = ast.parse((PERF / "yardstick.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "hashlib", "bisect", "statistics", "time"}
    probe = (
        "import sys, yardstick; yardstick.kernel(); "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'repro']"
    )
    subprocess.run([sys.executable, "-c", probe], cwd=PERF, check=True)


def test_watchdog_interrupts_a_stalled_operation():
    arm_watchdog(0.05)
    try:
        with pytest.raises(WatchdogExpired):
            while True:
                pass
    finally:
        disarm_watchdog()


def test_compare_tells_regressed_from_unresolved():
    def document(*values):
        return {"records": [
            {"workload": "tip-follow", "end_to_end": {"op_p50_ms": value}}
            for value in values
        ]}

    lines, regressed = compare.compare(document(10.0), document(10.5))
    assert not regressed and lines[0].endswith("is better]") and " ok " in lines[0]
    lines, regressed = compare.compare(document(10.0), document(13.0))
    assert regressed and " regressed " in lines[0]
    # A side whose own runs differ by more than the bound settles nothing.
    lines, regressed = compare.compare(document(10.0, 14.0), document(12.0, 16.0))
    assert not regressed and " unresolved " in lines[0]
