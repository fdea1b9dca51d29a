"""Smoke check: disabled observability is (near) free.

The instrumentation contract (see ``docs/observability.md``) is that
every hook costs one global bool test while the switch is off.  This
benchmark compares the end-to-end ``selftest`` scenario row as shipped
(instrumented, observability disabled) against the same flow with the
recording helpers stripped to bare no-ops — the closest available
stand-in for an uninstrumented build — and asserts the shipped version
is within 5% of it.

Runs are interleaved and summarized by their minimum, which is the
standard way to damp scheduler noise out of a wall-clock comparison.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout

from repro import obs
from repro.cli import main
from repro.obs.tracing import _NULL_SPAN

ROUNDS = 3
MAX_OVERHEAD = 1.05


def _selftest_seconds() -> float:
    started = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        assert main(["demo", "selftest"]) == 0
    return time.perf_counter() - started


def test_disabled_observability_overhead_under_5_percent(monkeypatch):
    def noop(*args, **kwargs):
        return None

    assert not obs.enabled()
    instrumented: list[float] = []
    stripped: list[float] = []
    for _ in range(ROUNDS):
        instrumented.append(_selftest_seconds())
        with monkeypatch.context() as patched:
            patched.setattr(obs, "inc", noop)
            patched.setattr(obs, "observe", noop)
            patched.setattr(obs, "set_gauge", noop)
            patched.setattr(obs, "trace_span", lambda name: _NULL_SPAN)
            patched.setattr(obs, "enabled", lambda: False)
            stripped.append(_selftest_seconds())

    budget = min(stripped) * MAX_OVERHEAD
    assert min(instrumented) <= budget, (
        f"disabled observability cost {min(instrumented):.3f}s vs "
        f"{min(stripped):.3f}s stripped (>{MAX_OVERHEAD - 1:.0%} overhead)"
    )
