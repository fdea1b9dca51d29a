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
One play of the row takes about 0.15 s on a 2-core host; on a shared
one most plays run more than 5 % slower than that, so the bound holds
only when both sides get plays at the host's floor.  Many short rounds
(one play a side each) give both sides more chances than a few long
ones.  Measured on a shared 2-core host: as a test, 3 rounds passed 8
of 20 runs, 7 rounds of 4 plays 15 of 20, 40 rounds 16 and 18 of 20;
an A/A control (both sides instrumented, 200 recorded pairs) breaks the
bound over 40-round windows about as often, so what is left is host
noise.  One untimed warm-up play (imports, the ECDSA tables) goes first.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout

from repro import obs
from repro.cli import main
from repro.obs.tracing import _NULL_SPAN

ROUNDS = 40
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
    _selftest_seconds()  # warm-up, not timed
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
