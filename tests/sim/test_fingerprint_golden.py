"""The behaviour contract refactors are judged by, pinned.

* **Golden fingerprints** — the event-log fingerprint of seed 2026 /
  120 events in both profiles.  A change that claims "same behaviour"
  must leave these byte-identical; a change that means to alter
  behaviour updates them deliberately, in the same diff.
* **Termination** — three mixed-profile schedules that used to spin
  forever in ``QueryGateway.call_many`` (every replica ejected, one
  probe due while its breaker was still open, or a half-open breaker
  whose probe was dropped un-settled).  Each must now run to completion
  with every invariant held, inside a hard wall-clock bound.
"""

import signal

import pytest

from repro.core import issuer
from repro.sim import run_sim

pytestmark = pytest.mark.sim

#: ``mixed`` re-pinned once at PR 21 (was dedb163e…e0d8975): the crash
#: list names the surviving path's crashpoints; a certified block is one
#: WAL record.  ``overload`` draws no crash event and did not move.
GOLDEN = {
    "mixed": "777aada1031bb90754ffcb9c749f4d928ba743feb9cad5cef18e427026318ed7",
    "overload": "0eb84da81dae2687c674a760e4be358dd4b26d575c5e7a414b3af929be4929e1",
}

#: Generous: the slowest of these takes ~6 s; the old livelock never
#: returned at all.
TERMINATION_BOUND_S = 60


@pytest.mark.parametrize("profile", sorted(GOLDEN))
def test_golden_fingerprint(profile):
    result = run_sim(2026, 120, profile=profile)
    assert result.ok, result.violation
    assert result.fingerprint == GOLDEN[profile]


@pytest.mark.parametrize("profile", sorted(GOLDEN))
def test_golden_fingerprint_with_a_one_block_history_window(profile, monkeypatch):
    """The issuer's history window is memory, not behaviour: with every
    certified block but the newest read back from the WAL (hub remounts,
    ``certify_range`` resubmissions, restarts, every invariant) the run
    is the same run."""
    monkeypatch.setattr(issuer, "HISTORY_WINDOW", 1)
    result = run_sim(2026, 120, profile=profile)
    assert result.ok, result.violation
    assert result.fingerprint == GOLDEN[profile]


@pytest.mark.slow
@pytest.mark.parametrize("seed,events", [(7, 200), (8, 320), (4, 600)])
def test_former_gateway_livelock_seeds_terminate(seed, events):
    def stalled(_signum, _frame):
        raise AssertionError(
            f"sim seed {seed} / {events} events still running after "
            f"{TERMINATION_BOUND_S} s (gateway livelock?)"
        )

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(TERMINATION_BOUND_S)
    try:
        result = run_sim(seed, events)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert result.ok, result.violation
    assert result.events_applied == events
