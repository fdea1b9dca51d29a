"""The behaviour contract refactors are judged by, pinned.

* **Golden fingerprints** — the event-log fingerprint of seed 2026 /
  120 events in both profiles.  A change that claims "same behaviour"
  must leave these byte-identical; a change that means to alter
  behaviour updates them deliberately, in the same diff.
* **Termination** — three mixed-profile schedules that used to spin
  forever in ``QueryGateway.call_many`` (every replica ejected, one
  probe due while its breaker was still open, or a half-open breaker
  whose probe was dropped un-settled).  Each must now run to completion
  with every invariant held, liveness after the closing ``quiesce``
  included, inside a hard wall-clock bound.
"""

import signal

import pytest

from repro.core import issuer
from repro.sim import run_sim

pytestmark = pytest.mark.sim

#: ``mixed`` re-pinned once at PR 21 (was dedb163e…e0d8975): the crash
#: list names the surviving path's crashpoints; a certified block is one
#: WAL record.  ``overload`` draws no crash event and did not move.
#: Both re-pinned once more (were 777aada1…318ed7 and 0eb84da8…4929e1)
#: when the provider list went: pollers and push clients query through
#: a gateway, and link faults also cut a client's gateway endpoint, so
#: virtual timestamps move.  ``overload``'s outcome lines are unchanged;
#: ``mixed`` differs in three ``heal`` counts (each fault now names two
#: links) and one ``overload`` event whose client's faulted link now
#: reaches its gateway's traffic.
#: ``mixed`` re-pinned once more (was af928d67…c3206) when the hub became
#: a latest-tip stream: a push client's heartbeat is one RPC (no catch-up
#: pull after it) and its subscribe reply carries the tip, so virtual
#: timestamps move.  Its outcome lines are unchanged; ``overload`` did
#: not move.
#: Both re-pinned once more (were bcb1b0df…4e3333 and 70075f0c…302414)
#: when gateway health became one always-on breaker per replica and a
#: replica switch became one ``index_roots`` request: a due probe is one
#: dispatch (not a share of every item), the breaker's reopen carries
#: seeded jitter, and a verification is one attempt, so virtual
#: timestamps move.  Each profile has one differing outcome line, event
#: 95 (mixed) / 2 (overload): an ``overload`` batch that missed its
#: deadline is now answered.
#: Both re-pinned once more (were fe45ece9…8cee94 and 2169dbc7…9af0)
#: when replica switch verification went: the gateway sends no
#: ``index_roots`` request before dispatching to a replica (every answer
#: is verified instead), so virtual timestamps move.  Neither profile's
#: outcome lines moved.
#: ``mixed`` re-pinned once more (was fb5e5fd3…ca73e6) when an RPC call
#: became one attempt: a client's tip or hub call sends once and waits
#: the default 500 ms (was 300 ms, up to three times), the miner's
#: ``certify_range`` sends once (a crash event calls again after the
#: restore), and a gateway hedges a half-open probe at once, so virtual
#: timestamps move.  Its outcome lines are unchanged; ``overload`` did
#: not move.
#: Both re-pinned once more (were 5d284a8b…8f8718 and a21b3992…f9ab9)
#: when ``run_sim`` began closing every schedule with one ``quiesce``
#: (heal, drain, follow round, probes; then the liveness invariants):
#: the log gains that one last line.  Every earlier line, virtual-clock
#: stamps included, is unchanged in both profiles.
#: Both re-pinned once more (were 9b8f01c7…160a39 and 198fe210…9cff32)
#: when an answer's claims came to be read from its proofs: the log
#: digests each encoded answer, and every answer with results is
#: shorter, so the ``ans:`` / ``x<n>:`` digests move.  Every other
#: byte of both logs, virtual-clock stamps and outcome kinds included,
#: is unchanged; round robin over the fleet's fixed order moves neither
#: log at this seed.
GOLDEN = {
    "mixed": "b65765951bf94681dd07c59a8c28299530222fa520ff6bcc359fbe71fe110286",
    "overload": "c610ad4984b0f62418863aa98bdc3e23c3bd2bafb17fc0f8a75ab56334cfbd17",
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
