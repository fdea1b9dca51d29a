"""Cost-model accounting: ledger snapshots/deltas and the disable stack.

Regression focus: ``cost_model_disabled()`` used to save/restore a
boolean, which breaks when nested contexts exit out of LIFO order
(pytest fixture teardown and generator finalization interleave
freely).  The model would either re-enable while an inner context was
still active or stay disabled forever — after which every ecall
recorded *zeroed* charges into ledgers the caller believed were live,
silently diluting snapshot deltas.  The depth counter fixes both.
"""

from __future__ import annotations

import pytest

from repro.sgx.costs import (
    CostLedger,
    SGXCostModel,
    cost_model_disabled,
    model_enabled,
)
from repro.sgx.enclave import EnclaveHost, EnclaveProgram
from repro.sgx.platform import SGXPlatform


class _Echo(EnclaveProgram):
    ECALLS = ("echo",)

    def config_bytes(self) -> bytes:
        return b"cost-tests"

    def on_init(self) -> bytes:
        return b"report-data"

    def echo(self, value):
        return value


@pytest.fixture()
def host():
    return EnclaveHost(
        _Echo(),
        SGXPlatform(seed=b"cost-tests"),
        cost_model=SGXCostModel(spend_time=False),
    )


def test_non_lifo_nested_disable_contexts(_no_sgx_charges):
    # The autouse fixture holds one disable context open already; these
    # two exit in the opposite order from how they entered.
    outer = cost_model_disabled()
    inner = cost_model_disabled()
    outer.__enter__()
    inner.__enter__()
    outer.__exit__(None, None, None)
    # Inner context still active: the model must stay disabled.
    assert not model_enabled()
    inner.__exit__(None, None, None)
    # Back to just the fixture's context — still disabled, not "stuck".
    assert not model_enabled()


def test_non_lifo_exit_does_not_leak_zeroed_charges(host):
    """After a non-LIFO enter/exit dance, a live ledger must charge."""
    outer = cost_model_disabled()
    inner = cost_model_disabled()
    outer.__enter__()
    inner.__enter__()
    outer.__exit__(None, None, None)
    inner.__exit__(None, None, None)
    # All explicit contexts closed; only the suite fixture remains.
    # Charge with the model *enabled* and check it lands on the ledger.
    host.ledger.reset()
    before = host.ledger.snapshot()
    from repro.sgx import costs

    saved = costs._DISABLED_DEPTH
    costs._DISABLED_DEPTH = 0
    try:
        host.ecall("echo", b"x", payload_bytes=128)
    finally:
        costs._DISABLED_DEPTH = saved
    delta = host.ledger.delta(before)
    assert delta.ecalls == 1
    assert delta.transition_s > 0.0, "charges leaked away: model stuck off"


def test_snapshot_inside_disabled_context_stays_isolated(host):
    """A snapshot/delta taken inside a nested disabled context must not
    absorb zeroed charges into the outer ledger's accounting."""
    outer_before = host.ledger.snapshot()
    with cost_model_disabled():
        inner_before = host.ledger.snapshot()
        host.ecall("echo", b"x", payload_bytes=64)
        inner_delta = host.ledger.delta(inner_before)
        # Bookkeeping is always recorded; charges are not.
        assert inner_delta.ecalls == 1
        assert inner_delta.transition_s == 0.0
        assert inner_delta.paging_s == 0.0
    outer_delta = host.ledger.delta(outer_before)
    assert outer_delta.ecalls == 1
    assert outer_delta.transition_s == 0.0


def test_reset_inside_disabled_context(host):
    with cost_model_disabled():
        host.ecall("echo", b"x")
        host.ledger.reset()
        assert host.ledger.ecalls == 0
        host.ecall("echo", b"y")
    assert host.ledger.ecalls == 1
    assert host.ledger.transition_s == 0.0


def test_delta_subtracts_every_charge_field():
    before = CostLedger(
        ecalls=2, transition_s=1.0, slowdown_s=2.0,
        paging_s=0.5, in_enclave_s=3.0, peak_epc_bytes=100,
    )
    after = CostLedger(
        ecalls=5, transition_s=1.5, slowdown_s=2.25,
        paging_s=0.75, in_enclave_s=4.0, peak_epc_bytes=200,
    )
    delta = after.delta(before)
    assert delta.ecalls == 3
    assert delta.transition_s == pytest.approx(0.5)
    assert delta.slowdown_s == pytest.approx(0.25)
    assert delta.paging_s == pytest.approx(0.25)
    assert delta.in_enclave_s == pytest.approx(1.0)
    # Peak EPC is a high-water mark, not a sum: the delta carries it.
    assert delta.peak_epc_bytes == 200


def test_exception_inside_disabled_context_unwinds():
    with pytest.raises(RuntimeError):
        with cost_model_disabled():
            raise RuntimeError("boom")
    # The fixture's context is still active, so still disabled — but the
    # depth must have unwound by exactly one (no underflow/overflow).
    from repro.sgx import costs

    assert costs._DISABLED_DEPTH >= 1
    assert not model_enabled()
