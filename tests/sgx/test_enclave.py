"""Enclave runtime: measurement, ecall dispatch, cost accounting."""

import pytest

from repro.errors import EnclaveError
from repro.sgx.costs import SGXCostModel
from repro.sgx.enclave import EnclaveHost, EnclaveProgram, measure_program
from repro.sgx.platform import SGXPlatform


class EchoProgram(EnclaveProgram):
    ECALLS = ("echo", "fail")

    def __init__(self, tag: bytes = b"") -> None:
        self._tag = tag

    def config_bytes(self) -> bytes:
        return self._tag

    def on_init(self) -> bytes:
        self.initialized = True
        return b"report-data"

    def echo(self, value):
        return ("echo", value)

    def fail(self):
        raise ValueError("inside failure")

    def hidden(self):
        return "not an ecall"


class OtherProgram(EchoProgram):
    """Different source -> different measurement."""

    def extra(self):
        return 1


@pytest.fixture()
def host():
    return EnclaveHost(EchoProgram(), SGXPlatform(seed=b"enclave-tests"))


def test_measurement_is_deterministic():
    assert measure_program(EchoProgram) == measure_program(EchoProgram)


def test_measurement_changes_with_code():
    assert measure_program(EchoProgram) != measure_program(OtherProgram)


def test_measurement_changes_with_config():
    assert measure_program(EchoProgram, b"a") != measure_program(EchoProgram, b"b")


class DeclaredProgram(EnclaveProgram):
    PROGRAM_ID = "tests.declared"
    PROGRAM_VERSION = 1


def test_measurement_is_the_declared_identity_not_the_source(monkeypatch):
    before = measure_program(DeclaredProgram)
    monkeypatch.setattr(DeclaredProgram, "PROGRAM_VERSION", 2)
    bumped = measure_program(DeclaredProgram)
    monkeypatch.setattr(DeclaredProgram, "PROGRAM_ID", "tests.renamed")
    assert len({before, bumped, measure_program(DeclaredProgram)}) == 3


def test_a_subclass_does_not_inherit_its_parents_identity():
    class Patched(DeclaredProgram):
        pass

    assert measure_program(Patched) != measure_program(DeclaredProgram)


def test_host_folds_program_config(host):
    other = EnclaveHost(EchoProgram(tag=b"x"), SGXPlatform(seed=b"enclave-tests"))
    assert other.measurement != host.measurement


def test_on_init_runs_and_exports_report_data(host):
    assert host.program.initialized
    assert host.report_data == b"report-data"


def test_self_measurement_injected(host):
    assert host.program.self_measurement == host.measurement


def test_ecall_dispatch(host):
    assert host.ecall("echo", 42) == ("echo", 42)


def test_undeclared_ecall_rejected(host):
    with pytest.raises(EnclaveError):
        host.ecall("hidden")


def test_ecall_exceptions_propagate(host):
    with pytest.raises(ValueError):
        host.ecall("fail")


def test_no_charges_when_model_disabled(host):
    host.ecall("echo", 1)
    # Bookkeeping still happens; charges do not (autouse fixture).
    assert host.ledger.ecalls == 1
    assert host.ledger.in_enclave_s > 0
    assert host.ledger.transition_s == 0
    assert host.ledger.slowdown_s == 0
    assert host.ledger.paging_s == 0


def test_cost_ledger_accounting():
    model = SGXCostModel(spend_time=False)
    host = EnclaveHost(
        EchoProgram(), SGXPlatform(seed=b"ledger"), cost_model=model
    )
    # Escape the autouse disable for this one check.
    import repro.sgx.costs as costs

    previous = costs._DISABLED_DEPTH
    costs._DISABLED_DEPTH = 0
    try:
        host.ecall("echo", 1, payload_bytes=1000)
        host.ecall("echo", 2, payload_bytes=500)
    finally:
        costs._DISABLED_DEPTH = previous
    assert host.ledger.ecalls == 2
    assert host.ledger.transition_s == pytest.approx(2 * model.ecall_transition_s)
    assert host.ledger.peak_epc_bytes == 1000
    assert host.ledger.slowdown_s > 0
    assert host.ledger.paging_s == 0  # under the EPC limit


def test_paging_charge_beyond_epc():
    model = SGXCostModel(spend_time=False)
    assert model.paging_charge(model.epc_usable_bytes) == 0
    over = model.paging_charge(model.epc_usable_bytes + 10 * 1024 * 1024)
    assert over == pytest.approx(10 * model.paging_s_per_mb)


def test_ledger_snapshot_and_reset():
    from repro.sgx.costs import CostLedger

    ledger = CostLedger(ecalls=3, transition_s=1.0)
    snap = ledger.snapshot()
    ledger.reset()
    assert ledger.ecalls == 0 and snap.ecalls == 3
    assert snap.total_overhead_s() == 1.0
