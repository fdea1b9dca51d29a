"""End-to-end instrumentation: the hot paths feed the registry."""

import pytest

from repro import obs
from repro.chain.genesis import make_genesis
from repro.core.issuer import CertificateIssuer
from repro.core.superlight import SuperlightClient
from repro.net.bus import MessageBus
from repro.net.faults import FaultInjector, LinkFaults
from repro.net.rpc import RpcClient, RpcServer
from repro.query.api import HistoryQuery
from repro.query.indexes import AccountHistoryIndexSpec
from repro.query.provider import QueryServiceProvider
from repro.sgx.attestation import AttestationService
from tests.conftest import fresh_vm


@pytest.fixture()
def observed_issuer(kv_chain):
    """A CI that certified three blocks with observability on."""
    genesis, state = make_genesis()
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), kv_chain.pow,
        index_specs=[AccountHistoryIndexSpec(name="history")],
        ias=AttestationService(seed=b"obs-ias"),
        key_seed=b"obs-enclave",
    )
    with obs.observability():
        for block in kv_chain.blocks[1:4]:
            issuer.process_block(block)
    return issuer


def test_enclave_and_issuer_metrics(observed_issuer):
    snap = obs.snapshot()
    counters = snap["counters"]
    assert counters["sgx.ecalls"] > 0
    assert counters["issuer.certs_issued"] == 3
    assert counters["issuer.index_certs_issued"] == 3
    hists = snap["histograms"]
    assert hists["issuer.gen_cert_ms"]["count"] == 3
    assert hists["issuer.update_proof_bytes"]["count"] == 3
    assert hists["issuer.index_certification_ms"]["count"] == 3
    assert hists["issuer.index_proof_bytes"]["min"] > 0
    assert snap["gauges"]["sgx.peak_epc_bytes"] > 0
    # Per-ecall latency histograms are keyed by entry point.
    assert any(name.startswith("sgx.ecall_ms.") for name in hists)


def test_client_metrics(observed_issuer):
    client = SuperlightClient(
        observed_issuer.measurement, observed_issuer.ias.public_key
    )
    tip = observed_issuer.certified[-1]
    with obs.observability():
        obs.reset()
        client.validate_chain(tip.block.header, tip.certificate)
        client.validate_index_certificate(
            "history", tip.block.header,
            tip.index_roots["history"], tip.index_certificates["history"],
        )
        answer = observed_issuer.indexes["history"].query_history("k1", 1, 3)
        request = HistoryQuery(index="history", account="k1", t_from=1, t_to=3)
        from repro.query.api import QueryAnswer

        assert client.verify_answer(
            request, QueryAnswer(request=request, payload=answer)
        )
    snap = obs.snapshot()
    assert snap["counters"]["client.chain_validations"] == 1
    assert snap["counters"]["client.index_certs_adopted"] == 1
    assert snap["counters"]["client.verify_ok"] == 1
    assert snap["gauges"]["client.storage_bytes"] == client.storage_bytes()
    assert snap["histograms"]["client.validate_chain_ms"]["count"] == 1
    assert snap["histograms"]["client.verify_answer_ms"]["count"] == 1


def test_rpc_and_bus_metrics():
    bus = MessageBus(default_latency_ms=10.0)
    server = RpcServer(bus, "server")
    server.register("echo", lambda argument: argument)
    client = RpcClient(bus, "caller", timeout_ms=100.0)
    with obs.observability():
        obs.set_virtual_clock(lambda: bus.clock_ms)
        assert client.call("server", "echo", "hello") == "hello"
    snap = obs.snapshot()
    counters = snap["counters"]
    assert counters["rpc.client.calls"] == 1
    assert counters["rpc.server.requests.echo"] == 1
    assert counters["net.bus.deliveries"] >= 2  # request + response
    assert counters["rpc.client.bytes_sent"] > 0
    assert counters["rpc.server.bytes_sent"] > 0
    # The per-method latency histogram runs on the virtual clock: one
    # round trip over two 10 ms links.
    call_hist = snap["histograms"]["rpc.client.call_ms.echo"]
    assert call_hist["count"] == 1
    assert call_hist["min"] == 20.0
    assert snap["histograms"]["rpc.server.handle_ms.echo"]["count"] == 1


def test_fault_and_retry_metrics():
    bus = MessageBus(default_latency_ms=5.0)
    injector = FaultInjector(seed=3, default=LinkFaults(drop_rate=1.0))
    bus.install_faults(injector)
    server = RpcServer(bus, "server")
    server.register("echo", lambda argument: argument)
    client = RpcClient(bus, "caller", timeout_ms=20.0)
    from repro.errors import RpcTimeoutError

    with obs.observability():
        with pytest.raises(RpcTimeoutError):
            client.call("server", "echo", "lost")
    counters = obs.snapshot()["counters"]
    assert counters["net.faults.dropped"] == 1
    assert counters["rpc.client.timeouts"] == 1


def test_query_provider_metrics(kv_chain):
    genesis, state = make_genesis()
    provider = QueryServiceProvider(
        genesis, state, fresh_vm(), kv_chain.pow,
        [AccountHistoryIndexSpec(name="history")],
    )
    for block in kv_chain.blocks[1:4]:
        provider.ingest_block(block)
    with obs.observability():
        answer = provider.execute(
            HistoryQuery(index="history", account="k1", t_from=1, t_to=3)
        )
    snap = obs.snapshot()
    assert snap["counters"]["query.requests.HistoryQuery"] == 1
    proof_hist = snap["histograms"]["query.proof_bytes"]
    assert proof_hist["count"] == 1
    assert proof_hist["min"] == answer.proof_size_bytes()
    assert snap["histograms"]["query.execute_ms"]["count"] == 1


def test_instrumented_paths_record_nothing_when_disabled(kv_chain):
    genesis, state = make_genesis()
    provider = QueryServiceProvider(
        genesis, state, fresh_vm(), kv_chain.pow,
        [AccountHistoryIndexSpec(name="history")],
    )
    for block in kv_chain.blocks[1:3]:
        provider.ingest_block(block)
    assert not obs.enabled()
    provider.execute(
        HistoryQuery(index="history", account="k1", t_from=1, t_to=2)
    )
    snap = obs.snapshot()
    assert snap["counters"] == {}
    assert snap["histograms"] == {}
    assert snap["spans"] == []
