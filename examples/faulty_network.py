"""A superlight client surviving an unreliable, adversarial network.

The paper's deployment model (Fig. 2) assumes superlight clients reach
*untrusted* Service Providers over links that can drop, delay, or
tamper with traffic.  This example wires a Certificate Issuer and two
SPs onto the simulated bus, then turns the screws:

* Act 1 — the client bootstraps over RPC and queries through a
  gateway while 30% of all messages to/from SP1 are dropped: timeouts
  and failover cover the loss.
* Act 2 — a tampering middlebox forges SP1's first query answer: the
  client detects the forgery against its certified index root, counts
  an integrity failure, and the gateway strikes SP1 and fails over to
  SP2 for a verified answer.
* Act 3 — both SPs go dark: after a bounded number of dispatches the
  client raises ServiceUnavailableError instead of hanging (or worse,
  trusting anything).

Run with:  python examples/faulty_network.py
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.chain import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.contracts import fresh_vm
from repro.core import (
    CertificateIssuer,
    ClientConfig,
    IssuerService,
    compute_expected_measurement,
    connect,
)
from repro.crypto import generate_keypair
from repro.errors import ServiceUnavailableError
from repro.net import (
    FaultInjector,
    LinkFaults,
    MessageBus,
    QueryGateway,
    RpcResponse,
    wire,
)
from repro.query import HistoryQuery, QueryAnswer, QueryService, QueryServiceProvider
from repro.query.indexes import AccountHistoryIndexSpec
from repro.sgx.attestation import AttestationService
from repro.sim import forge_answer


class ForgeOnce:
    """A middlebox that drops one version from exactly one query answer:
    a forgery that decodes fine and only root verification can catch."""

    def __init__(self) -> None:
        self.fired = False

    def __call__(self, message: object, rng: random.Random) -> object:
        if self.fired or not isinstance(message, RpcResponse) or not message.ok:
            return message
        answer = wire.decode(message.payload)
        if not isinstance(answer, QueryAnswer) or not answer.payload.versions:
            return message
        self.fired = True
        forged = forge_answer(answer, "drop")  # a version left out of the proof
        return replace(message, payload=wire.encode(forged))


def main() -> None:
    user = generate_keypair(b"faulty-user")
    builder = ChainBuilder(difficulty_bits=4, network="faulty")
    nonce = 0
    for height in range(1, 9):
        txs = []
        for _ in range(2):
            txs.append(
                sign_transaction(
                    user.private, nonce, "kvstore", "put",
                    (f"acct{nonce % 3}", f"value-{nonce}"),
                )
            )
            nonce += 1
        builder.add_block(txs)

    spec = AccountHistoryIndexSpec(name="history")
    genesis, state = make_genesis(network="faulty")
    ias = AttestationService(seed=b"faulty-ias")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        index_specs=[spec], ias=ias, key_seed=b"faulty-enclave",
    )
    sp_genesis, sp_state = make_genesis(network="faulty")
    provider = QueryServiceProvider(
        sp_genesis, sp_state, fresh_vm(), builder.pow, [spec]
    )
    for block in builder.blocks[1:]:
        issuer.process_block(block)
        provider.ingest_block(block)
    print(f"Certified {builder.height} blocks; CI + 2 SPs joining the bus.")

    bus = MessageBus(default_latency_ms=20.0)
    injector = FaultInjector(seed=11)
    forge_once = ForgeOnce()
    # Act 1+2 faults: lossy link between the gateway and SP1, plus a
    # one-shot forger on SP1's answers.
    injector.set_link("gateway", "sp1", LinkFaults(drop_rate=0.3))
    injector.set_link(
        "sp1", "gateway",
        LinkFaults(drop_rate=0.3, corrupt_rate=1.0, corrupter=forge_once),
    )
    bus.install_faults(injector)
    IssuerService(bus, "ci", issuer)
    QueryService(bus, "sp1", provider)
    QueryService(bus, "sp2", provider)

    measurement = compute_expected_measurement(
        genesis.header.header_hash(), ias.public_key, fresh_vm(),
        builder.pow.difficulty_bits, {spec.name: spec},
    )
    client = connect(ClientConfig(
        measurement=measurement, ias_public_key=ias.public_key,
        bus=bus, name="client",
        issuers=("ci",),
        gateway=QueryGateway(
            bus, "gateway", ["sp1", "sp2"],
            timeout_ms=150.0,
        ),
    ))

    print("\nAct 1: bootstrap over RPC (30% loss on the SP1 links)...")
    client.sync()
    assert client.latest_header is not None
    print(f"  adopted certified tip at height {client.latest_header.height}, "
          f"storing {client.storage_bytes():,} bytes")

    print("\nAct 2: query while a middlebox tampers with SP1's response...")
    request = HistoryQuery(
        index="history", account="acct1", t_from=1, t_to=builder.height
    )
    answer = client.query(request)
    assert client.verify_answer(request, answer)
    assert forge_once.fired, "the tamperer should have struck"
    assert client.integrity_failures >= 1, "tampering must be *detected*"
    print(f"  verified answer: {len(answer.payload.versions)} versions of "
          f"acct1, proof {answer.proof_size_bytes():,} bytes")
    print(f"  integrity failures detected: {client.integrity_failures}, "
          f"gateway failovers: {client.gateway.failovers}, "
          f"gateway timeouts: {client.gateway.rpc.timeouts}")

    print("\nAct 3: both SPs go dark mid-session...")
    for sp in ("sp1", "sp2"):
        injector.set_link("gateway", sp, LinkFaults(drop_rate=1.0))
        injector.set_link(sp, "gateway", LinkFaults(drop_rate=1.0))
    # The answer that just verified is cached under (request, certified
    # root), so repeating the query is served locally — zero round trips
    # even with every SP unreachable.
    calls_before = client.gateway.rpc.calls
    cached = client.query(request)
    assert cached == answer and client.gateway.rpc.calls == calls_before
    print("  warm cache hit: the verified answer is served locally, 0 RPCs")
    # A query the cache has never verified must fail — with bounded work.
    fresh = HistoryQuery(index="history", account="acct1", t_from=1, t_to=1)
    before_ms = bus.clock_ms
    try:
        client.query(fresh)
        raise AssertionError("query should not succeed with every SP dark")
    except ServiceUnavailableError as exc:
        print(f"  bounded failure after retrying every replica: {exc}")
        print(f"  gave up after {bus.clock_ms - before_ms:.0f} virtual ms")

    print("\nFault injector summary:")
    for link, counts in injector.summary().items():
        print(f"  {link}: {counts}")
    print(f"Virtual network time: {bus.clock_ms:.0f} ms")


if __name__ == "__main__":
    main()
