"""Push vs poll — RPC round trips to keep a client fleet at the tip.

Polling charges the serving tier ``clients x polls`` round trips
whether or not anything changed; the subscription hub charges two
round trips per client *total* (bootstrap + subscribe) and then streams
every new certified tip over the bus, acks riding back outside the RPC
call path.  The first benchmark drives both tiers over the same
certified chain and reports total client RPC calls; the reproduced
claim is that push delivers every new tip to every subscribed client
with **>= 5x fewer round trips** than per-block polling.

The second benchmark is the recovery half: a subscriber that loses its
link for the whole stream and reconnects must reach the tip with one
heartbeat (its reply carries the newest tip) and end up byte-identical
(``to_json``) to a client that freshly polled the tip.

``REPRO_PUSH_CLIENTS`` sizes the fleet (default 64; `make push-smoke`
runs 8), ``REPRO_PUSH_BLOCKS`` the stream length (default 12).
"""

from __future__ import annotations

import os

from repro.bench.harness import fresh_vm
from repro.bench.reporting import bench_record, print_table
from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core import (
    CertificateIssuer,
    ClientConfig,
    IssuerService,
    compute_expected_measurement,
    connect,
)
from repro.crypto import generate_keypair
from repro.net import FaultInjector, LinkFaults, MessageBus
from repro.net.pubsub import SubscriptionHub
from repro.query.indexes import AccountHistoryIndexSpec
from repro.sgx.attestation import AttestationService
from repro.sgx.costs import cost_model_disabled

_NETWORK = "push-bench"


def _fleet_size() -> int:
    return int(os.environ.get("REPRO_PUSH_CLIENTS", "64"))


def _stream_blocks() -> int:
    return int(os.environ.get("REPRO_PUSH_BLOCKS", "12"))


def _build_chain(blocks: int):
    """A base block plus ``blocks`` stream blocks (built once)."""
    keypair = generate_keypair(b"push-bench-user")
    builder = ChainBuilder(difficulty_bits=4, network=_NETWORK)
    nonce = 0
    for _ in range(blocks + 1):
        txs = []
        for _ in range(2):
            txs.append(sign_transaction(
                keypair.private, nonce, "kvstore", "put",
                (f"k{nonce % 4}", f"v{nonce}"),
            ))
            nonce += 1
        builder.add_block(txs)
    return builder


def _fresh_tier(chain, *, clients: int, subscribe: bool):
    """A fresh issuer (base block certified) + N connected clients."""
    spec = AccountHistoryIndexSpec(name="history")
    genesis, state = make_genesis(network=_NETWORK)
    ias = AttestationService(seed=b"push-bench-ias")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), chain.pow,
        index_specs=[spec], ias=ias, key_seed=b"push-bench-enclave",
    )
    issuer.process_block(chain.blocks[1])
    bus = MessageBus(default_latency_ms=5.0)
    injector = FaultInjector(seed=5)
    bus.install_faults(injector)
    service = IssuerService(bus, "ci", issuer)
    hub = SubscriptionHub.embedded(service)
    hub.attach(issuer)
    measurement = compute_expected_measurement(
        genesis.header.header_hash(), ias.public_key, fresh_vm(),
        chain.pow.difficulty_bits, {spec.name: spec},
    )
    fleet = [
        connect(ClientConfig(
            measurement=measurement, ias_public_key=ias.public_key,
            bus=bus, name=f"c{i}", issuers=("ci",),
            hub="ci" if subscribe else None,
            bootstrap=True, subscribe=subscribe,
        ))
        for i in range(clients)
    ]
    return bus, injector, issuer, hub, measurement, ias, fleet


def test_push_fans_out_with_5x_fewer_round_trips():
    clients, blocks = _fleet_size(), _stream_blocks()
    chain = _build_chain(blocks)
    with cost_model_disabled():
        # -- polling tier: every client pulls once per new block --
        bus, _, issuer, _, _, _, pollers = _fresh_tier(
            chain, clients=clients, subscribe=False
        )
        for block in chain.blocks[2:]:
            issuer.process_block(block)
            for client in pollers:
                client.sync()
        poll_calls = sum(c.rpc.calls for c in pollers)
        assert all(
            c.latest_header.height == blocks + 1 for c in pollers
        )

        # -- push tier: subscribe once, stream the rest --
        bus, _, issuer, hub, _, _, subscribers = _fresh_tier(
            chain, clients=clients, subscribe=True
        )
        for block in chain.blocks[2:]:
            issuer.process_block(block)
            bus.run_until_idle()
        push_calls = sum(c.rpc.calls for c in subscribers)
    for client in subscribers:
        assert client.latest_header.height == blocks + 1
        assert client.push_adopted == blocks
        assert client.push_rejected == 0
    assert hub.published == blocks

    ratio = poll_calls / push_calls
    print_table(
        f"Round trips to keep {clients} clients at the tip "
        f"({blocks} new blocks)",
        ["tier", "rpc calls", "calls/client", "ratio"],
        [
            ["poll", poll_calls, round(poll_calls / clients, 1), 1.0],
            ["push", push_calls, round(push_calls / clients, 1),
             round(ratio, 1)],
        ],
    )
    bench_record("push_vs_poll", {
        "clients": clients,
        "blocks": blocks,
        "poll_rpc_calls": poll_calls,
        "push_rpc_calls": push_calls,
        "ratio": ratio,
    })
    # Reproduced claim: push needs >= 5x fewer round trips.
    assert ratio >= 5.0, (
        f"push only saved {ratio:.1f}x round trips over polling"
    )


def test_reconnecting_subscriber_ends_byte_identical_to_fresh_poller():
    blocks = _stream_blocks()
    chain = _build_chain(blocks)
    with cost_model_disabled():
        bus, injector, issuer, hub, measurement, ias, (client,) = _fresh_tier(
            chain, clients=1, subscribe=True
        )
        # The link dies; every block of the stream is certified while
        # the subscriber is unreachable.
        injector.set_link("ci", "c0", LinkFaults(drop_rate=1.0))
        injector.set_link("c0", "ci", LinkFaults(drop_rate=1.0))
        calls_while_dark = client.rpc.calls
        for block in chain.blocks[2:]:
            issuer.process_block(block)
            bus.run_until_idle()
        assert client.latest_header.height == 1
        assert client.rpc.calls == calls_while_dark  # no polling fallback

        # Reconnect: one heartbeat, one round trip, reaches the tip.
        injector.set_link("ci", "c0", LinkFaults())
        injector.set_link("c0", "ci", LinkFaults())
        client.heartbeat()
        assert client.rpc.calls == calls_while_dark + 1
        assert client.latest_header.height == blocks + 1
        assert client.push_resyncs == 1
        bus.run_until_idle()

        # The recovered state is byte-identical to a fresh poller's.
        poller = connect(ClientConfig(
            measurement=measurement, ias_public_key=ias.public_key,
            bus=bus, name="fresh-poller", issuers=("ci",), bootstrap=True,
        ))
    assert client.to_json() == poller.to_json(), (
        "the heartbeat converged to different bytes than a fresh poll"
    )
    bench_record("push_reconnect", {
        "blocks_missed": blocks,
        "resyncs": client.push_resyncs,
        "state_bytes": client.storage_bytes(),
    })
