"""Per-layer replays and counters for the traced run.

Two sources, both outside the program: *replays* call one layer's public
functions on fixed inputs and time each call through the clock (so the
yardstick scales them like everything else), and *counters* are read from
``obs.snapshot()`` after the traced phase.  Nothing here feeds an
end-to-end metric.
"""

from __future__ import annotations

import random
from statistics import median

from repro.bench.harness import fresh_vm
from repro.chain.consensus import ProofOfWork
from repro.chain.genesis import make_genesis
from repro.core import CertificateIssuer, CertifiedTip, ClientConfig, connect
from repro.crypto import PublicKey, generate_keypair, hash_concat, sign, verify
from repro.merkle import (
    MerkleBTree,
    MerklePatriciaTrie,
    SparseMerkleTree,
    verify_mpt,
    verify_proof,
    verify_range,
)
from repro.net import wire
from repro.sgx.attestation import AttestationService

from clock import Clock
from yardstick import NOMINAL_MS

CRYPTO_INPUTS = 200
CRYPTO_KEYS = 50
MERKLE_PROBES = 100


def crypto_replay(clock: Clock) -> dict[str, float]:
    """``repro.crypto`` on fixed inputs.  ``verify_ms`` rotates through
    many keys; ``verify_samekey_ms`` reuses one, which is what a client
    does with ``pk_enc`` forever -- per-key precomputation shows as a gap
    between the two."""
    keys = [generate_keypair(b"perf-crypto-%d" % i) for i in range(CRYPTO_KEYS)]
    messages = [b"perf-message-%d" % i for i in range(CRYPTO_INPUTS)]
    signatures = []
    for i, message in enumerate(messages):
        pair = keys[i % CRYPTO_KEYS]
        signatures.append(clock.timed("crypto.sign", sign, pair.private, message))
    for i, message in enumerate(messages):
        pair = keys[i % CRYPTO_KEYS]
        if not clock.timed(
            "crypto.verify", verify, pair.public, message, signatures[i]
        ):
            raise AssertionError("replayed signature did not verify")
    same = keys[0]
    same_signatures = [sign(same.private, message) for message in messages]
    for message, signature in zip(messages, same_signatures):
        clock.timed("crypto.verify_samekey", verify, same.public, message, signature)
    encoded = [pair.public.to_bytes() for pair in keys]
    for i in range(CRYPTO_INPUTS):
        clock.timed("crypto.pubkey_decode", PublicKey.from_bytes, encoded[i % CRYPTO_KEYS])
    parts = (b"a" * 32, b"b" * 32, b"c" * 8)
    for _ in range(CRYPTO_INPUTS):
        # 50 calls per interval: one call is below the timer's resolution.
        clock.timed("crypto.hash_concat_x50", _hash_concat_50, parts)
    return {
        "crypto.sign_ms": clock.normalised_ms_mean("crypto.sign"),
        "crypto.verify_ms": clock.normalised_ms_mean("crypto.verify"),
        "crypto.verify_samekey_ms": clock.normalised_ms_mean("crypto.verify_samekey"),
        "crypto.pubkey_decode_ms": clock.normalised_ms_mean("crypto.pubkey_decode"),
        "crypto.hash_concat_us": clock.normalised_ms_mean("crypto.hash_concat_x50") * 1000.0 / 50,
    }


def _hash_concat_50(parts) -> None:
    for _ in range(50):
        hash_concat(*parts)


def merkle_replay(clock: Clock, sizes: tuple[int, int, int], seed: int) -> dict[str, float]:
    """``repro.merkle`` on standalone trees of the workload's sizes:
    state cells (SMT), accounts (MPT), versions per account (MB-tree)."""
    cells, accounts, versions = sizes
    rng = random.Random(seed)
    smt = SparseMerkleTree(depth=64)
    smt_keys = [rng.randbytes(32) for _ in range(cells)]
    smt.update_batch({key: rng.randbytes(32) for key in smt_keys})
    mpt = MerklePatriciaTrie()
    mpt_keys = [rng.randbytes(8) for _ in range(accounts)]
    for key in mpt_keys:
        mpt.insert(key, rng.randbytes(32))
    tree = MerkleBTree()
    for version in range(1, versions + 1):
        tree.insert(version, rng.randbytes(32))
    for _ in range(MERKLE_PROBES):
        key = rng.choice(smt_keys)
        proof = clock.timed("merkle.smt_prove", smt.prove, key)
        ok = clock.timed("merkle.smt_verify", verify_proof, smt.root, key, smt.get(key), proof)
        clock.timed("merkle.smt_update", smt.update, key, rng.randbytes(32))
        key = rng.choice(mpt_keys)
        proof = clock.timed("merkle.mpt_prove", mpt.prove, key)
        ok = ok and clock.timed("merkle.mpt_verify", verify_mpt, mpt.root, key, mpt.get(key), proof)
        low = rng.randrange(1, versions + 1)
        high = rng.randrange(low, versions + 1)
        results, proof = clock.timed("merkle.mbtree_range_prove", tree.range_query, low, high)
        ok = ok and clock.timed("merkle.mbtree_range_verify", verify_range, tree.root, results, proof)
        if not ok:
            raise AssertionError("replayed merkle proof did not verify")
    return {
        f"merkle.{name}_us": clock.normalised_ms_mean(f"merkle.{name}") * 1000.0
        for name in (
            "smt_prove", "smt_verify", "smt_update", "mpt_prove",
            "mpt_verify", "mbtree_range_prove", "mbtree_range_verify",
        )
    }


def launch_replay(clock: Clock, specs: list) -> dict[str, float]:
    """Issuer construction on a fresh genesis: program measurement, key
    derivation and attestation -- what every crash-restart pays again."""
    ias = AttestationService(seed=b"perf-launch-ias")
    for _ in range(5):
        genesis, state = make_genesis(network="perf-launch")
        clock.timed(
            "sgx.launch", CertificateIssuer,
            genesis, state, fresh_vm(), ProofOfWork(4), index_specs=specs, ias=ias,
            key_seed=b"perf-launch",
        )
    return {"sgx.launch_ms": clock.normalised_ms_mean("sgx.launch")}


def client_replay(clock: Clock, measurement, ias_public_key, issuer) -> dict[str, float]:
    """The local superlight client on the world's final tip (the paper's
    0.14 ms row), and the tip's trip through the wire codec."""
    certified = issuer.certified[-1]
    header = certified.block.header
    config = ClientConfig(measurement=measurement, ias_public_key=ias_public_key)
    for _ in range(20):
        client = connect(config)
        # Cold: attestation report verified too (two ECDSA checks).
        clock.timed("core.superlight.validate_cold", client.validate_chain, header, certified.certificate)
        # Warm: the report is cached, the same tip is re-validated (one).
        clock.timed("core.superlight.validate_warm", client.validate_chain, header, certified.certificate)
    tip = CertifiedTip(
        header=header,
        certificate=certified.certificate,
        index_certificates=dict(certified.index_certificates),
        index_roots=dict(certified.index_roots),
    )
    for _ in range(50):
        encoded = clock.timed("net.wire.tip_encode", wire.encode, tip)
        clock.timed("net.wire.tip_decode", wire.decode, encoded)
    return {
        "core.superlight.validate_cold_ms": clock.normalised_ms_mean("core.superlight.validate_cold"),
        "core.superlight.validate_warm_ms": clock.normalised_ms_mean("core.superlight.validate_warm"),
        "core.superlight.certified_tip_bytes": len(encoded),
        "net.wire.tip_encode_ms": clock.normalised_ms_mean("net.wire.tip_encode"),
        "net.wire.tip_decode_ms": clock.normalised_ms_mean("net.wire.tip_decode"),
    }


def counter_metrics(snapshot: dict, ops: int, virtual_ms: float, clock: Clock) -> dict[str, float]:
    """Counts the program itself made during the traced phase."""
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    histograms = snapshot["histograms"]

    def count(name: str) -> float:
        return counters.get(name, 0)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    in_enclave_raw_ms = sum(
        hist["sum"] for name, hist in histograms.items()
        if name.startswith("sgx.ecall_ms.")
    )
    # The program's own histogram is raw wall time; scale it by the run's
    # median yardstick reading so it sits beside the normalised spans.
    run_scale = (NOMINAL_MS / 1000.0) / median(clock.yard.readings_s)
    lookups = count("cache.answer.hits") + count("cache.answer.misses")
    appends = count("storage.wal_appends")
    tips = count("pubsub.published")
    return {
        "sgx.ecalls_per_op": count("sgx.ecalls") / ops,
        "sgx.in_enclave_ms_per_op": in_enclave_raw_ms * run_scale / ops,
        "sgx.peak_epc_bytes": gauges.get("sgx.peak_epc_bytes", 0),
        "storage.wal_bytes_per_block": ratio(count("storage.wal_bytes_written"), appends),
        "storage.checkpoint_bytes": gauges.get("storage.checkpoint_bytes", 0),
        "core.recovery.replayed_blocks": count("recovery.replayed_blocks"),
        "net.rpc.calls_per_op": count("rpc.client.calls") / ops,
        "net.rpc.bytes_per_op":
            (count("rpc.client.bytes_sent") + count("rpc.client.bytes_received")) / ops,
        "net.rpc.retries_per_op": count("rpc.client.retries") / ops,
        "net.rpc.timeouts_per_op": count("rpc.client.timeouts") / ops,
        "net.bus.deliveries_per_op": count("net.bus.deliveries") / ops,
        "net.bus.virtual_ms_per_op": virtual_ms / ops,
        "net.gateway.switches_verified": count("gateway.switches_verified"),
        "net.gateway.failovers": count("gateway.failovers"),
        "net.pubsub.deliveries_per_tip": ratio(count("pubsub.deliveries"), tips),
        "net.pubsub.acks_per_tip": ratio(count("pubsub.acks"), tips),
        "net.pubsub.retransmits": count("pubsub.retransmits"),
        "net.resilience.shed": count("resilience.server.shed"),
        "net.resilience.hedges": count("resilience.hedges"),
        "net.resilience.breaker_trips": count("resilience.breaker.trips"),
        "net.resilience.deadline_refused": count("resilience.server.deadline_refused"),
        "query.answercache.hit_ratio": ratio(count("cache.answer.hits"), lookups),
        "query.answercache.evictions": count("cache.answer.evictions"),
        "query.answercache.invalidations": count("cache.answer.invalidations"),
    }
