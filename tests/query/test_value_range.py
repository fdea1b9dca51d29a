"""Verifiable current-value range queries (the on-demand query type)."""

import pytest
from dataclasses import replace

from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core.issuer import CertificateIssuer
from repro.core.superlight import SuperlightClient
from repro.crypto import generate_keypair
from repro.query.api import QueryAnswer, ValueRangeQuery
from repro.query.indexes import (
    ValueRangeIndex,
    ValueRangeIndexSpec,
    verify_value_range_answer,
)
from repro.sgx.attestation import AttestationService
from repro.sim import forge_answer
from tests.conftest import fresh_vm


@pytest.fixture(scope="module")
def world():
    keypair = generate_keypair(b"vr-tests")
    builder = ChainBuilder(difficulty_bits=4, network="vrnet")
    nonce = [0]

    def bank(method, *args):
        tx = sign_transaction(keypair.private, nonce[0], "smallbank", method, tuple(args))
        nonce[0] += 1
        return tx

    builder.add_block([
        bank("create", "alice", "100", "0"),
        bank("create", "bob", "50", "0"),
        bank("create", "carol", "500", "0"),
    ])
    builder.add_block([bank("deposit_checking", "alice", "75")])   # alice 175
    builder.add_block([bank("send_payment", "carol", "bob", "300")])  # carol 200, bob 350
    builder.add_block([bank("create", "dave", "175", "0")])        # same value as alice

    spec = ValueRangeIndexSpec(name="range")
    genesis, state = make_genesis(network="vrnet")
    ias = AttestationService(seed=b"vr-ias")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        index_specs=[spec], ias=ias, key_seed=b"vr-enclave",
    )
    for block in builder.blocks[1:]:
        issuer.process_block(block, schemes=("hierarchical", "augmented"))
    client = SuperlightClient(issuer.measurement, ias.public_key)
    tip = issuer.certified[-1]
    client.validate_chain(tip.block.header, tip.certificate)
    client.validate_index_certificate(
        "range", tip.block.header, tip.index_roots["range"],
        tip.index_certificates["range"],
    )
    return {"issuer": issuer, "client": client, "builder": builder}


def current_balances():
    return {"alice": 175, "bob": 350, "carol": 200, "dave": 175}


def verify_range(client, name, answer):
    """Check a bare ValueRangeAnswer through the unified typed API."""
    request = ValueRangeQuery(index=name, lo=answer.lo, hi=answer.hi)
    return client.verify_answer(
        request, QueryAnswer(request=request, payload=answer)
    )


def test_certified_root_tracks_index(world):
    issuer = world["issuer"]
    assert issuer.index_root("range") == issuer.indexes["range"].root


def test_range_query_returns_current_holders(world):
    answer = world["issuer"].indexes["range"].query_range(100, 400)
    expected = sorted(
        (value, account)
        for account, value in current_balances().items()
        if 100 <= value <= 400
    )
    assert sorted(answer.matches) == expected
    assert verify_range(world["client"], "range", answer)


def test_stale_values_are_tombstoned(world):
    """alice's original 100 and carol's original 500 must NOT appear."""
    answer = world["issuer"].indexes["range"].query_range(90, 110)
    assert all(account != "alice" for _, account in answer.matches)
    answer2 = world["issuer"].indexes["range"].query_range(450, 550)
    assert answer2.matches == ()
    assert verify_range(world["client"], "range", answer2)


def test_equal_values_both_reported(world):
    answer = world["issuer"].indexes["range"].query_range(175, 175)
    assert sorted(account for _, account in answer.matches) == ["alice", "dave"]
    assert verify_range(world["client"], "range", answer)


def test_withheld_match_rejected(world):
    answer = world["issuer"].indexes["range"].query_range(100, 400)
    assert len(answer.matches) >= 2
    live = [key for key, value in answer.entries if value != b"\x00"]
    withheld = forge_answer(answer, "withhold", key=live[-1])
    assert withheld.matches == answer.matches[:-1]
    assert not verify_range(world["client"], "range", withheld)


def test_resurrected_tombstone_rejected(world):
    """An SP claiming a tombstoned (stale) value is live must fail: the
    tombstone byte is part of the authenticated entry."""
    answer = world["issuer"].indexes["range"].query_range(90, 110)
    # alice's stale 100-entry is among the raw entries as a tombstone.
    stale = [key for key, value in answer.entries if value == b"\x00"]
    assert stale, "expected a tombstoned entry in this window"
    resurrected = forge_answer(answer, "alter", key=stale[0])
    (revived,) = set(resurrected.matches) - set(answer.matches)
    assert revived[0] == 100
    assert not verify_range(world["client"], "range", resurrected)


def test_wrong_window_rejected(world):
    answer = world["issuer"].indexes["range"].query_range(100, 200)
    widened = replace(answer, lo=0, hi=1000)
    assert not verify_range(world["client"], "range", widened)


def test_component_roots_bound_to_combined(world):
    answer = world["issuer"].indexes["range"].query_range(100, 400)
    forged = replace(answer, tree_root=bytes(32))
    assert not verify_range(world["client"], "range", forged)


def test_empty_window(world):
    answer = world["issuer"].indexes["range"].query_range(10_000, 20_000)
    assert answer.matches == ()
    assert verify_range(world["client"], "range", answer)


def test_spec_rejects_mismatched_proofs(world):
    """An SP reordering writes cannot produce the same certified root."""
    from repro.errors import ProofError

    spec = ValueRangeIndexSpec(name="range")
    fresh_index = ValueRangeIndex(spec)
    builder = world["builder"]
    # Ingest block 1 normally to get writes + proof, then try to apply
    # them against the wrong (post-ingest) root.
    block = builder.blocks[1]
    issuer = world["issuer"]
    result = None
    from repro.chain.node import FullNode

    genesis, state = make_genesis(network="vrnet")
    node = FullNode(genesis, state, fresh_vm(), builder.pow)
    result = node.validate_block(block)
    writes, proof = fresh_index.ingest_block(block, result.write_set)
    with pytest.raises(ProofError):
        spec.apply_writes(fresh_index.root, writes, proof)  # stale root
    # Against the correct pre-root it reproduces the index root exactly.
    assert spec.apply_writes(spec.genesis_root(), writes, proof) == fresh_index.root
