"""Verifiable aggregate queries over SmallBank balances, end to end."""

import pytest
from dataclasses import replace

from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core.issuer import CertificateIssuer
from repro.core.superlight import SuperlightClient
from repro.crypto import generate_keypair
from repro.merkle.aggtree import Aggregate
from repro.query.api import AggregateQuery, QueryAnswer
from repro.query.indexes import BalanceAggregateIndexSpec
from repro.sgx.attestation import AttestationService
from repro.sim import forge_answer
from tests.conftest import fresh_vm


@pytest.fixture(scope="module")
def world():
    keypair = generate_keypair(b"agg-tests")
    builder = ChainBuilder(difficulty_bits=4, network="aggnet")
    nonce = [0]

    def bank_tx(method, args):
        tx = sign_transaction(keypair.private, nonce[0], "smallbank", method, args)
        nonce[0] += 1
        return tx

    builder.add_block([
        bank_tx("create", ("alice", "100", "50")),
        bank_tx("create", ("bob", "10", "0")),
    ])
    # Alice's checking: 100 ->(+10) 110 ->(-25) 85 ->(+5) 90 ...
    deltas = [10, -25, 5, 40, -30, 15]
    for delta in deltas:
        if delta >= 0:
            builder.add_block([bank_tx("deposit_checking", ("alice", str(delta)))])
        else:
            builder.add_block([bank_tx("send_payment", ("alice", "bob", str(-delta)))])

    spec = BalanceAggregateIndexSpec(name="balances")
    genesis, state = make_genesis(network="aggnet")
    ias = AttestationService(seed=b"agg-ias")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        index_specs=[spec], ias=ias, key_seed=b"agg-enclave",
    )
    for block in builder.blocks[1:]:
        issuer.process_block(block, schemes=("hierarchical", "augmented"))
    client = SuperlightClient(issuer.measurement, ias.public_key)
    tip = issuer.certified[-1]
    client.validate_chain(tip.block.header, tip.certificate)
    client.validate_index_certificate(
        "balances", tip.block.header, tip.index_roots["balances"],
        tip.index_certificates["balances"],
    )
    return {"builder": builder, "issuer": issuer, "client": client}


#: Alice's checking balance after each block 1..7.
ALICE_BALANCES = {1: 100, 2: 110, 3: 85, 4: 90, 5: 130, 6: 100, 7: 115}


def verify_agg(client, name, answer):
    """Check a bare AggregateAnswer through the unified typed API."""
    request = AggregateQuery(
        index=name,
        account=answer.account,
        t_from=answer.t_from,
        t_to=answer.t_to,
    )
    return client.verify_answer(
        request, QueryAnswer(request=request, payload=answer)
    )


def test_certified_roots_track_index(world):
    issuer = world["issuer"]
    assert issuer.index_root("balances") == issuer.indexes["balances"].root


def test_full_window_aggregate(world):
    answer = world["issuer"].indexes["balances"].query_aggregate("alice", 1, 7)
    values = list(ALICE_BALANCES.values())
    assert answer.aggregate == Aggregate(
        count=len(values), total=sum(values),
        minimum=min(values), maximum=max(values),
    )
    assert verify_agg(world["client"], "balances", answer)
    assert answer.average == pytest.approx(sum(values) / len(values))


def test_partial_window_aggregate(world):
    answer = world["issuer"].indexes["balances"].query_aggregate("alice", 3, 5)
    values = [ALICE_BALANCES[h] for h in (3, 4, 5)]
    assert answer.aggregate == Aggregate(
        count=3, total=sum(values), minimum=min(values), maximum=max(values)
    )
    assert verify_agg(world["client"], "balances", answer)


def test_empty_window(world):
    answer = world["issuer"].indexes["balances"].query_aggregate("alice", 100, 200)
    assert answer.aggregate is None
    assert verify_agg(world["client"], "balances", answer)


def test_unknown_account(world):
    answer = world["issuer"].indexes["balances"].query_aggregate("charlie", 1, 7)
    assert answer.aggregate is None and answer.lower_root is None
    assert verify_agg(world["client"], "balances", answer)


def test_forged_total_rejected(world):
    answer = world["issuer"].indexes["balances"].query_aggregate("alice", 1, 7)
    forged = forge_answer(answer, "alter")
    assert forged.aggregate.total == answer.aggregate.total + 1
    assert not verify_agg(world["client"], "balances", forged)


def test_window_bounds_checked(world):
    answer = world["issuer"].indexes["balances"].query_aggregate("alice", 3, 5)
    widened = replace(answer, t_from=1, t_to=7)
    assert not verify_agg(world["client"], "balances", widened)


def test_bob_transfers_indexed_too(world):
    """send_payment touches bob's balance; the index must include it."""
    answer = world["issuer"].indexes["balances"].query_aggregate("bob", 1, 7)
    assert answer.aggregate is not None
    assert answer.aggregate.count >= 2  # create + at least one payment
    assert verify_agg(world["client"], "balances", answer)


def test_augmented_scheme_certifies_aggregate_index(world):
    tip = world["issuer"].certified[-1]
    fresh = SuperlightClient(
        world["issuer"].measurement, world["issuer"].ias.public_key
    )
    fresh.validate_chain(tip.block.header, tip.certificate)
    assert fresh.validate_index_certificate(
        "balances", tip.block.header, tip.index_roots["balances"],
        tip.augmented_certificates["balances"],
    )
