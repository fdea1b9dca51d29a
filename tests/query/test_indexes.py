"""Index specs: write-data derivation and proof-based root updates."""

from dataclasses import replace

import pytest

from repro.chain.builder import ChainBuilder
from repro.chain.transaction import sign_transaction
from repro.crypto import generate_keypair
from repro.errors import ProofError, QueryError
from repro.sim import forge_answer
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    KeywordIndexSpec,
    MaintainedKeywordIndex,
    TwoLevelHistoryIndex,
    verify_keyword_results,
)


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(b"index-tests")


@pytest.fixture(scope="module")
def chain(keypair):
    builder = ChainBuilder(difficulty_bits=4)
    nonce = 0
    for height in range(1, 9):
        txs = [
            sign_transaction(
                keypair.private, nonce, "kvstore", "put",
                (f"acct{height % 3}", f"val{height} alpha beta"),
            )
        ]
        nonce += 1
        builder.add_block(txs)
    return builder


def test_history_write_data_derivation(chain):
    spec = AccountHistoryIndexSpec()
    block = chain.blocks[1]
    result = chain.results[1]
    writes = spec.write_data(block, result.write_set)
    assert len(writes) == 1
    assert writes[0].account == "acct1"
    assert writes[0].timestamp == 1
    assert writes[0].value == b"val1 alpha beta"


def test_history_apply_writes_tracks_index(chain):
    spec = AccountHistoryIndexSpec()
    index = TwoLevelHistoryIndex(spec)
    root = spec.genesis_root()
    for block, result in zip(chain.blocks[1:], chain.results[1:]):
        writes, proof = index.ingest_block(block, result.write_set)
        root = spec.apply_writes(root, writes, proof)
        assert root == index.root


def test_history_apply_rejects_wrong_new_root(chain):
    spec = AccountHistoryIndexSpec()
    index = TwoLevelHistoryIndex(spec)
    block, result = chain.blocks[1], chain.results[1]
    writes, proof = index.ingest_block(block, result.write_set)
    # Tampered write value: the recomputed root differs.
    bad_writes = (replace(writes[0], value=b"forged"),)
    bad_root = spec.apply_writes(spec.genesis_root(), bad_writes, proof)
    assert bad_root != index.root


def test_history_apply_rejects_short_proof(chain):
    from repro.query.indexes import TwoLevelUpdateProof

    spec = AccountHistoryIndexSpec()
    index = TwoLevelHistoryIndex(spec)
    block, result = chain.blocks[1], chain.results[1]
    writes, proof = index.ingest_block(block, result.write_set)
    with pytest.raises(ProofError):
        spec.apply_writes(spec.genesis_root(), writes, TwoLevelUpdateProof(steps=()))


def test_history_query_windows(chain):
    spec = AccountHistoryIndexSpec()
    index = TwoLevelHistoryIndex(spec)
    for block, result in zip(chain.blocks[1:], chain.results[1:]):
        index.ingest_block(block, result.write_set)
    answer = index.query_history("acct1", 1, 8)
    assert [t for t, _ in answer.versions] == [1, 4, 7]
    missing = index.query_history("ghost", 1, 8)
    assert missing.versions == () and missing.lower_root is None


def test_keyword_write_data_derivation(chain):
    spec = KeywordIndexSpec()
    block = chain.blocks[2]
    writes = spec.write_data(block, chain.results[2].write_set)
    assert len(writes) == 1
    assert writes[0].seq == (2 << 20) | 0
    assert set(writes[0].keywords) == {"acct2", "val2", "alpha", "beta"}


def test_keyword_apply_writes_tracks_index(chain):
    spec = KeywordIndexSpec()
    index = MaintainedKeywordIndex(spec)
    root = spec.genesis_root()
    for block, result in zip(chain.blocks[1:], chain.results[1:]):
        writes, proof = index.ingest_block(block, result.write_set)
        root = spec.apply_writes(root, writes, proof)
        assert root == index.root


def test_keyword_conjunctive_queries(chain):
    spec = KeywordIndexSpec()
    index = MaintainedKeywordIndex(spec)
    for block, result in zip(chain.blocks[1:], chain.results[1:]):
        index.ingest_block(block, result.write_set)
    answer = index.query_conjunctive(["alpha", "beta"])
    assert len(answer.results) == 8  # every doc carries both
    narrow = index.query_conjunctive(["alpha", "val3"])
    assert narrow.results == ((3 << 20),)


def test_keyword_seq_encoding_bounds():
    spec = KeywordIndexSpec()
    assert spec.tx_seq(5, 3) == (5 << 20) | 3
    with pytest.raises(QueryError):
        spec.tx_seq(1, 1 << 20)


def test_spec_fanout_mismatch_rejected(chain):
    spec16 = AccountHistoryIndexSpec(fanout=16)
    spec8 = AccountHistoryIndexSpec(fanout=8)
    index = TwoLevelHistoryIndex(spec16)
    block, result = chain.blocks[1], chain.results[1]
    writes, proof = index.ingest_block(block, result.write_set)
    with pytest.raises(ProofError):
        spec8.apply_writes(spec8.genesis_root(), writes, proof)


# -- conjunctive keyword queries: the one implementation, end to end ----------
#
# The corpus and cases of the deleted ``repro.merkle.inverted`` tests, run
# against ``MaintainedKeywordIndex`` / ``verify_keyword_results``.

CORPUS = {
    1: "stock bank",
    2: "stock",
    3: "bank stock gold",
    4: "gold",
    5: "stock gold",
    6: "bank",
}


def _keyword_index(keypair, documents):
    """A keyword index over one block per document (height = document id)."""
    builder = ChainBuilder(difficulty_bits=4)
    for nonce, text in enumerate(documents):
        builder.add_block(
            [sign_transaction(keypair.private, nonce, "kvstore", "put", ("doc", text))]
        )
    index = MaintainedKeywordIndex(KeywordIndexSpec())
    for block, result in zip(builder.blocks[1:], builder.results[1:]):
        index.ingest_block(block, result.write_set)
    return index


@pytest.fixture()
def corpus_index(keypair):
    return _keyword_index(keypair, CORPUS.values())


def _verified_documents(index, keywords):
    """The document ids of a conjunction whose answer verifies."""
    answer = index.query_conjunctive(keywords)
    assert verify_keyword_results(index.root, answer)
    return [seq >> 20 for seq in answer.results]


def test_single_keyword(corpus_index):
    assert _verified_documents(corpus_index, ["gold"]) == [3, 4, 5]


def test_two_keyword_conjunction(corpus_index):
    assert _verified_documents(corpus_index, ["stock", "bank"]) == [1, 3]


def test_three_keyword_conjunction(corpus_index):
    assert _verified_documents(corpus_index, ["stock", "bank", "gold"]) == [3]


def test_absent_keyword_gives_empty_result(corpus_index):
    """Provably empty: the dictionary proves the keyword's absence."""
    assert _verified_documents(corpus_index, ["stock", "nonexistent"]) == []


def test_verify_rejects_dropped_result(corpus_index):
    answer = corpus_index.query_conjunctive(["stock", "bank"])
    dropped = forge_answer(answer, "withhold", key=answer.results[-1])
    assert dropped.results == answer.results[:-1]
    assert not verify_keyword_results(corpus_index.root, dropped)


def test_verify_rejects_injected_result(corpus_index):
    answer = corpus_index.query_conjunctive(["stock", "bank"])
    injected = forge_answer(answer, "inject", key=answer.results[0])
    assert len(injected.results) == len(answer.results) + 1
    assert not verify_keyword_results(corpus_index.root, injected)


def test_verify_rejects_wrong_root(corpus_index, keypair):
    answer = corpus_index.query_conjunctive(["stock", "bank"])
    other = _keyword_index(keypair, ["stock bank"])
    assert not verify_keyword_results(other.root, answer)


def test_duplicate_keywords_in_document(keypair):
    index = _keyword_index(keypair, [*CORPUS.values(), "stock stock bank"])
    assert _verified_documents(index, ["stock", "bank"]) == [1, 3, 7]
    assert len(index._postings["stock"]) == 5  # document 7 posted once


def test_empty_query_rejected(corpus_index):
    with pytest.raises(QueryError):
        corpus_index.query_conjunctive([])


def test_root_changes_with_updates(keypair):
    before = _keyword_index(keypair, CORPUS.values()).root
    after = _keyword_index(keypair, [*CORPUS.values(), "new-term"]).root
    assert after != before
