"""Update proofs: building (the entries ``StateStore.prove_many`` makes,
which is what ``predict_root`` leaves on ``ExecutionResult.pre_state``),
opening (``PartialSMT.from_proofs`` over the entries, as the enclave
program does), failure modes."""

import pytest

from repro.chain.state import StateStore, state_key
from repro.core.updateproof import UpdateProof
from repro.errors import ProofError
from repro.merkle.partial import PartialSMT


@pytest.fixture()
def store():
    store = StateStore()
    for index in range(10):
        store.put_raw(state_key("c", f"f{index}"), b"v%d" % index)
    return store


def build(store, keys) -> UpdateProof:
    return UpdateProof(entries=tuple(store.prove_many(keys)))


def test_build_and_open(store):
    keys = [state_key("c", "f1"), state_key("c", "f2"), state_key("c", "missing")]
    proof = build(store, keys)
    partial = PartialSMT.from_proofs(store.root, list(proof.entries))
    assert partial.get(keys[0]) == b"v1"
    assert partial.get(keys[2]) is None


def test_read_values(store):
    keys = [state_key("c", "f1"), state_key("c", "missing")]
    proof = build(store, keys)
    assert [entry[:2] for entry in proof.entries] == [(keys[0], b"v1"), (keys[1], None)]


def test_open_against_wrong_root_fails(store):
    proof = build(store, [state_key("c", "f1")])
    store.put_raw(state_key("c", "f1"), b"changed")
    with pytest.raises(ProofError):
        PartialSMT.from_proofs(store.root, list(proof.entries))


def test_size_bytes_counts_entries(store):
    small = build(store, [state_key("c", "f1")])
    large = build(store, [state_key("c", f"f{i}") for i in range(8)])
    assert 0 < small.size_bytes() < large.size_bytes()
