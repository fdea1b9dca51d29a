"""The declared program identity, and the tripwire that keeps it honest.

The enclave measurement hashes a *declared* identity (``PROGRAM_ID`` /
``PROGRAM_VERSION`` on the program, ``CODE_ID`` on every contract and
index spec) instead of source text, so the runtime no longer notices an
edit to trusted code.  This file does, at test time: it pins the sha256
of the source each identity stands for.  When a pin fails, exactly one
of two things is true, and the failure message says which to do:

* the edit changed trusted **behaviour** -> bump the identity (the
  measurement moves, old sealed archives stop unsealing, and the
  certificate goldens are re-pinned once — see DESIGN.md);
* the edit is a pure **refactor** -> re-record the pin below, nothing
  else moves.
"""

import hashlib
import inspect

import pytest

from repro.chain.consensus import ProofOfWork
from repro.chain.executor import TransactionExecutor
from repro.chain.genesis import make_genesis
from repro.chain.vm import VM, Contract
from repro.contracts import BLOCKBENCH, KVStore, SmallBank, fresh_vm
from repro.core import CertificateIssuer, SuperlightClient, compute_expected_measurement
from repro.core.certificate import verify_certificate
from repro.core import enclave_program
from repro.core.enclave_program import DCertEnclaveProgram
from repro.errors import CertificateError
from repro.merkle import mpt
from repro.merkle.partial import PartialSMT
from repro.query import indexes
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    AuthenticatedIndexSpec,
    BalanceAggregateIndexSpec,
    KeywordIndexSpec,
    ValueRangeIndexSpec,
)
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import code_id, measure_program

#: ``PROGRAM_VERSION`` -> qualified name -> (declared identity, sha256 of
#: ``inspect.getsource``).  Older versions stay as history.
PINS = {
    2: {
        "repro.core.enclave_program.DCertEnclaveProgram": (
            "dcert.enclave/2",
            "166bb21e2e68e3d5c9727402a04a1514240e1b34d2b5fb093f48c0b234558419",
        ),
        "repro.core.enclave_program._refuse_malformed": (
            "dcert.enclave/2",
            "ef9a270dc4e1c022b38ffa70036ff21a30ede7f9bcf999b0051a25eef041e232",
        ),
        "repro.core.certificate.verify_certificate": (
            "dcert.enclave/2",
            "9a7c87b0bfefd8485e5b86e679707268c5788a46925bac072d751ad1d7fcc6bd",
        ),
        "repro.chain.executor.TransactionExecutor": (
            "dcert.enclave/2",
            "70f3a40756f488f90bdc7340ef450d8ebc79fddc73f02e0b63fd2b97e2195da3",
        ),
        "repro.merkle.partial.PartialSMT": (
            "dcert.enclave/2",
            "ce9e0faca83658d7745ff83a141ffb9c7775c8b539c4ad79546a7cb708fd77ea",
        ),
        "repro.query.indexes._replay_two_level": (
            (
                "dcert.index.account-history/2 + "
                "dcert.index.keyword/2 + "
                "dcert.index.balance-aggregate/2"
            ),
            "05d66aa7c7659765207bfc2d58cf06e29ec76589f9c7c42f71ef1171220ac4db",
        ),
        "repro.query.indexes._numeric_field_writes": (
            "dcert.index.balance-aggregate/2 + dcert.index.value-range/2",
            "802b497d35207e16f0e4fa4b56961b08930fc2c2a01fc843d0c9bb9d3616e836",
        ),
        "repro.merkle.mpt": (
            (
                "dcert.index.account-history/2 + "
                "dcert.index.keyword/2 + "
                "dcert.index.balance-aggregate/2 + "
                "dcert.index.value-range/2"
            ),
            "d71ca840627e4eb1fb3588c21c8bb74b6fafcf4189d07a7c6415c75435fb0ae4",
        ),
        "repro.contracts.cpuheavy.CPUHeavy": (
            "blockbench.cpuheavy/1",
            "0b40c2ab2cb0661fd75720135a375ff4f493d1bc2e79c8056ffbe3892dd2ecbd",
        ),
        "repro.contracts.donothing.DoNothing": (
            "blockbench.donothing/1",
            "ed97ea3c30d62607622f360f7b3993518f8cece3588595faf2b76832e8b630a2",
        ),
        "repro.contracts.ioheavy.IOHeavy": (
            "blockbench.ioheavy/1",
            "d18bda54816dda585ce5d5c6fe360bc50e3c4e04d56971f6676759228724ebfe",
        ),
        "repro.contracts.kvstore.KVStore": (
            "blockbench.kvstore/1",
            "7edf9f68e9e6dc886924a2451c247159266e13f5716f2503c2e0c6783ad98011",
        ),
        "repro.contracts.smallbank.SmallBank": (
            "blockbench.smallbank/1",
            "45b3aff9cafbe0e39d2b2bab42660dce04cfbfe07697e64a9b40bc6e56a488df",
        ),
        "repro.query.indexes.AccountHistoryIndexSpec": (
            "dcert.index.account-history/2",
            "c7b12b1cb7a3aa90bf561f7d61bc82341f1d7d84750211328b04fdd108a8e246",
        ),
        "repro.query.indexes.KeywordIndexSpec": (
            "dcert.index.keyword/2",
            "c3aae3028210d1aa3ade28b5dee688bf00dc6913356167f962b6000410053821",
        ),
        "repro.query.indexes.BalanceAggregateIndexSpec": (
            "dcert.index.balance-aggregate/2",
            "4490cc694e761a3156ca021644c15e9e5fcb2c1cc9deca44e6011eb43f8ff296",
        ),
        "repro.query.indexes.ValueRangeIndexSpec": (
            "dcert.index.value-range/2",
            "b4db4c6000350b801b9e57d341b0567e2eda517109c4b2ba42ea54615fe0d1fe",
        ),
    },
}

PROGRAM_IDENTITY = (
    f"{DCertEnclaveProgram.PROGRAM_ID}/{DCertEnclaveProgram.PROGRAM_VERSION}"
)


def _subclasses(base):
    for klass in base.__subclasses__():
        yield klass
        yield from _subclasses(klass)


def _shared_by(*spec_classes):
    """The identity of code several specs run: all of theirs, so a bump
    of any one asks for this pin to be looked at again."""
    return " + ".join(vars(klass)["CODE_ID"] for klass in spec_classes)


def trusted_code():
    """Every piece of source a measurement vouches for, with the
    identity it currently declares."""
    found = {
        DCertEnclaveProgram: PROGRAM_IDENTITY,
        # The certification ecalls' entry clause, outside the class body.
        enclave_program._refuse_malformed: PROGRAM_IDENTITY,
        # cert_verify_t's body: trusted, though it lives beside Certificate.
        verify_certificate: PROGRAM_IDENTITY,
        # blk_verify_t's replay and root check (Alg. 2 lines 17-23) run in
        # these two, and outside augmented-only certification the CI host
        # repeats neither: they make the one signature check and the one
        # state-root check a certified block gets.  merkle/smt.py (the
        # proof and its fold) and crypto/ stay out: they are primitives
        # under ROADMAP "Settled", not program logic.
        TransactionExecutor: PROGRAM_IDENTITY,
        PartialSMT: PROGRAM_IDENTITY,
        # What the spec classes' apply_writes / write_data run outside
        # their own source: the one two-level replay step, the numeric
        # field scan, and the whole MPT module (the open-once engine
        # decides which upper-level proofs the enclave accepts).
        indexes._replay_two_level: _shared_by(
            AccountHistoryIndexSpec, KeywordIndexSpec, BalanceAggregateIndexSpec
        ),
        indexes._numeric_field_writes: _shared_by(
            BalanceAggregateIndexSpec, ValueRangeIndexSpec
        ),
        mpt: _shared_by(
            AccountHistoryIndexSpec, KeywordIndexSpec,
            BalanceAggregateIndexSpec, ValueRangeIndexSpec,
        ),
    }
    for base in (Contract, AuthenticatedIndexSpec):
        for klass in _subclasses(base):
            if klass.__module__.startswith("repro."):
                found[klass] = vars(klass).get("CODE_ID")
    def name(obj):
        if inspect.ismodule(obj):
            return obj.__name__
        return f"{obj.__module__}.{obj.__qualname__}"

    return {name(obj): (obj, identity) for obj, identity in found.items()}


def test_every_trusted_class_is_pinned_and_nothing_else():
    version = DCertEnclaveProgram.PROGRAM_VERSION
    assert version in PINS, (
        f"PROGRAM_VERSION is {version}: record a PINS[{version}] table "
        "(and re-pin the certificate goldens listed in DESIGN.md)"
    )
    assert set(trusted_code()) == set(PINS[version])
    assert set(BLOCKBENCH.values()) <= {
        obj for obj, _ in trusted_code().values() if inspect.isclass(obj)
    }


@pytest.mark.parametrize("name", sorted(PINS[max(PINS)]))
def test_trusted_source_matches_its_declared_identity(name):
    version = DCertEnclaveProgram.PROGRAM_VERSION
    obj, identity = trusted_code()[name]
    assert identity, f"{name} declares no CODE_ID of its own"
    pinned_identity, pinned_sha = PINS[version][name]
    sha = hashlib.sha256(inspect.getsource(obj).encode("utf-8")).hexdigest()
    if identity != pinned_identity:
        pytest.fail(
            f"{name} now declares {identity!r} (pinned: {pinned_identity!r}): "
            f"the measurement moved on purpose — record ({identity!r}, {sha!r}) "
            "in PINS and re-pin the certificate goldens once"
        )
    assert sha == pinned_sha, (
        f"the source of {name} changed under the identity {identity!r}.\n"
        "  * behaviour changed -> bump its identity (CODE_ID, or "
        "PROGRAM_VERSION for the program) so the measurement moves;\n"
        f"  * pure refactor -> re-record the pin: {sha!r}"
    )


# -- what the measurement commits to ------------------------------------------

IAS = AttestationService(seed=b"identity-ias")
GENESIS = make_genesis()[0].header.header_hash()


def measurement(*, genesis=GENESIS, ias_key=IAS.public_key, vm=None,
                difficulty_bits=4, specs=()):
    return compute_expected_measurement(
        genesis, ias_key, vm if vm is not None else fresh_vm(), difficulty_bits,
        {spec.name: spec for spec in specs},
    )


def test_measurement_is_a_function_of_the_public_inputs():
    assert measurement() == measurement()
    assert measurement(specs=[KeywordIndexSpec()]) == measurement(
        specs=[KeywordIndexSpec()]
    )


def test_measurement_commits_to_every_public_input():
    kv_only = VM()
    kv_only.deploy(KVStore())
    kv_and_bank = VM()
    kv_and_bank.deploy(KVStore())
    kv_and_bank.deploy(SmallBank())
    variants = [
        measurement(),
        measurement(genesis=make_genesis(network="other")[0].header.header_hash()),
        measurement(ias_key=AttestationService(seed=b"other-ias").public_key),
        measurement(difficulty_bits=5),
        measurement(vm=kv_only),
        measurement(vm=kv_and_bank),
        measurement(specs=[KeywordIndexSpec()]),
        measurement(specs=[KeywordIndexSpec(fanout=8)]),
        measurement(specs=[KeywordIndexSpec(name="kw2")]),
        measurement(specs=[AccountHistoryIndexSpec()]),
        measurement(specs=[AccountHistoryIndexSpec(contract="smallbank")]),
        measurement(specs=[AccountHistoryIndexSpec(), KeywordIndexSpec()]),
    ]
    assert len(set(variants)) == len(variants)


def test_a_code_id_or_version_bump_moves_the_measurement(monkeypatch):
    before = measurement(specs=[KeywordIndexSpec()])
    monkeypatch.setattr(KeywordIndexSpec, "CODE_ID", "dcert.index.keyword/3")
    spec_bumped = measurement(specs=[KeywordIndexSpec()])
    monkeypatch.setattr(KVStore, "CODE_ID", "blockbench.kvstore/2")
    contract_bumped = measurement(specs=[KeywordIndexSpec()])
    monkeypatch.setattr(DCertEnclaveProgram, "PROGRAM_VERSION", 3)
    program_bumped = measurement(specs=[KeywordIndexSpec()])
    assert len({before, spec_bumped, contract_bumped, program_bumped}) == 4


def test_identity_is_never_inherited():
    """A subclass is different code: it must not measure as its parent."""

    class Patched(DCertEnclaveProgram):
        pass

    class PatchedStore(KVStore):
        pass

    assert measure_program(Patched) != measure_program(DCertEnclaveProgram)
    assert code_id(PatchedStore) != code_id(KVStore) == "blockbench.kvstore/1"


@pytest.mark.parametrize(
    "spec_classes",
    [
        (),
        (AccountHistoryIndexSpec, KeywordIndexSpec),  # certify-stream, tip-follow, sim
        (AccountHistoryIndexSpec, KeywordIndexSpec,
         BalanceAggregateIndexSpec, ValueRangeIndexSpec),  # query-cold / query-hot
    ],
    ids=["no-index", "history+keyword", "all-four"],
)
def test_clients_derive_the_launched_enclaves_measurement(spec_classes):
    genesis, state = make_genesis()
    names = {
        AccountHistoryIndexSpec: "history", KeywordIndexSpec: "keyword",
        BalanceAggregateIndexSpec: "aggregate", ValueRangeIndexSpec: "range",
    }
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), ProofOfWork(4),
        index_specs=[klass(name=names[klass]) for klass in spec_classes],
        ias=IAS, key_seed=b"identity-enclave",
    )
    assert issuer.measurement == measurement(
        specs=[klass(name=names[klass]) for klass in spec_classes]
    )
    assert issuer.report.measurement == issuer.measurement


# -- the PR 20 bump: index identities /1 -> /2, the program untouched ----------

#: ``measurement()`` at the parent commit a5519c6 (``PYTHONPATH=src:. python -c
#: "from tests.core.test_program_identity import *; print(measurement().hex(),
#: measurement(specs=[AccountHistoryIndexSpec(), KeywordIndexSpec()]).hex())"``).
PARENT_NO_INDEX = "4a2612da4e9e90c5d5d47951dd3112f08461955882fd6f52e8fb48f0381387dc"
PARENT_HISTORY_KEYWORD = (
    "8dd7e1dacb2d5d62166358249ea293f11f35d7d31df67fec37af6a9173c1bb40"
)


def test_the_index_bump_moves_only_index_carrying_measurements(monkeypatch):
    """The /1 specs signed a false root for a list-typed MPT proof, so
    their identities moved; the block-certificate path never touches an
    MPT, so ``PROGRAM_VERSION`` and a no-index issuer did not."""
    specs = [AccountHistoryIndexSpec(), KeywordIndexSpec()]
    assert DCertEnclaveProgram.PROGRAM_VERSION == 2
    assert measurement().hex() == PARENT_NO_INDEX
    assert measurement(specs=specs).hex() != PARENT_HISTORY_KEYWORD
    monkeypatch.setattr(AccountHistoryIndexSpec, "CODE_ID", "dcert.index.account-history/1")
    monkeypatch.setattr(KeywordIndexSpec, "CODE_ID", "dcert.index.keyword/1")
    assert measurement(specs=specs).hex() == PARENT_HISTORY_KEYWORD


def test_a_client_built_for_the_old_index_identities_refuses_the_new_enclave(
    certified_setup, monkeypatch
):
    issuer, tip = certified_setup["issuer"], certified_setup["issuer"].certified[-1]
    ias_key = certified_setup["ias"].public_key

    def expected():
        return compute_expected_measurement(
            certified_setup["genesis"].header.header_hash(), ias_key, fresh_vm(),
            certified_setup["chain"].pow.difficulty_bits, certified_setup["specs"],
        )

    assert expected() == issuer.measurement
    current = SuperlightClient(issuer.measurement, ias_key)
    assert current.validate_chain(tip.block.header, tip.certificate)
    monkeypatch.setattr(AccountHistoryIndexSpec, "CODE_ID", "dcert.index.account-history/1")
    monkeypatch.setattr(KeywordIndexSpec, "CODE_ID", "dcert.index.keyword/1")
    stale = SuperlightClient(expected(), ias_key)
    assert stale.expected_measurement != issuer.measurement
    with pytest.raises(CertificateError):
        stale.validate_chain(tip.block.header, tip.certificate)
