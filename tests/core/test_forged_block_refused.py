"""Refused, nothing moved: a block carrying a forged transaction.

Since PR 24 the CI host no longer verifies transaction signatures for a
block its enclave is about to verify: ``blk_verify_t`` (Alg. 2 line 19)
is the one check per certified block.  This table is the proof that the
check is reached, and reached *before anything moves*, on every way a
block gets certified.

Every forged block here is mined with ``verify_signatures=False``, so
its header **commits to the forged transaction's effects**: the host's
re-execution and state-root prediction agree with the header, and only a
signature check can refuse it.

    forgery   args swapped under the victim's old signature | signed by
              another key | one bit of ``s`` flipped | unsigned
    position  first | middle | last of four transactions
    schemes   hierarchical | augmented | both | no indexes
    entry     process_block | the same with precomputed=preprocess(block)
              | gen_cert | DurableIssuer.process_block | IssuerService
              certify_range over the bus | recover_issuer replaying a WAL tail

Every cell: ``BlockValidationError`` matching ``invalid signature`` (the
class and message the host raised at the parent — it is the same
executor); unmoved — node height, tip and state root, every maintained
index's ``root`` and the issuer's ``_index_roots``, ``certified``,
``latest_certificate``, ``_index_certs`` / ``_aug_certs``, WAL byte
length, hub ``seq``; and the next honest block certifies to the bytes of
a twin issuer that never saw a forgery (the enclave's own state —
``_recent``, the memo — is untouched as far as anyone can tell).

Two mutants keep the table honest (docs/testing.md):

* Alg. 2 line 19 removed — the enclave accepts any signature: every cell
  the enclave guards fails.  At e130ac0 nothing but four work-count pins
  noticed this mutant: the host's check always fired first.
* the host's augmented-only check removed (the "two-line prototype"
  ISSUE 24 measured): the ``("augmented",)`` cells fail with a
  maintained index already advanced — ``ingest_block`` runs before
  ``augmented_sig_gen``; that is why ``_process_block`` keeps a host
  check there, and only there.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import Transaction
from repro.core import recovery
from repro.core.issuer import CertificateIssuer, IssuerService
from repro.core.recovery import DurableIssuer, recover_issuer
from repro.crypto import Signature, generate_keypair, sign
from repro.errors import BlockValidationError
from repro.net import MessageBus, RpcClient, wire
from repro.net.pubsub import SubscriptionHub
from repro.query.indexes import AccountHistoryIndexSpec, KeywordIndexSpec
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SGXPlatform
from repro.storage import ChainArchive
from tests.conftest import fresh_vm, make_kv_tx

NETWORK = "forged-block"
VICTIM = generate_keypair(b"forged-block-victim")
MALLORY = generate_keypair(b"forged-block-mallory")

FORGERIES = ("swapped-args", "other-key", "flipped-s", "unsigned")
POSITIONS = {"first": 0, "middle": 2, "last": 3}

#: name -> (``schemes=`` of every process_block call, issuer has indexes)
SCHEMES = {
    "hierarchical": (("hierarchical",), True),
    "augmented": (("augmented",), True),
    "both": (("hierarchical", "augmented"), True),
    "no-indexes": (("hierarchical",), False),
}
ENTRIES = (
    "process_block", "precomputed", "gen_cert", "durable", "certify_range", "recover",
)


def applicable(scheme: str, entry: str) -> bool:
    """``certify_range`` and recovery call ``process_block(block)`` — the
    caller cannot select a scheme; under augmented-only the block
    certificate chain has stopped, so ``gen_cert`` has no anchor."""
    if entry in ("certify_range", "recover"):
        return scheme in ("hierarchical", "no-indexes")
    return not (entry == "gen_cert" and scheme == "augmented")


COMBOS = [(s, e) for s in SCHEMES for e in ENTRIES if applicable(s, e)]

#: What ISSUE 24 measured on this table, kept as the record of why it exists.
#: Parent (e130ac0): every cell refused on the host, before any ecall.
ECALLS_BEFORE_REFUSAL_AT_PARENT = 0
#: The two-line prototype (``preprocess`` skips the check, nothing else):
#: cells under this scheme selection left a maintained index advanced.
SCHEMES_THE_PROTOTYPE_LEFT_ADVANCED = ("augmented",)


def ecalls_before_refusal(scheme: str, entry: str) -> int:
    """Who refuses: the enclave's ``sig_gen`` (one ecall), or — where no
    ecall stands before ``ingest_block`` — the host (none)."""
    return 0 if scheme == "augmented" and entry != "gen_cert" else 1


# -- the chains ----------------------------------------------------------------


def forge(forgery: str, nonce: int) -> Transaction:
    genuine = make_kv_tx(VICTIM, nonce, "k0", "mine")
    if forgery == "swapped-args":
        return replace(genuine, args=("k0", "stolen"))
    stolen = replace(genuine, args=("k0", "stolen"), signature=None)
    if forgery == "other-key":
        signature = sign(MALLORY.private, stolen.signing_payload(), "repro-tx")
        return replace(stolen, signature=signature)
    if forgery == "flipped-s":
        sig = genuine.signature
        return replace(genuine, signature=Signature(sig.r, sig.s ^ 1))
    assert forgery == "unsigned"
    return stolen


def honest_txs(first_nonce: int) -> list[Transaction]:
    return [
        make_kv_tx(VICTIM, first_nonce + i, f"k{i}", f"v{first_nonce + i}")
        for i in range(4)
    ]


def chain_with(second_block_txs, **kwargs) -> ChainBuilder:
    builder = ChainBuilder(difficulty_bits=4, network=NETWORK)
    builder.add_block(honest_txs(0))
    builder.add_block(second_block_txs, **kwargs)
    return builder


@pytest.fixture(scope="module")
def chains():
    """The honest two-block chain, and per (forgery, position) the block
    that replaces its second block: same height, same parent."""
    honest = chain_with(honest_txs(4))
    forged = {}
    for forgery in FORGERIES:
        for position, at in POSITIONS.items():
            txs = honest_txs(4)
            txs[at] = forge(forgery, 4 + at)
            assert not txs[at].verify_signature()
            builder = chain_with(txs, verify_signatures=False)
            block = builder.blocks[2]
            # The miner executed it: the header commits to its effects.
            assert block.transactions == tuple(txs) and block.check_tx_root()
            assert builder.blocks[1] == honest.blocks[1]
            forged[forgery, position] = block
    return honest, forged


# -- the worlds ----------------------------------------------------------------


def identity(with_indexes: bool) -> dict:
    return dict(
        index_specs=(
            [AccountHistoryIndexSpec(name="history"), KeywordIndexSpec(name="keyword")]
            if with_indexes
            else None
        ),
        ias=AttestationService(seed=b"forged-block-ias"),
        platform=SGXPlatform(seed=b"forged-block-platform"),
    )


class World:
    """One issuer that certified block 1, behind one entry point."""

    def __init__(self, honest: ChainBuilder, scheme: str, entry: str, tmp_path):
        self.schemes, with_indexes = SCHEMES[scheme]
        self.entry = entry
        self.identity = identity(with_indexes)
        self.pow = honest.pow
        self.archive = self.hub = self.client = None
        genesis, state = make_genesis(network=NETWORK)
        world = (genesis, state, fresh_vm(), honest.pow)
        if entry in ("durable", "recover"):
            self.archive = ChainArchive(tmp_path / "ci.wal")
            self.front = DurableIssuer.create(
                self.archive, *world, key_seed=b"forged-block-enclave", **self.identity
            )
            self.issuer = self.front.issuer
        else:
            self.issuer = self.front = CertificateIssuer(
                *world, key_seed=b"forged-block-enclave", **self.identity
            )
        if entry == "certify_range":
            bus = MessageBus(default_latency_ms=1.0)
            self.hub = SubscriptionHub.embedded(IssuerService(bus, "ci", self.issuer))
            self.hub.attach(self.issuer)
            self.client = RpcClient(bus, "relay")
        self.front.process_block(honest.blocks[1], schemes=self.schemes)
        if entry == "recover":
            self.wal_bytes = self.archive.path.read_bytes()

    def submit(self, block) -> None:
        entry = self.entry
        if entry == "recover":
            return self._recover_over_a_tail_holding(block)
        if entry == "gen_cert":
            self.issuer.gen_cert(block)
        elif entry == "certify_range":
            self.client.call("ci", "certify_range", [block])
        elif entry == "precomputed":
            self.issuer.process_block(
                block, schemes=self.schemes, precomputed=self.issuer.preprocess(block)
            )
        else:
            self.front.process_block(block, schemes=self.schemes)

    def _recover_over_a_tail_holding(self, block) -> None:
        """The WAL as the issuer left it plus one record nobody certified;
        the issuer ``recover_issuer`` builds becomes ``self.issuer`` —
        before the refused replay it was where the old one still is."""
        self.archive.path.write_bytes(self.wal_bytes)
        self.archive.append(block, None)
        self.tampered_wal_size = self.archive.path.stat().st_size
        launched = []

        def launching(*args, **kwargs):
            launched.append(CertificateIssuer(*args, **kwargs))
            return launched[-1]

        genesis, state = make_genesis(network=NETWORK)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(recovery, "CertificateIssuer", launching)
            try:
                recover_issuer(
                    self.archive, genesis, state, fresh_vm(), self.pow, **self.identity
                )
            finally:
                self.issuer = self.front = launched[0]

    def certify_honestly(self, block):
        if self.entry in ("gen_cert", "recover"):
            self.issuer.process_block(block, schemes=self.schemes)
        else:
            self.submit(block)
        return self.issuer.certified[-1]

    def snapshot(self) -> dict:
        issuer = self.issuer
        return {
            "node height": issuer.node.height,
            "node tip": issuer.node.tip.header.header_hash(),
            "state root": issuer.node.state.root,
            "maintained index roots": {
                name: index.root for name, index in issuer.indexes.items()
            },
            "_index_roots": dict(issuer._index_roots),
            "certified": list(issuer.certified),
            "latest_certificate": issuer.latest_certificate,
            "_index_certs": dict(issuer._index_certs),
            "_aug_certs": dict(issuer._aug_certs),
            # (Recovery reads a WAL this test tampers with: run_cell checks it.)
            "WAL bytes": self.archive
            and self.entry != "recover"
            and self.archive.path.stat().st_size,
            "hub seq": self.hub and self.hub.seq,
        }


REFUSAL = "invalid transaction in block: invalid signature"


def run_cell(world: World, scheme: str, forged_block, cell: str) -> None:
    """One cell of the table, on a world whose issuer is at height 1."""
    before, ecalls = world.snapshot(), world.issuer.enclave.ledger.ecalls
    if world.entry == "recover":
        # The refused replay starts from an empty issuer: count its ecalls
        # from those of a recovery over the WAL nobody tampered with.
        world.archive.path.write_bytes(world.wal_bytes)
        genesis, state = make_genesis(network=NETWORK)
        ecalls = recover_issuer(
            world.archive, genesis, state, fresh_vm(), world.pow, **world.identity
        ).enclave.ledger.ecalls
    with pytest.raises(BlockValidationError, match=REFUSAL):
        world.submit(forged_block)
    after = world.snapshot()
    for what, value in before.items():
        assert after[what] == value, f"{cell}: {what} moved"
    if world.entry == "recover":
        size = world.archive.path.stat().st_size
        assert size == world.tampered_wal_size, f"{cell}: recovery rewrote the WAL"
    made = world.issuer.enclave.ledger.ecalls - ecalls
    assert made == ecalls_before_refusal(scheme, world.entry), (
        f"{cell}: refused after {made} ecalls"
    )


@pytest.fixture(scope="module")
def twins(chains):
    """Per scheme selection: block 2 as certified by an issuer that never
    saw a forgery, on the wire."""
    honest, _forged = chains
    certified = {}
    for scheme, (schemes, with_indexes) in SCHEMES.items():
        genesis, state = make_genesis(network=NETWORK)
        twin = CertificateIssuer(
            genesis, state, fresh_vm(), honest.pow,
            key_seed=b"forged-block-enclave", **identity(with_indexes),
        )
        for block in honest.blocks[1:]:
            last = twin.process_block(block, schemes=schemes)
        certified[scheme] = wire.encode(last)
    return certified


# -- the table -----------------------------------------------------------------


@pytest.mark.parametrize("scheme, entry", COMBOS)
def test_a_forged_block_is_refused_and_nothing_moves(
    chains, twins, tmp_path, scheme, entry
):
    """Twelve cells a test: the same issuer takes every forgery at every
    position in turn — it can, because each leaves it where it was."""
    honest, forged = chains
    world = World(honest, scheme, entry, tmp_path)
    for (forgery, position), block in forged.items():
        run_cell(world, scheme, block, f"{forgery} {position} / {scheme} / {entry}")
    if entry == "recover":
        world.archive.path.write_bytes(world.wal_bytes)
    assert wire.encode(world.certify_honestly(honest.blocks[2])) == twins[scheme]
    assert world.issuer.node.height == 2


def test_the_table_is_the_whole_cross_product():
    assert len(COMBOS) * len(FORGERIES) * len(POSITIONS) == 19 * 12
    refused_on_the_host = {s for s, e in COMBOS if not ecalls_before_refusal(s, e)}
    assert refused_on_the_host == set(SCHEMES_THE_PROTOTYPE_LEFT_ADVANCED)


# -- the mutants ---------------------------------------------------------------


@pytest.fixture()
def trusting(monkeypatch, ecalls_in_flight):
    """``trusting("enclave")`` / ``trusting("host")``: from here on that
    side of the boundary takes every transaction signature as valid."""
    verify = Transaction.verify_signature

    def install(side: str) -> None:
        trusts_inside = {"enclave": True, "host": False}[side]
        monkeypatch.setattr(
            Transaction,
            "verify_signature",
            lambda tx: bool(ecalls_in_flight) == trusts_inside or verify(tx),
        )

    return install


def failures(chains, tmp_path, scheme, entry) -> dict[str, str]:
    """Every cell of one (scheme, entry): cell -> how it failed, for the
    cells that did.  A failed cell may have moved its world: the next
    one gets a new world."""
    honest, forged = chains
    failed, world = {}, None
    for number, ((forgery, position), block) in enumerate(forged.items()):
        if world is None:
            path = tmp_path / str(number)
            path.mkdir()
            world = World(honest, scheme, entry, path)
        try:
            run_cell(world, scheme, block, "mutant")
        except (Exception, pytest.fail.Exception) as failure:
            failed[f"{forgery} {position}"] = str(failure)
            world = None
    return failed


@pytest.mark.parametrize(
    "scheme, entry", [c for c in COMBOS if ecalls_before_refusal(*c)]
)
def test_without_alg_2_line_19_every_cell_the_enclave_guards_fails(
    chains, tmp_path, trusting, scheme, entry
):
    trusting("enclave")
    failed = failures(chains, tmp_path, scheme, entry)
    assert len(failed) == len(FORGERIES) * len(POSITIONS), sorted(failed)
    # ... by certifying the forged block, not by refusing it some other way.
    certified = "does not match its replay" if entry == "recover" else "DID NOT RAISE"
    assert all(certified in why for why in failed.values()), set(failed.values())


@pytest.mark.parametrize("scheme, entry", COMBOS)
def test_without_the_host_check_exactly_the_augmented_only_cells_fail(
    chains, tmp_path, trusting, scheme, entry
):
    """The named regression: the naive prototype.  Everywhere else the
    enclave refuses before the host has touched anything."""
    trusting("host")
    failed = failures(chains, tmp_path, scheme, entry)
    if ecalls_before_refusal(scheme, entry):
        assert not failed
    else:
        assert scheme in SCHEMES_THE_PROTOTYPE_LEFT_ADVANCED
        assert len(failed) == len(FORGERIES) * len(POSITIONS)
        assert all("maintained index roots moved" in why for why in failed.values())
