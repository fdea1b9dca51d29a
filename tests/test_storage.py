"""Chain archive: durable WAL framing, torn tails, tamper-checked restore."""

import json

import pytest

from repro.chain.block import decode_block, encode_block
from repro.chain.genesis import make_genesis
from repro.core.issuer import CertificateIssuer, CertifiedBlock
from repro.errors import (
    ArchiveCorruptionError,
    ArchiveFormatError,
    BlockValidationError,
    StorageError,
)
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SGXPlatform
from repro.core.recovery import recover_issuer
from repro.storage import ChainArchive, WriteAheadLog, _frame
from tests.conftest import fresh_vm


def read_payloads(path):
    """Every framed payload, without repairing the file."""
    return list(WriteAheadLog(path).records(repair=False))


def write_payloads(path, payloads):
    """Rewrite the WAL from whole-record payloads (correct framing)."""
    path.write_bytes(WriteAheadLog.MAGIC + b"".join(_frame(p) for p in payloads))


def edit_record(path, position, mutate):
    """Decode record ``position``, apply ``mutate`` to the JSON object,
    re-frame with a *valid* CRC — tampering the content, not the frame."""
    payloads = read_payloads(path)
    record = json.loads(payloads[position])
    mutate(record)
    payloads[position] = json.dumps(record, sort_keys=True).encode("utf-8")
    write_payloads(path, payloads)


def test_block_wire_roundtrip(kv_chain):
    block = kv_chain.blocks[2]
    decoded = decode_block(encode_block(block))
    assert decoded.block_hash() == block.block_hash()
    assert decoded.check_tx_root()


def test_block_decode_rejects_garbage():
    with pytest.raises(BlockValidationError):
        decode_block(b"nonsense")
    with pytest.raises(BlockValidationError):
        decode_block(b"{}")


@pytest.fixture()
def archived_world(kv_chain, tmp_path):
    ias = AttestationService(seed=b"archive-ias")
    platform = SGXPlatform(seed=b"archive-platform")
    genesis, state = make_genesis()
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), kv_chain.pow,
        ias=ias, platform=platform, key_seed=b"archive-key",
    )
    archive = ChainArchive(tmp_path / "chain.wal")
    archive.initialize(issuer.seal_signing_key())
    for block in kv_chain.blocks[1:6]:
        certified = issuer.process_block(block)
        # The compat form: no index data and no write set persisted.
        archive.append_record(
            CertifiedBlock(block=block, certificate=certified.certificate)
        )
    return {
        "issuer": issuer,
        "archive": archive,
        "ias": ias,
        "platform": platform,
        "chain": kv_chain,
    }


def test_restore_reproduces_issuer(archived_world, kv_chain):
    genesis, state = make_genesis()
    restored = recover_issuer(
        archived_world["archive"], genesis, state, fresh_vm(), kv_chain.pow,
        platform=archived_world["platform"], ias=archived_world["ias"],
    ).issuer
    original = archived_world["issuer"]
    assert restored.pk_enc == original.pk_enc
    assert restored.node.height == original.node.height
    assert restored.node.state.root == original.node.state.root
    assert (
        restored.latest_certificate.encode()
        == original.latest_certificate.encode()
    )


def test_restored_issuer_continues_certifying(archived_world, kv_chain):
    genesis, state = make_genesis()
    restored = recover_issuer(
        archived_world["archive"], genesis, state, fresh_vm(), kv_chain.pow,
        platform=archived_world["platform"], ias=archived_world["ias"],
    ).issuer
    certified = restored.process_block(kv_chain.blocks[6])
    assert certified.certificate is not None


def test_tampered_certificate_rejected_on_restore(archived_world, kv_chain):
    def tamper(record):
        cert = json.loads(record["certificate"])
        cert["dig"] = "00" * 32
        record["certificate"] = json.dumps(cert, sort_keys=True)

    edit_record(archived_world["archive"].path, -1, tamper)
    genesis, state = make_genesis()
    with pytest.raises(ArchiveCorruptionError):
        recover_issuer(
            archived_world["archive"], genesis, state, fresh_vm(), kv_chain.pow,
            platform=archived_world["platform"], ias=archived_world["ias"],
        )


def test_tampered_block_rejected_on_restore(archived_world, kv_chain):
    def tamper(record):
        block = json.loads(record["block"])
        header = json.loads(block["header"])
        header["ts"] = header["ts"] + 1
        block["header"] = json.dumps(header, sort_keys=True)
        record["block"] = json.dumps(block, sort_keys=True)

    edit_record(archived_world["archive"].path, 2, tamper)
    genesis, state = make_genesis()
    with pytest.raises(BlockValidationError):
        recover_issuer(
            archived_world["archive"], genesis, state, fresh_vm(), kv_chain.pow,
            platform=archived_world["platform"], ias=archived_world["ias"],
        )


@pytest.fixture()
def checkpointed_world(kv_chain, tmp_path):
    """A durable issuer with an index: six blocks archived, a sealed
    checkpoint at height 4, so recovery walks blocks 1-4 outside the
    enclave (the prefix) and replays 5-6 through it."""
    from repro.core.recovery import DurableIssuer
    from repro.query.indexes import AccountHistoryIndexSpec

    specs = [AccountHistoryIndexSpec(name="history")]
    ias = AttestationService(seed=b"prefix-ias")
    platform = SGXPlatform(seed=b"prefix-platform")
    genesis, state = make_genesis()
    durable = DurableIssuer.create(
        ChainArchive(tmp_path / "prefix.wal"), genesis, state, fresh_vm(),
        kv_chain.pow, index_specs=specs, platform=platform, ias=ias,
        key_seed=b"prefix-key", checkpoint_interval=4,
    )
    for block in kv_chain.blocks[1:7]:
        durable.process_block(block)
    assert durable.archive.read_checkpoint()[0] == 4

    def recover():
        genesis2, state2 = make_genesis()
        return recover_issuer(
            durable.archive, genesis2, state2, fresh_vm(), kv_chain.pow,
            index_specs=specs, platform=platform, ias=ias,
        )

    assert recover().last_recovery.verified_blocks == 4  # untampered: fine
    return durable.archive.path, recover


def _swap_certificate_field(field, source_position=3):
    """Replace one field of record 2's block certificate (height 2, in
    the checkpointed prefix) with the same field of another record's."""
    def tamper(record, donor):
        cert = json.loads(record["certificate"])
        cert[field] = json.loads(donor["certificate"])[field]
        record["certificate"] = json.dumps(cert, sort_keys=True)
    return tamper


def _swap_index_signature(record, donor):
    name = "history"
    cert = json.loads(record["index_certificates"][name])
    cert["sig"] = json.loads(donor["index_certificates"][name])["sig"]
    record["index_certificates"][name] = json.dumps(cert, sort_keys=True)


def _other_height_certificate(record, donor):
    record["certificate"] = donor["certificate"]


def _other_height_index_part(field):
    """Record 2's ``history`` entry of ``field`` replaced by record 3's:
    genuine, signed bytes, bound to another height."""
    def tamper(record, donor):
        record[field]["history"] = donor[field]["history"]
    return tamper


@pytest.mark.parametrize(
    "tamper, refusal",
    [
        (_swap_certificate_field("sig"), "invalid signature"),
        (_swap_certificate_field("dig"), "different digest"),
        (_other_height_certificate, "different digest"),
        (_swap_index_signature, "invalid signature"),
        (_other_height_index_part("index_certificates"), "different digest"),
        (_other_height_index_part("index_roots"), "rebuilt indexes"),
    ],
    ids=[
        "block-sig", "block-dig", "other-height", "index-sig",
        "index-other-height", "index-root",
    ],
)
def test_tampered_prefix_certificate_rejected_on_restore(
    checkpointed_world, tamper, refusal
):
    """A certificate archived *before* the checkpoint is never replayed
    through the enclave, so the prefix walk itself must refuse it."""
    path, recover = checkpointed_world
    donor = json.loads(read_payloads(path)[3])
    edit_record(path, 2, lambda record: tamper(record, donor))
    with pytest.raises(ArchiveCorruptionError, match=refusal):
        recover()


def test_tampered_tail_index_root_rejected_on_restore(checkpointed_world):
    """Past the checkpoint the enclave re-derives every index root; an
    archived root that differs from its replay is refused like a
    certificate that does."""
    path, recover = checkpointed_world
    donor = json.loads(read_payloads(path)[6])
    tamper = _other_height_index_part("index_roots")
    edit_record(path, 5, lambda record: tamper(record, donor))
    with pytest.raises(ArchiveCorruptionError, match="do not match their replay"):
        recover()


def _edit_header(field, value):
    def tamper(record):
        block = json.loads(record["block"])
        header = json.loads(block["header"])
        header[field] = value(header[field])
        block["header"] = json.dumps(header, sort_keys=True)
        record["block"] = json.dumps(block, sort_keys=True)
    return tamper


def _drop_transaction(record):
    block = json.loads(record["block"])
    block["txs"] = block["txs"][:-1]
    record["block"] = json.dumps(block, sort_keys=True)


@pytest.mark.parametrize(
    "position, tamper, refusal",
    [
        (2, _edit_header("ts", lambda ts: ts + 1), "different digest"),
        (4, _edit_header("ts", lambda ts: ts + 1), "different digest"),
        (3, _edit_header("prev", lambda _: "00" * 32), "does not chain"),
        (2, _drop_transaction, "tx-root"),
    ],
    ids=["header", "header-at-checkpoint", "linkage", "body"],
)
def test_tampered_prefix_block_rejected_on_restore(
    checkpointed_world, position, tamper, refusal
):
    path, recover = checkpointed_world
    edit_record(path, position, tamper)
    with pytest.raises(ArchiveCorruptionError, match=refusal):
        recover()


def test_restore_on_wrong_platform_fails(archived_world, kv_chain):
    from repro.errors import EnclaveError

    genesis, state = make_genesis()
    with pytest.raises(EnclaveError):
        recover_issuer(
            archived_world["archive"], genesis, state, fresh_vm(), kv_chain.pow,
            platform=SGXPlatform(seed=b"thief"), ias=archived_world["ias"],
        )


@pytest.fixture()
def indexed_world(kv_chain, tmp_path):
    """An archive whose block records carry every field: two index
    certificates, two index roots and a write set."""
    from repro.query.indexes import AccountHistoryIndexSpec, KeywordIndexSpec

    specs = [AccountHistoryIndexSpec(name="history"), KeywordIndexSpec(name="keyword")]
    ias = AttestationService(seed=b"archive-idx-ias")
    platform = SGXPlatform(seed=b"archive-idx-platform")
    genesis, state = make_genesis()
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), kv_chain.pow,
        index_specs=specs, ias=ias, platform=platform, key_seed=b"archive-idx",
    )
    archive = ChainArchive(tmp_path / "idx.wal")
    archive.initialize(issuer.seal_signing_key())
    for block in kv_chain.blocks[1:5]:
        archive.append_record(issuer.process_block(block))
    return {
        "issuer": issuer, "archive": archive, "specs": specs,
        "ias": ias, "platform": platform,
    }


def test_an_archive_pass_decodes_each_distinct_key_once(indexed_world, monkeypatch):
    """``pk_enc``, the IAS key and the senders recur in every record; a
    pass (``stream`` / ``load``, ``entries_from``) decompresses each
    distinct one once through a map it owns, so the next pass starts
    empty, and no module keeps decoded keys."""
    import repro.chain.block
    import repro.chain.transaction
    import repro.core.certificate
    import repro.crypto.keys
    import repro.storage
    from repro.crypto import PublicKey

    archive = indexed_world["archive"]
    distinct = set()
    records = [json.loads(payload) for payload in read_payloads(archive.path)[1:]]
    for record in records:
        for raw in (record["certificate"], *record["index_certificates"].values()):
            cert = json.loads(raw)
            distinct |= {cert["pk_enc"], cert["rep"]["ias_key"]}
        for tx in json.loads(record["block"])["txs"]:
            distinct.add(json.loads(tx)["sender"])
    decoded = []
    from_bytes = PublicKey.from_bytes.__func__
    monkeypatch.setattr(PublicKey, "from_bytes", classmethod(
        lambda cls, data: decoded.append(data.hex()) or from_bytes(cls, data)
    ))
    passes = [lambda: archive.load().entries, lambda: list(archive.entries_from(1))]
    for run in passes * 2:
        decoded.clear()
        entries = run()
        assert len(entries) == len(records) == 4
        assert sorted(decoded) == sorted(distinct)
    assert len(distinct) == 3  # pk_enc, the IAS key, kv_chain's one sender
    for module in (repro.chain.block, repro.chain.transaction, repro.core.certificate,
                   repro.crypto.keys, repro.storage):
        for value in vars(module).values():
            assert not (
                isinstance(value, dict)
                and any(isinstance(item, PublicKey) for item in value.values())
            ), module.__name__


def test_restore_with_index_specs(indexed_world, kv_chain):
    """Index certificates are re-derived during replay; the restored CI
    reaches the same certified index roots."""
    issuer = indexed_world["issuer"]
    genesis2, state2 = make_genesis()
    restored = recover_issuer(
        indexed_world["archive"], genesis2, state2, fresh_vm(), kv_chain.pow,
        index_specs=indexed_world["specs"], platform=indexed_world["platform"],
        ias=indexed_world["ias"],
    ).issuer
    for name in ("history", "keyword"):
        assert restored.index_root(name) == issuer.index_root(name)
        assert (
            restored.index_certificate(name).encode()
            == issuer.index_certificate(name).encode()
        )


# -- WAL framing: torn tails vs corruption -----------------------------------


def test_torn_final_record_truncated_on_load(archived_world):
    """A crash mid-append leaves a partial final frame; load() repairs
    by truncation instead of dying in json.loads (the old failure)."""
    archive = archived_world["archive"]
    path = archive.path
    payloads = read_payloads(path)
    whole = path.read_bytes()
    torn = _frame(payloads[-1])[: len(_frame(payloads[-1])) // 2]
    path.write_bytes(whole + torn)

    contents = archive.load()
    assert contents.torn_bytes_dropped == len(torn)
    assert len(contents.entries) == len(payloads) - 1  # head + blocks
    # The file was repaired in place: a second load sees a clean WAL.
    assert archive.load().torn_bytes_dropped == 0
    assert path.read_bytes() == whole


@pytest.mark.parametrize("cut", [1, 3, 7])
def test_torn_tail_regression_byte_level(archived_world, cut):
    """Byte-level torn-write fixture: any partial suffix of a frame —
    even shorter than the 8-byte header — is a torn tail, not an error."""
    path = archived_world["archive"].path
    whole = path.read_bytes()
    path.write_bytes(whole + _frame(b'{"kind":"block"}')[:cut])
    contents = archived_world["archive"].load()
    assert contents.torn_bytes_dropped == cut
    assert path.read_bytes() == whole


def test_mid_file_corruption_is_typed_error(archived_world):
    """Flipping payload bytes *without* fixing the CRC is corruption,
    not a torn tail — surfaced as ArchiveCorruptionError."""
    path = archived_world["archive"].path
    data = bytearray(path.read_bytes())
    # Flip a byte well inside the first record's payload.
    offset = len(WriteAheadLog.MAGIC) + 8 + 4
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ArchiveCorruptionError):
        archived_world["archive"].load()


def test_undecodable_record_is_typed_error(archived_world):
    """A validly framed record that is not JSON raises a typed
    StorageError — never a bare JSONDecodeError."""
    path = archived_world["archive"].path
    payloads = read_payloads(path)
    payloads[1] = b"\xff\xfenot json"
    write_payloads(path, payloads)
    with pytest.raises(StorageError):
        archived_world["archive"].load()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.wal"
    path.write_bytes(b"NOTAWAL\n" + _frame(b"{}"))
    with pytest.raises(ArchiveFormatError):
        ChainArchive(path).load()


def test_missing_archive_rejected(tmp_path):
    with pytest.raises(ArchiveFormatError):
        ChainArchive(tmp_path / "absent.wal").load()


# -- head-record contract: first, exactly once -------------------------------


def test_missing_head_record_rejected(tmp_path):
    archive = ChainArchive(tmp_path / "empty.wal")
    archive.path.write_bytes(WriteAheadLog.MAGIC)
    with pytest.raises(ArchiveFormatError, match="no head record"):
        archive.load()


def test_head_record_must_be_first(archived_world):
    path = archived_world["archive"].path
    payloads = read_payloads(path)
    head, rest = payloads[0], payloads[1:]
    write_payloads(path, [rest[0], head, *rest[1:]])
    with pytest.raises(ArchiveFormatError):
        archived_world["archive"].load()


def test_duplicate_head_record_rejected(archived_world):
    path = archived_world["archive"].path
    payloads = read_payloads(path)
    write_payloads(path, [payloads[0], payloads[0], *payloads[1:]])
    with pytest.raises(ArchiveFormatError, match="head record"):
        archived_world["archive"].load()


def test_head_record_after_blocks_rejected(archived_world):
    path = archived_world["archive"].path
    payloads = read_payloads(path)
    write_payloads(path, [*payloads, payloads[0]])
    with pytest.raises(ArchiveFormatError):
        archived_world["archive"].load()


def test_nonconsecutive_heights_rejected(archived_world):
    path = archived_world["archive"].path
    payloads = read_payloads(path)
    del payloads[2]  # drop the block at height 2
    write_payloads(path, payloads)
    with pytest.raises(ArchiveFormatError, match="height"):
        archived_world["archive"].load()


def test_unknown_record_kind_rejected(archived_world):
    path = archived_world["archive"].path
    payloads = read_payloads(path)
    payloads.append(json.dumps({"kind": "mystery"}).encode("utf-8"))
    write_payloads(path, payloads)
    with pytest.raises(ArchiveFormatError, match="mystery"):
        archived_world["archive"].load()


def test_staged_records_of_the_removed_batch_path_are_refused(archived_world):
    """PRs 3-20 wrote a ``staged`` journal record before every batched
    ``block`` record; an archive that holds one is refused as an unknown
    kind.  (Parent: ``{"kind": "staged"}`` escaped ``load`` as a bare
    ``KeyError``, ``{"kind": "staged", "block": 5}`` as ``AttributeError``.)"""
    path = archived_world["archive"].path
    payloads = read_payloads(path)
    for staged in ({"kind": "staged"}, {"kind": "staged", "block": 5},
                   {"kind": "staged", "block": json.loads(payloads[1])["block"],
                    "write_set": {}}):
        write_payloads(path, payloads + [json.dumps(staged).encode("utf-8")])
        with pytest.raises(ArchiveFormatError, match="unknown archive record kind"):
            archived_world["archive"].load()


#: What a CRC-valid record's field is replaced by, one at a time.
MISTYPED = (None, 5, 1.5, True, [], [1], {}, "zz", {"a": 5}, {"a": "zz"}, {"zz": "00"})


def test_every_mistyped_record_field_loads_or_fails_typed(indexed_world):
    """``load`` promises typed ``StorageError`` subclasses: a real head
    and a real block record (certificate, two index certificates, two
    index roots, a write set) with every field in turn deleted or
    replaced by each of ``MISTYPED`` either loads or raises a
    ``StorageError`` -- nothing else.

    Parent (e1e4d42), same enumeration: of the 72 block-record mutants 1
    escaped bare (``index_roots`` = ``{"a": 5}``: ``TypeError`` from
    ``bytes.fromhex``) and 4 raised a taxonomy error outside the storage
    family, which ``recover_issuer``'s callers that catch ``StorageError``
    miss (``block`` = ``"zz"``: ``BlockValidationError``; ``certificate``
    = ``"zz"`` and ``index_certificates`` = ``{"a": "zz"}`` /
    ``{"zz": "00"}``: ``CertificateError``); of the 36 head-record
    mutants 10 escaped bare (``sealed_key`` = anything but a string:
    ``TypeError``).  Now 63 refused + 9 loaded, and 24 + 12.
    """
    archive = indexed_world["archive"]
    pristine = read_payloads(archive.path)
    outcomes = {"loaded": 0, "typed": 0}
    for position in (0, len(pristine) - 1):
        record = json.loads(pristine[position])
        for name in sorted(record):
            mutants = [{k: v for k, v in record.items() if k != name}]
            mutants += [{**record, name: value} for value in MISTYPED]
            for mutant in mutants:
                payloads = list(pristine)
                payloads[position] = json.dumps(mutant, sort_keys=True).encode("utf-8")
                write_payloads(archive.path, payloads)
                try:
                    archive.load()
                except StorageError:
                    outcomes["typed"] += 1
                else:
                    outcomes["loaded"] += 1
    assert outcomes == {"loaded": 9 + 12, "typed": 63 + 24}


# -- checkpoint sidecar -------------------------------------------------------


def test_checkpoint_sidecar_roundtrip(archived_world):
    archive = archived_world["archive"]
    assert archive.read_checkpoint() is None
    archive.write_checkpoint(5, b"sealed-bytes")
    assert archive.read_checkpoint() == (5, b"sealed-bytes")
    archive.write_checkpoint(7, b"newer")
    assert archive.read_checkpoint() == (7, b"newer")


def test_malformed_checkpoint_sidecar_rejected(archived_world):
    archive = archived_world["archive"]
    archive.checkpoint_path.write_bytes(b"garbage")
    with pytest.raises(ArchiveCorruptionError):
        archive.read_checkpoint()


def test_initialize_clears_stale_checkpoint(archived_world):
    archive = archived_world["archive"]
    archive.write_checkpoint(5, b"sealed")
    archive.initialize(b"new-sealed-key")
    assert archive.read_checkpoint() is None
    contents = archive.load()
    assert contents.sealed_key == b"new-sealed-key"
    assert contents.entries == []
