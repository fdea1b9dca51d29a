"""Checkpointed issuer recovery: sealed snapshots + O(gap) tail replay.

Without checkpoints, restoring a CI replays the *entire* chain through
the enclave — recovery cost grows linearly with history, which defeats
the point of a long-lived service.  This module adds:

* :class:`IssuerCheckpoint` — a snapshot of the issuer's replayable
  state (state SMT cells + root, index roots and latest index/augmented
  certificates, the latest block certificate, ``pk_enc``), sealed by
  the enclave (``seal_checkpoint``) so on-disk tampering fails the MAC
  instead of being replayed.
* :class:`DurableIssuer` — wraps a :class:`CertificateIssuer` so every
  certification lands in the :class:`~repro.storage.ChainArchive` WAL
  before the call returns, and a checkpoint is re-sealed every
  ``checkpoint_interval`` certified blocks.
* :func:`recover_issuer` — the restore path, one streamed pass over
  the WAL: unseal the newest checkpoint, verify the WAL prefix against
  it (state root, index roots, per-block certificates re-checked in
  untrusted code), then replay only the records *past* the checkpoint
  through the enclave.  Per-restart enclave work is O(gap), and the
  memory held is the issuer's window, not the chain.

Recovery invariants (enforced here; the sim's ``wal-consistent``
invariant checks them across every ``crash`` event):
the recovered tip is byte-identical to the no-crash run (RFC-6979
deterministic signatures make re-issuing idempotent), ``pk_enc`` is
unchanged (sealed key), and an archived certificate that differs from
its replayed twin means the archive was tampered with — recovery fails
rather than serving it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterator

from repro import obs
from repro.chain.block import Block
from repro.chain.consensus import ProofOfWork
from repro.chain.state import StateStore
from repro.chain.vm import VM
from repro.core.certificate import CERT_SIG_DOMAIN, Certificate
from repro.core.digest import block_digest
from repro.core.issuer import CertificateIssuer, CertifiedBlock
from repro.crypto import verify
from repro.errors import ArchiveCorruptionError
from repro.fault.crashpoints import crashpoint
from repro.query.indexes import AuthenticatedIndexSpec
from repro.sgx.attestation import AttestationService, WELL_KNOWN_IAS
from repro.sgx.costs import SGXCostModel
from repro.sgx.platform import SGXPlatform

if TYPE_CHECKING:  # annotations only: repro.storage itself imports repro.core
    from repro.storage import ChainArchive


def _encode_cert(cert: Certificate | None) -> str | None:
    return cert.encode().decode("utf-8") if cert is not None else None


def _decode_cert(raw: str | None) -> Certificate | None:
    return Certificate.decode(raw.encode("utf-8")) if raw is not None else None


@dataclass(slots=True)
class IssuerCheckpoint:
    """The issuer state a restart needs, as of a certified height."""

    height: int
    tip_hash: str
    state_cells: dict[str, str]
    state_root: str
    index_roots: dict[str, str]
    index_certs: dict[str, str | None]
    aug_certs: dict[str, str | None]
    latest_certificate: str | None
    pk_enc: str

    @classmethod
    def capture(cls, issuer: CertificateIssuer) -> "IssuerCheckpoint":
        return cls(
            height=issuer.node.height,
            tip_hash=issuer.node.tip.header.header_hash().hex(),
            state_cells={
                key.hex(): value.hex() for key, value in issuer.node.state.items()
            },
            state_root=issuer.node.state.root.hex(),
            index_roots={
                name: root.hex() for name, root in issuer._index_roots.items()
            },
            index_certs={
                name: _encode_cert(cert)
                for name, cert in issuer._index_certs.items()
            },
            aug_certs={
                name: _encode_cert(cert)
                for name, cert in issuer._aug_certs.items()
            },
            latest_certificate=_encode_cert(issuer.latest_certificate),
            pk_enc=issuer.pk_enc.to_bytes().hex(),
        )

    def to_bytes(self) -> bytes:
        return json.dumps(
            {
                "height": self.height,
                "tip_hash": self.tip_hash,
                "state_cells": self.state_cells,
                "state_root": self.state_root,
                "index_roots": self.index_roots,
                "index_certs": self.index_certs,
                "aug_certs": self.aug_certs,
                "latest_certificate": self.latest_certificate,
                "pk_enc": self.pk_enc,
            },
            sort_keys=True,
        ).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "IssuerCheckpoint":
        try:
            raw = json.loads(data)
            return cls(
                height=int(raw["height"]),
                tip_hash=raw["tip_hash"],
                state_cells=dict(raw["state_cells"]),
                state_root=raw["state_root"],
                index_roots=dict(raw["index_roots"]),
                index_certs=dict(raw["index_certs"]),
                aug_certs=dict(raw["aug_certs"]),
                latest_certificate=raw["latest_certificate"],
                pk_enc=raw["pk_enc"],
            )
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError,
                ValueError) as exc:
            raise ArchiveCorruptionError(
                f"checkpoint payload malformed: {exc}"
            ) from exc


@dataclass(slots=True)
class RecoveryReport:
    """What one :func:`recover_issuer` run did — asserted on by tests
    and surfaced through :mod:`repro.obs`."""

    checkpoint_height: int = 0
    checkpoint_used: bool = False
    replayed_blocks: int = 0
    verified_blocks: int = 0
    torn_bytes_dropped: int = 0


class DurableIssuer:
    """A :class:`CertificateIssuer` whose certifications are durable.

    Every certified block is appended to the archive WAL before the
    call returns; every ``checkpoint_interval`` certified blocks the
    issuer state is sealed into the checkpoint sidecar.  Non-durable
    attributes and methods delegate to the wrapped issuer, so this drops
    into :class:`IssuerService` and the query provider unchanged.

    Durability covers the hierarchical scheme (the library default);
    augmented-only certification is not journaled.
    """

    def __init__(
        self,
        issuer: CertificateIssuer,
        archive: ChainArchive,
        *,
        checkpoint_interval: int = 0,
    ) -> None:
        self.issuer = issuer
        self.archive = archive
        # The archive journals every certified block, so the issuer's
        # history keeps only its window in memory.
        issuer.certified.archive = archive
        self.checkpoint_interval = checkpoint_interval
        self._last_checkpoint_height = 0
        self.last_recovery: RecoveryReport | None = None

    @classmethod
    def create(
        cls,
        archive: ChainArchive,
        genesis: Block,
        genesis_state: StateStore,
        vm: VM,
        pow_engine: ProofOfWork,
        *,
        index_specs: list[AuthenticatedIndexSpec] | None = None,
        platform: SGXPlatform | None = None,
        ias: AttestationService | None = None,
        cost_model: SGXCostModel | None = None,
        key_seed: bytes | None = None,
        checkpoint_interval: int = 0,
    ) -> "DurableIssuer":
        """Provision a fresh issuer and initialize its archive: the
        sealed signing key is the archive's head record, so the key
        survives from the very first block."""
        issuer = CertificateIssuer(
            genesis,
            genesis_state,
            vm,
            pow_engine,
            index_specs=index_specs,
            platform=platform,
            ias=ias if ias is not None else WELL_KNOWN_IAS,
            cost_model=cost_model,
            key_seed=key_seed,
        )
        archive.initialize(issuer.seal_signing_key())
        return cls(issuer, archive, checkpoint_interval=checkpoint_interval)

    # -- durable certification ----------------------------------------------

    def process_block(self, block: Block, **kwargs) -> CertifiedBlock:
        """Certify + commit ``block``, then journal it."""
        certified = self.issuer.process_block(block, **kwargs)
        # The enclave has signed (in-memory state advanced) but the
        # record is not yet durable — the classic crash window.  The
        # block is re-submitted after recovery and re-certifies to
        # byte-identical certificates, so nothing is ever lost or forked.
        crashpoint("durable.append.pre_wal")
        self.archive.append_record(certified)
        if (
            self.checkpoint_interval > 0
            and self.issuer.node.height - self._last_checkpoint_height
            >= self.checkpoint_interval
        ):
            self.checkpoint()
        return certified

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self) -> None:
        """Seal the current issuer state into the checkpoint sidecar."""
        crashpoint("durable.checkpoint.pre_seal")
        snapshot = IssuerCheckpoint.capture(self.issuer)
        payload = snapshot.to_bytes()
        sealed = self.issuer.enclave.ecall(
            "seal_checkpoint", payload, payload_bytes=len(payload)
        )
        self.archive.write_checkpoint(snapshot.height, sealed)
        self._last_checkpoint_height = snapshot.height
        if obs.enabled():
            obs.inc("recovery.checkpoints_taken")
            obs.set_gauge("recovery.checkpoint_height", snapshot.height)

    # -- delegation ----------------------------------------------------------

    def __getattr__(self, name: str):
        # Anything not defined here (pk_enc, report, certified, node,
        # enclave, measurement, index_root...) is the wrapped issuer's.
        return getattr(self.issuer, name)


def _verify_archived_entry(
    issuer: CertificateIssuer, entry: CertifiedBlock
) -> None:
    """Cheap untrusted re-verification of one archived certified block.

    Used on the checkpoint fast path, where the block is *not* replayed
    through the enclave: check chain linkage, the transaction root, and
    that each archived certificate really is this enclave's signature
    over this block's digest.  (State correctness is covered by the
    checkpoint's verified SMT root.)
    """
    block = entry.block
    prev = issuer.node.tip
    if block.header.height != prev.header.height + 1:
        raise ArchiveCorruptionError(
            f"archived block {block.header.height} does not extend "
            f"height {prev.header.height}"
        )
    if block.header.prev_hash != prev.header.header_hash():
        raise ArchiveCorruptionError(
            f"archived block {block.header.height} does not chain to its parent"
        )
    if not block.check_tx_root():
        raise ArchiveCorruptionError(
            f"archived block {block.header.height} fails its tx-root check"
        )
    for label, cert, dig in (
        ("block", entry.certificate, block_digest(block.header)),
        *(
            (f"index {name!r}", cert, None)
            for name, cert in entry.index_certificates.items()
        ),
    ):
        if cert is None:
            continue
        if cert.pk_enc.to_bytes() != issuer.pk_enc.to_bytes():
            raise ArchiveCorruptionError(
                f"archived {label} certificate at height "
                f"{block.header.height} was issued under a different pk_enc"
            )
        if dig is not None and cert.dig != dig:
            raise ArchiveCorruptionError(
                f"archived {label} certificate at height "
                f"{block.header.height} covers a different digest"
            )
        if not verify(cert.pk_enc, cert.dig, cert.sig, CERT_SIG_DOMAIN):
            raise ArchiveCorruptionError(
                f"archived {label} certificate at height "
                f"{block.header.height} has an invalid signature"
            )


def recover_issuer(
    archive: ChainArchive,
    genesis: Block,
    genesis_state: StateStore,
    vm: VM,
    pow_engine: ProofOfWork,
    *,
    index_specs: list[AuthenticatedIndexSpec] | None = None,
    platform: SGXPlatform | None = None,
    ias: AttestationService | None = None,
    cost_model: SGXCostModel | None = None,
    checkpoint_interval: int = 0,
) -> DurableIssuer:
    """Restore a :class:`DurableIssuer` from its archive.

    The enclave unseals the archived signing key — same program on the
    same platform required — so ``pk_enc`` is stable across the restart
    and clients keep their verified attestation.  With a checkpoint
    present, enclave work is O(gap): only WAL records past the
    checkpoint height are re-certified; the prefix is verified in
    untrusted code against the checkpoint's sealed roots.  Every
    replayed certificate must match the archived bytes exactly.
    """
    contents = archive.stream()
    issuer = CertificateIssuer(
        genesis,
        genesis_state,
        vm,
        pow_engine,
        index_specs=index_specs,
        platform=platform,
        ias=ias if ias is not None else WELL_KNOWN_IAS,
        cost_model=cost_model,
        sealed_key=contents.sealed_key,
    )
    durable = DurableIssuer(
        issuer, archive, checkpoint_interval=checkpoint_interval
    )
    report = RecoveryReport()
    entries = contents.entries

    checkpoint = archive.read_checkpoint()
    if checkpoint is not None:
        height, sealed = checkpoint
        payload = issuer.enclave.ecall(
            "unseal_checkpoint", sealed, payload_bytes=len(sealed)
        )
        snapshot = IssuerCheckpoint.from_bytes(payload)
        _apply_checkpoint(issuer, snapshot, islice(entries, height), height)
        report.checkpoint_height = height
        report.checkpoint_used = True
        report.verified_blocks = height

    # O(gap) tail replay through the enclave, byte-compared to the WAL.
    for entry in entries:
        certified = issuer.process_block(entry.block)
        _compare_replayed(certified, entry)
        report.replayed_blocks += 1
    report.torn_bytes_dropped = contents.torn_bytes_dropped

    if obs.enabled():
        obs.inc("recovery.restarts")
        obs.inc("recovery.replayed_blocks", report.replayed_blocks)
        obs.set_gauge("recovery.checkpoint_age_blocks", report.replayed_blocks)

    durable._last_checkpoint_height = report.checkpoint_height
    durable.last_recovery = report
    return durable


def _apply_checkpoint(
    issuer: CertificateIssuer,
    snapshot: IssuerCheckpoint,
    prefix: Iterator[CertifiedBlock],
    height: int,
) -> None:
    """Fast-forward a fresh issuer to the checkpoint, verifying as we go."""
    if snapshot.height != height:
        raise ArchiveCorruptionError(
            f"checkpoint sidecar says height {height} but sealed snapshot "
            f"says {snapshot.height}"
        )
    if snapshot.pk_enc != issuer.pk_enc.to_bytes().hex():
        raise ArchiveCorruptionError(
            "checkpoint was sealed under a different pk_enc than the "
            "archived signing key"
        )
    try:
        cells = {
            bytes.fromhex(key): bytes.fromhex(value)
            for key, value in snapshot.state_cells.items()
        }
        state_root = bytes.fromhex(snapshot.state_root)
        index_roots = {
            name: bytes.fromhex(root)
            for name, root in snapshot.index_roots.items()
        }
    except ValueError as exc:
        raise ArchiveCorruptionError(
            f"checkpoint payload malformed: {exc}"
        ) from exc
    issuer.node.state.apply_writes(cells)
    if issuer.node.state.root != state_root:
        raise ArchiveCorruptionError(
            "checkpoint state cells do not hash to the checkpoint state root"
        )

    # Walk the WAL prefix once, with cheap (non-enclave) verification
    # per block, rebuilding the indexes; the history keeps its window.
    if set(index_roots) != set(issuer.indexes):
        raise ArchiveCorruptionError(
            "checkpoint index set does not match this issuer's index specs"
        )
    for entry in prefix:
        _verify_archived_entry(issuer, entry)
        for index in issuer.indexes.values():
            index.ingest_block(entry.block, entry.write_set)
        issuer.node.tip = entry.block
        issuer.certified.append(entry)
    if issuer.node.height != height:
        # The block record is fsynced before the checkpoint renames,
        # so a checkpoint ahead of the WAL cannot happen by crashing.
        raise ArchiveCorruptionError(
            f"checkpoint at height {height} is ahead of the WAL "
            f"({issuer.node.height} blocks)"
        )
    if snapshot.tip_hash != issuer.node.tip.header.header_hash().hex():
        raise ArchiveCorruptionError(
            "checkpoint tip hash does not match the WAL prefix"
        )
    for name, index in issuer.indexes.items():
        if index.root != index_roots[name]:
            raise ArchiveCorruptionError(
                f"rebuilt index {name!r} root does not match the checkpoint"
            )
    issuer._index_roots = dict(index_roots)
    issuer._index_certs = {
        name: _decode_cert(raw) for name, raw in snapshot.index_certs.items()
    }
    issuer._aug_certs = {
        name: _decode_cert(raw) for name, raw in snapshot.aug_certs.items()
    }
    issuer.latest_certificate = _decode_cert(snapshot.latest_certificate)


def _compare_replayed(certified: CertifiedBlock, entry: CertifiedBlock) -> None:
    """A replayed certificate must be byte-identical to the archived one."""
    height = entry.block.header.height
    archived = entry.certificate
    replayed = certified.certificate
    if (archived is None) != (replayed is None) or (
        archived is not None
        and replayed is not None
        and archived.encode() != replayed.encode()
    ):
        raise ArchiveCorruptionError(
            f"archived certificate at height {height} does not match "
            f"its replay — the archive was tampered with"
        )
    # The compat append() form persists no index data, so only compare
    # the index certificates the archive actually recorded.
    for name, cert in entry.index_certificates.items():
        if name not in certified.index_certificates:
            raise ArchiveCorruptionError(
                f"archived index certificate {name!r} at height {height} "
                f"names an index this issuer does not maintain"
            )
        if cert.encode() != certified.index_certificates[name].encode():
            raise ArchiveCorruptionError(
                f"archived index certificate {name!r} at height {height} "
                f"does not match its replay — the archive was tampered with"
            )
