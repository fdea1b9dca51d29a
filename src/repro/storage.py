"""Durable on-disk chain archive: a crash-safe WAL plus checkpoints.

A production CI must survive restarts: the chain, the certificates it
issued, and the enclave signing key (sealed — see
:mod:`repro.sgx.sealing`) all need to outlive the process — and outlive
it *through a crash*, not just a clean shutdown.  The archive is built
from two pieces:

* :class:`WriteAheadLog` — an append-only file of length-and-CRC framed
  records behind a simulated fsync boundary.  A crash can lose the
  un-fsynced tail or tear the final record; on load a torn tail is
  detected (incomplete frame) and *truncated away* instead of failing
  the whole archive, while a CRC mismatch anywhere (bytes present but
  wrong) is surfaced as a typed
  :class:`~repro.errors.ArchiveCorruptionError`.
* a **checkpoint sidecar** updated atomically (write temp file, then
  ``os.replace``) holding an enclave-sealed snapshot of issuer state,
  so recovery unseals the snapshot and replays only the WAL records
  past it — O(gap) enclave work instead of O(chain) (see
  :mod:`repro.core.recovery`).

Record stream layout: one ``head`` record first (exactly once, carrying
the sealed signing key), then one ``block`` record per certified block
(block, certificates, index roots, write set).  Certificates are stored
as issued (they cannot be re-derived without the enclave) and are
re-verified on restore, so a tampered archive is rejected rather than
trusted.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.chain.block import Block, decode_block, encode_block
from repro.core.certificate import Certificate
from repro.errors import ArchiveCorruptionError, ArchiveFormatError, ReproError
from repro.fault.crashpoints import crash_now, crashpoint, torn_prefix

_FRAME_HEADER_BYTES = 8  # 4-byte big-endian length + 4-byte CRC32
#: Sanity bound on a single framed record; a length field beyond this is
#: treated as corruption rather than an (absurd) allocation request.
_MAX_RECORD_BYTES = 64 * 1024 * 1024


def _frame(payload: bytes) -> bytes:
    return (
        len(payload).to_bytes(4, "big")
        + zlib.crc32(payload).to_bytes(4, "big")
        + payload
    )


def _atomic_write(path: Path, data: bytes) -> None:
    """Write-temp-then-rename: readers see the old file or the new one,
    never a partial mix."""
    handle, temp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as temp:
            temp.write(data)
            temp.flush()
            os.fsync(temp.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


class WriteAheadLog:
    """Append-only CRC-framed record log with torn-tail recovery."""

    MAGIC = b"DCWAL2\n"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def create(self, first_payloads: tuple[bytes, ...] = ()) -> None:
        """(Re)create the log atomically, optionally pre-seeded with
        records — the archive head lands durably or not at all."""
        data = self.MAGIC + b"".join(_frame(p) for p in first_payloads)
        _atomic_write(self.path, data)

    def append(self, payload: bytes) -> None:
        """Durably append one framed record (the fsync boundary).

        Crashpoints model the three interesting positions: before any
        byte lands (record lost whole), after a torn partial write, and
        after the fsync (record durable, crash right after).
        """
        data = _frame(payload)
        crashpoint("wal.append.pre_write")
        torn = torn_prefix("wal.append.torn_write", len(data))
        with self.path.open("ab") as handle:
            if torn is not None:
                handle.write(data[:torn])
                handle.flush()
                os.fsync(handle.fileno())
                crash_now("wal.append.torn_write")
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if obs.enabled():
            obs.inc("storage.wal_appends")
            obs.inc("storage.wal_bytes_written", len(data))
        crashpoint("wal.append.post_fsync")

    def read(self, *, repair: bool = True) -> tuple[list[bytes], int]:
        """Read every record payload; returns ``(payloads, torn_bytes)``.

        An incomplete final frame is a torn tail: with ``repair`` the
        file is truncated back to the last complete record (and the
        dropped byte count returned); without it the torn bytes are
        only skipped.  A complete frame whose CRC does not match raises
        :class:`ArchiveCorruptionError` — that is corruption or
        tampering, not a crash artifact, and must not be silently
        dropped.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError as exc:
            raise ArchiveFormatError(f"no archive at {self.path}") from exc
        if not data.startswith(self.MAGIC):
            raise ArchiveFormatError(
                f"{self.path} is not a DCert WAL (bad magic)"
            )
        payloads: list[bytes] = []
        offset = len(self.MAGIC)
        while offset < len(data):
            remaining = len(data) - offset
            if remaining < _FRAME_HEADER_BYTES:
                break  # torn: not even a whole frame header
            length = int.from_bytes(data[offset : offset + 4], "big")
            crc = int.from_bytes(data[offset + 4 : offset + 8], "big")
            if length > _MAX_RECORD_BYTES:
                raise ArchiveCorruptionError(
                    f"record at byte {offset} claims {length} bytes "
                    f"(corrupted length field)"
                )
            if remaining - _FRAME_HEADER_BYTES < length:
                break  # torn: payload incomplete
            payload = data[
                offset + _FRAME_HEADER_BYTES : offset + _FRAME_HEADER_BYTES + length
            ]
            if zlib.crc32(payload) != crc:
                raise ArchiveCorruptionError(
                    f"CRC mismatch in record {len(payloads)} "
                    f"at byte {offset} of {self.path}"
                )
            payloads.append(payload)
            offset += _FRAME_HEADER_BYTES + length
        torn_bytes = len(data) - offset
        if torn_bytes and repair:
            with self.path.open("rb+") as handle:
                handle.truncate(offset)
                handle.flush()
                os.fsync(handle.fileno())
            obs.inc("storage.torn_tail_truncations")
            obs.inc("storage.torn_tail_bytes_dropped", torn_bytes)
        return payloads, torn_bytes


@dataclass(slots=True)
class ArchiveEntry:
    """One certified block as persisted: everything recovery needs to
    rebuild the CI's untrusted state without re-executing the block."""

    block: Block
    certificate: Certificate | None
    index_certificates: dict[str, Certificate] = field(default_factory=dict)
    index_roots: dict[str, bytes] = field(default_factory=dict)
    write_set: dict[bytes, bytes | None] = field(default_factory=dict)


@dataclass(slots=True)
class ArchiveContents:
    """Everything :meth:`ChainArchive.load` recovered from disk."""

    sealed_key: bytes
    entries: list[ArchiveEntry]
    torn_bytes_dropped: int = 0


class ChainArchive:
    """Append-only archive of certified blocks over a durable WAL."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.wal = WriteAheadLog(self.path)

    @property
    def checkpoint_path(self) -> Path:
        return self.path.with_name(self.path.name + ".ckpt")

    # -- writing ------------------------------------------------------------

    def initialize(self, sealed_key: bytes) -> None:
        """Write the head record (truncates any existing archive).

        Atomic: the new archive (magic + head) replaces the old file in
        one rename, so a crash mid-initialize leaves either the old
        archive or a complete new one.  A stale checkpoint from the
        replaced archive is removed first — it cannot describe the new
        record stream.
        """
        try:
            os.unlink(self.checkpoint_path)
        except OSError:
            pass
        head = {"kind": "head", "format": 2, "sealed_key": sealed_key.hex()}
        self.wal.create((self._dump(head),))

    def append(self, block: Block, certificate: Certificate | None) -> None:
        """Append one certified block (compatibility form: no indexes)."""
        self.append_record(
            block,
            certificate,
            index_certificates={},
            index_roots={},
            write_set={},
        )

    def append_record(
        self,
        block: Block,
        certificate: Certificate | None,
        *,
        index_certificates: dict[str, Certificate],
        index_roots: dict[str, bytes],
        write_set: dict[bytes, bytes | None],
    ) -> None:
        """Durably append one fully-described certified block."""
        record = {
            "kind": "block",
            "block": encode_block(block).decode("utf-8"),
            "certificate": (
                certificate.encode().decode("utf-8")
                if certificate is not None
                else None
            ),
            "index_certificates": {
                name: cert.encode().decode("utf-8")
                for name, cert in index_certificates.items()
            },
            "index_roots": {
                name: root.hex() for name, root in index_roots.items()
            },
            "write_set": {
                key.hex(): (value.hex() if value is not None else None)
                for key, value in write_set.items()
            },
        }
        self.wal.append(self._dump(record))

    def write_checkpoint(self, height: int, sealed: bytes) -> None:
        """Atomically replace the checkpoint sidecar (temp + rename)."""
        payload = self._dump(
            {"kind": "checkpoint", "height": height, "sealed": sealed.hex()}
        )
        crashpoint("archive.checkpoint.pre_rename")
        _atomic_write(self.checkpoint_path, WriteAheadLog.MAGIC + _frame(payload))
        if obs.enabled():
            obs.inc("storage.checkpoint_writes")
            obs.set_gauge("storage.checkpoint_bytes", len(sealed))
            obs.set_gauge("storage.checkpoint_height", height)
        crashpoint("archive.checkpoint.post_rename")

    # -- reading ------------------------------------------------------------

    def read_checkpoint(self) -> tuple[int, bytes] | None:
        """The latest checkpoint as ``(height, sealed blob)``, if any.

        The sidecar is written atomically, so a malformed file is
        tampering or media corruption — surfaced as
        :class:`ArchiveCorruptionError`, never silently ignored.
        """
        sidecar = WriteAheadLog(self.checkpoint_path)
        try:
            payloads, torn = sidecar.read(repair=False)
        except ArchiveFormatError as exc:
            if self.checkpoint_path.exists():
                raise ArchiveCorruptionError(
                    f"checkpoint sidecar {self.checkpoint_path} is malformed"
                ) from exc
            return None
        if torn or len(payloads) != 1:
            raise ArchiveCorruptionError(
                f"checkpoint sidecar {self.checkpoint_path} is malformed"
            )
        record = self._parse(payloads[0])
        if record.get("kind") != "checkpoint":
            raise ArchiveCorruptionError("checkpoint sidecar has wrong record kind")
        try:
            return int(record["height"]), bytes.fromhex(record["sealed"])
        except (KeyError, ValueError) as exc:
            raise ArchiveCorruptionError(
                f"checkpoint sidecar fields malformed: {exc}"
            ) from exc

    def load(self) -> ArchiveContents:
        """Read and structurally validate the whole archive.

        Enforces the record-stream contract — head record first,
        exactly once; block records at consecutive heights from 1 —
        and repairs a torn tail by truncation.  Raises typed
        :class:`~repro.errors.StorageError` subclasses on violations
        (never a bare ``JSONDecodeError``).
        """
        payloads, torn_bytes = self.wal.read(repair=True)
        if not payloads:
            raise ArchiveFormatError("archive has no head record")
        sealed_key: bytes | None = None
        entries: list[ArchiveEntry] = []
        for position, payload in enumerate(payloads):
            record = self._parse(payload)
            kind = record.get("kind")
            if kind == "head":
                if position != 0:
                    raise ArchiveFormatError(
                        "head record must be first"
                        if sealed_key is None
                        else "duplicate head record"
                    )
                try:
                    sealed_key = bytes.fromhex(record["sealed_key"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise ArchiveCorruptionError(
                        f"head record malformed: {exc}"
                    ) from exc
            elif kind == "block":
                if sealed_key is None:
                    raise ArchiveFormatError(
                        "archive does not start with its head record"
                    )
                entry = self._decode_block_record(record)
                expected = len(entries) + 1
                if entry.block.header.height != expected:
                    raise ArchiveFormatError(
                        f"block record at height {entry.block.header.height} "
                        f"where {expected} was expected"
                    )
                entries.append(entry)
            else:
                raise ArchiveFormatError(
                    f"unknown archive record kind {kind!r}"
                )
        if sealed_key is None:
            raise ArchiveFormatError("archive has no head record")
        return ArchiveContents(
            sealed_key=sealed_key,
            entries=entries,
            torn_bytes_dropped=torn_bytes,
        )

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _dump(record: dict) -> bytes:
        return json.dumps(record, sort_keys=True).encode("utf-8")

    @staticmethod
    def _parse(payload: bytes) -> dict:
        try:
            record = json.loads(payload)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ArchiveCorruptionError(
                f"archive record is not valid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise ArchiveCorruptionError("archive record is not an object")
        return record

    @staticmethod
    def _decode_block_record(record: dict) -> ArchiveEntry:
        # A CRC-valid record is still untrusted bytes: whatever a
        # mistyped field makes the decoders raise -- their own taxonomy
        # errors included -- is archive corruption.
        try:
            return ArchiveEntry(
                block=decode_block(record["block"].encode("utf-8")),
                certificate=(
                    Certificate.decode(record["certificate"].encode("utf-8"))
                    if record.get("certificate") is not None
                    else None
                ),
                index_certificates={
                    name: Certificate.decode(cert.encode("utf-8"))
                    for name, cert in record.get("index_certificates", {}).items()
                },
                index_roots={
                    name: bytes.fromhex(root)
                    for name, root in record.get("index_roots", {}).items()
                },
                write_set={
                    bytes.fromhex(key): (
                        bytes.fromhex(value) if value is not None else None
                    )
                    for key, value in record.get("write_set", {}).items()
                },
            )
        except (KeyError, AttributeError, TypeError, ValueError, ReproError) as exc:
            raise ArchiveCorruptionError(
                f"block record malformed: {exc}"
            ) from exc
