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
from array import array
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Iterable, Iterator

from repro import obs
from repro.chain.block import decode_block, encode_block
from repro.core.certificate import Certificate
from repro.core.issuer import CertifiedBlock
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
        #: Byte offset of each record this log wrote or read, in order
        #: (8 B per record): a read from record ``n`` seeks straight to it.
        self.offsets = array("Q")
        self._end = len(self.MAGIC)  # where the last indexed record ends

    def create(self, first_payloads: tuple[bytes, ...] = ()) -> None:
        """(Re)create the log atomically, optionally pre-seeded with
        records — the archive head lands durably or not at all."""
        data = self.MAGIC + b"".join(_frame(p) for p in first_payloads)
        _atomic_write(self.path, data)
        del self.offsets[:]
        self._end = len(self.MAGIC)
        for payload in first_payloads:
            self._index(len(self.offsets), self._end, len(payload))

    def _index(self, position: int, offset: int, length: int) -> None:
        """Note that record ``position`` is framed at ``offset``; an
        entry the file no longer matches is dropped with all after it."""
        if position < len(self.offsets) and self.offsets[position] == offset:
            return
        del self.offsets[position:]
        self.offsets.append(offset)
        self._end = offset + _FRAME_HEADER_BYTES + length

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
            offset = handle.seek(0, os.SEEK_END)
            if torn is not None:
                handle.write(data[:torn])
                handle.flush()
                os.fsync(handle.fileno())
                crash_now("wal.append.torn_write")
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if offset == self._end:  # the index covers every earlier record
            self._index(len(self.offsets), offset, len(payload))
        if obs.enabled():
            obs.inc("storage.wal_appends")
            obs.inc("storage.wal_bytes_written", len(data))
        crashpoint("wal.append.post_fsync")

    def records(self, *, repair: bool = True, start: int = 0) -> Iterator[bytes]:
        """Yield the record payloads from the ``start``-th on, in order, a
        frame at a time; the generator returns the torn byte count.  A
        record :attr:`offsets` holds is sought, not read up to.

        An incomplete final frame is a torn tail: with ``repair`` the
        file is truncated back to the last complete record when the pass
        reaches it; without it the torn bytes are only skipped.  A
        complete frame whose CRC does not match raises
        :class:`ArchiveCorruptionError` — corruption or tampering, not a
        crash artifact, and never silently dropped.
        """
        try:
            handle = self.path.open("rb")
        except FileNotFoundError as exc:
            raise ArchiveFormatError(f"no archive at {self.path}") from exc
        with handle:
            if handle.read(len(self.MAGIC)) != self.MAGIC:
                raise ArchiveFormatError(
                    f"{self.path} is not a DCert WAL (bad magic)"
                )
            position = min(start, max(len(self.offsets) - 1, 0))
            offset = self.offsets[position] if self.offsets else len(self.MAGIC)
            handle.seek(offset)
            while True:
                header = handle.read(_FRAME_HEADER_BYTES)
                if len(header) < _FRAME_HEADER_BYTES:
                    break  # the end, or torn: not even a whole frame header
                length = int.from_bytes(header[:4], "big")
                if length > _MAX_RECORD_BYTES:
                    raise ArchiveCorruptionError(
                        f"record at byte {offset} claims {length} bytes "
                        f"(corrupted length field)"
                    )
                payload = handle.read(length)
                if len(payload) < length:
                    break  # torn: payload incomplete
                if zlib.crc32(payload) != int.from_bytes(header[4:], "big"):
                    raise ArchiveCorruptionError(
                        f"CRC mismatch in record {position} "
                        f"at byte {offset} of {self.path}"
                    )
                self._index(position, offset, length)
                if position >= start:
                    yield payload
                position += 1
                offset += _FRAME_HEADER_BYTES + length
            torn_bytes = handle.seek(0, os.SEEK_END) - offset
        if torn_bytes and repair:
            with self.path.open("rb+") as repaired:
                repaired.truncate(offset)
                repaired.flush()
                os.fsync(repaired.fileno())
            obs.inc("storage.torn_tail_truncations")
            obs.inc("storage.torn_tail_bytes_dropped", torn_bytes)
        return torn_bytes


@dataclass(slots=True)
class ArchiveContents:
    """One :meth:`ChainArchive.stream` pass: the head record's sealed
    key, then the certified blocks in height order (a list after
    :meth:`ChainArchive.load`); ``torn_bytes_dropped`` is set when the
    pass reaches the end of the WAL."""

    sealed_key: bytes
    entries: Iterable[CertifiedBlock]
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

    def append_record(self, certified: CertifiedBlock) -> None:
        """Durably append one fully-described certified block."""
        record = {
            "kind": "block",
            "block": encode_block(certified.block).decode("utf-8"),
            "certificate": (
                certified.certificate.encode().decode("utf-8")
                if certified.certificate is not None
                else None
            ),
            "index_certificates": {
                name: cert.encode().decode("utf-8")
                for name, cert in certified.index_certificates.items()
            },
            "index_roots": {
                name: root.hex() for name, root in certified.index_roots.items()
            },
            "write_set": {
                key.hex(): (value.hex() if value is not None else None)
                for key, value in certified.write_set.items()
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
        try:
            data = self.checkpoint_path.read_bytes()
        except FileNotFoundError:
            return None
        # The sidecar is the magic and exactly one intact frame.
        payload = data[len(WriteAheadLog.MAGIC) + _FRAME_HEADER_BYTES :]
        if data != WriteAheadLog.MAGIC + _frame(payload):
            raise ArchiveCorruptionError(
                f"checkpoint sidecar {self.checkpoint_path} is malformed"
            )
        record = self._parse(payload)
        if record.get("kind") != "checkpoint":
            raise ArchiveCorruptionError("checkpoint sidecar has wrong record kind")
        try:
            return int(record["height"]), bytes.fromhex(record["sealed"])
        except (KeyError, ValueError) as exc:
            raise ArchiveCorruptionError(
                f"checkpoint sidecar fields malformed: {exc}"
            ) from exc

    def stream(self) -> ArchiveContents:
        """One forward pass over the archive, a record at a time.

        Enforces the record-stream contract — head record first,
        exactly once; block records at consecutive heights from 1 —
        as it goes, and truncates a torn tail when the pass reaches it.
        Raises typed :class:`~repro.errors.StorageError` subclasses on
        violations (never a bare ``JSONDecodeError``).  The pass
        decompresses each distinct public key once.
        """
        records = self.wal.records()
        head = self._parse(next(records, b"{}"))  # an empty WAL: no kind
        if head.get("kind") != "head":
            raise ArchiveFormatError("archive has no head record first")
        try:
            sealed_key = bytes.fromhex(head["sealed_key"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ArchiveCorruptionError(f"head record malformed: {exc}") from exc

        def entries() -> Iterator[CertifiedBlock]:
            keys: dict = {}
            for height in count(1):
                try:
                    payload = next(records)
                except StopIteration as done:
                    contents.torn_bytes_dropped = done.value
                    return
                yield self._decode_record(self._parse(payload), height, keys)

        contents = ArchiveContents(sealed_key, entries())
        return contents

    def entries_from(self, height: int) -> Iterator[CertifiedBlock]:
        """The certified blocks from ``height`` on, read (without
        repair) from the WAL frame indexed for that height."""
        records = self.wal.records(repair=False, start=height)
        keys: dict = {}
        for height, payload in enumerate(records, height):
            yield self._decode_record(self._parse(payload), height, keys)

    def load(self) -> ArchiveContents:
        """Read and structurally validate the whole archive: one
        :meth:`stream` pass, its entries kept as a list."""
        contents = self.stream()
        contents.entries = list(contents.entries)
        return contents

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
    def _decode_record(record: dict, height: int, keys: dict) -> CertifiedBlock:
        """The certified block a record past the head holds, at ``height``."""
        kind = record.get("kind")
        if kind == "head":
            raise ArchiveFormatError("duplicate head record")
        if kind != "block":
            raise ArchiveFormatError(f"unknown archive record kind {kind!r}")
        # A CRC-valid record is still untrusted bytes: whatever a
        # mistyped field makes the decoders raise -- their own taxonomy
        # errors included -- is archive corruption.
        try:
            entry = CertifiedBlock(
                block=decode_block(record["block"].encode("utf-8"), keys),
                certificate=(
                    Certificate.decode(record["certificate"].encode("utf-8"), keys)
                    if record.get("certificate") is not None
                    else None
                ),
                index_certificates={
                    name: Certificate.decode(cert.encode("utf-8"), keys)
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
        if entry.block.header.height != height:
            raise ArchiveFormatError(
                f"block record at height {entry.block.header.height} "
                f"where {height} was expected"
            )
        return entry
