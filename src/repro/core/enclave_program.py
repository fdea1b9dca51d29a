"""The DCert enclave program (Alg. 2, 4, 5 — the trusted side).

Everything in this module runs "inside the enclave": its declared
identity (``PROGRAM_ID`` / ``PROGRAM_VERSION``), together with its
build-time configuration (genesis digest, IAS public key, the code id
of every contract and authenticated index spec), is folded into the
enclave measurement, so clients that check the measurement are checking
exactly this logic.  ``tests/core/test_program_identity.py`` pins the
source each identity stands for: a behaviour change bumps the version.

Entry points (ecalls):

* :meth:`DCertEnclaveProgram.sig_gen` — Alg. 2's ``ecall_sig_gen``:
  verify the previous certificate (or the hard-coded genesis), verify
  the new block including a full transaction replay over the proven
  state slice, and sign ``H(hdr_i)``.
* :meth:`DCertEnclaveProgram.augmented_sig_gen` — Alg. 4: block
  verification *and* one authenticated index update in a single ecall.
* :meth:`DCertEnclaveProgram.index_sig_gen` — the per-index body of
  Alg. 5: trusts an already-issued block certificate instead of
  replaying the block, then verifies the index update.

The enclave-resident signing key ``sk_enc`` is generated at load time
(``on_init``) and never leaves; only ``pk_enc`` is exported, via the
attestation report's user data.
"""

from __future__ import annotations

from repro.chain.block import Block, BlockHeader
from repro.chain.consensus import ProofOfWork
from repro.chain.executor import TransactionExecutor
from repro.chain.vm import VM
from repro.core.certificate import (
    CERT_SIG_DOMAIN,
    Certificate,
    VerifiedMemo,
    verify_certificate,
)
from repro.core.digest import block_digest, index_digest
from repro.core.updateproof import UpdateProof
from repro.crypto import PublicKey, Signature, generate_keypair, sign
from repro.crypto.hashing import Digest
from repro.crypto.keys import KeyPair, PrivateKey
from repro.errors import CertificateError, EnclaveError, ProofError
from repro.merkle.partial import PartialSMT
from repro.query.indexes import AuthenticatedIndexSpec
from repro.sgx.enclave import EnclaveProgram, code_id
from repro.sgx.sealing import seal, unseal

#: How many recently certified blocks' write sets the enclave caches for
#: the hierarchical scheme's follow-up index ecalls.
_WRITE_SET_CACHE = 4

#: Attestation reports the enclave remembers having verified.  Every
#: certificate it is handed comes from an enclave of its own measurement
#: (its own, or another CI's it chains on), so a few entries suffice.
_VERIFIED_REPORTS_LIMIT = 4

#: Domain prefixes inside sealed plaintexts.  Sealing authenticates
#: *who* sealed (platform + measurement) but not *what for*; without a
#: domain tag a sealed checkpoint could be fed back as a sealed signing
#: key (or vice versa).  The prefix is checked on unseal.
_SEAL_KEY_DOMAIN = b"dcert.sealed.signing-key\x00"
_SEAL_CKPT_DOMAIN = b"dcert.sealed.checkpoint\x00"


class _NoState:
    """Backing used when a block ships no update proof: any state access
    means the proof is incomplete, so reads fail loudly."""

    def get_raw(self, key: bytes) -> bytes | None:
        raise ProofError("state access in a block with no update proof")


_NO_STATE = _NoState()


class DCertEnclaveProgram(EnclaveProgram):
    """Trusted certificate-signing program."""

    PROGRAM_ID = "dcert.enclave"
    PROGRAM_VERSION = 2

    ECALLS = (
        "sig_gen",
        "augmented_sig_gen",
        "index_sig_gen",
        "seal_signing_key",
        "seal_checkpoint",
        "unseal_checkpoint",
    )

    def __init__(
        self,
        genesis_digest: Digest,
        ias_public_key: PublicKey,
        vm: VM,
        difficulty_bits: int,
        index_specs: dict[str, AuthenticatedIndexSpec] | None = None,
        *,
        key_seed: bytes | None = None,
        sealed_key: bytes | None = None,
    ) -> None:
        self._genesis_digest = genesis_digest
        self._ias_public_key = ias_public_key
        self._vm = vm
        self._pow = ProofOfWork(difficulty_bits)
        self._executor = TransactionExecutor(vm)
        self._index_specs = dict(index_specs or {})
        self._key_seed = key_seed
        self._sealed_key = sealed_key
        # Hierarchical-scheme cache: block hash -> (block, write set).
        self._recent: dict[Digest, tuple[Block, dict[bytes, bytes | None]]] = {}
        # Reports cert_verify_t already checked (§3.3: "only once for the
        # same enclave") and certificate signatures it checked or this
        # enclave produced.  Enclave memory only: never sealed, so a
        # launched or recovered enclave verifies its first one in full.
        self._verified_reports = VerifiedMemo(_VERIFIED_REPORTS_LIMIT)

    # -- enclave lifecycle ---------------------------------------------------

    def config_bytes(self) -> bytes:
        """Build-time identity folded into the measurement.

        Covers the genesis digest, the trusted IAS key, the consensus
        difficulty, the code id of every deployed contract, and the
        code id + parameters of every index spec — so an enclave with
        different trusted logic measures differently.
        """
        parts = [
            self._genesis_digest,
            self._ias_public_key.to_bytes(),
            self._pow.difficulty_bits.to_bytes(2, "big"),
        ]
        for name in self._vm.deployed():
            contract = self._vm._contracts[name]
            parts.append(name.encode("utf-8"))
            parts.append(code_id(type(contract)).encode("utf-8"))
        for name in sorted(self._index_specs):
            spec = self._index_specs[name]
            parts.append(name.encode("utf-8"))
            parts.append(code_id(type(spec)).encode("utf-8"))
            parts.append(repr(sorted(vars(spec).items())).encode("utf-8"))
        return b"\x00".join(parts)

    def on_init(self) -> bytes:
        """Generate ``(sk_enc, pk_enc)`` inside the enclave (§3.3).

        If a sealed key blob is supplied (a CI restarting), the key is
        *unsealed* instead — only this program on this platform can do
        so — which keeps ``pk_enc`` stable across restarts so clients
        need not re-check a new attestation report.
        """
        if self._sealed_key is not None:
            secret_bytes = self._unseal(
                self._sealed_key, _SEAL_KEY_DOMAIN, "signing key"
            )
            private = PrivateKey(int.from_bytes(secret_bytes, "big"))
            self._keypair = KeyPair(private, private.public_key())
        else:
            self._keypair = generate_keypair(self._key_seed)
        return self._keypair.public.to_bytes()

    def seal_signing_key(self) -> bytes:
        """Export ``sk_enc`` sealed to this enclave's identity."""
        return seal(
            self._platform,
            self.self_measurement,
            _SEAL_KEY_DOMAIN + self._keypair.private.secret.to_bytes(32, "big"),
        )

    def seal_checkpoint(self, payload: bytes) -> bytes:
        """Seal a recovery checkpoint to this enclave's identity.

        The payload is untrusted CI state (see
        :mod:`repro.core.recovery`); sealing does not make it *true*, it
        makes it *tamper-evident* — only this program on this platform
        can produce or reopen the blob, so a checkpoint modified on disk
        fails the MAC instead of being replayed.
        """
        if not isinstance(payload, bytes):
            raise EnclaveError("seal_checkpoint takes a bytes payload")
        return seal(
            self._platform, self.self_measurement, _SEAL_CKPT_DOMAIN + payload
        )

    def unseal_checkpoint(self, sealed: bytes) -> bytes:
        """Reopen a checkpoint sealed by :meth:`seal_checkpoint`."""
        return self._unseal(sealed, _SEAL_CKPT_DOMAIN, "checkpoint")

    def _unseal(self, sealed: bytes, domain: bytes, what: str) -> bytes:
        plaintext = unseal(self._platform, self.self_measurement, sealed)
        if not plaintext.startswith(domain):
            raise EnclaveError(f"sealed blob is not a {what} (wrong seal domain)")
        return plaintext[len(domain) :]

    # -- ecall: block certificate (Alg. 2) ------------------------------------

    def sig_gen(
        self,
        blk_prev: Block,
        cert_prev: Certificate | None,
        blk_new: Block,
        update_proof: UpdateProof,
    ) -> Signature:
        """``ecall_sig_gen``: returns the signature for ``H(hdr_new)``."""
        self._verify_anchor(blk_prev.header, cert_prev)
        write_set = self.blk_verify_t(blk_prev, blk_new, update_proof)
        self._remember(blk_new, write_set)
        return self._sign(block_digest(blk_new.header))

    # -- ecall: augmented certificate (Alg. 4) --------------------------------

    def augmented_sig_gen(
        self,
        blk_prev: Block,
        cert_prev_idx: Certificate | None,
        prev_index_root: Digest,
        blk_new: Block,
        new_index_root: Digest,
        update_proof: UpdateProof,
        index_proof,
        spec_name: str,
    ) -> Signature:
        """One ecall certifying the block *and* one index update."""
        spec = self._spec(spec_name)
        self._verify_anchor(blk_prev.header, cert_prev_idx, spec, prev_index_root)
        write_set = self.blk_verify_t(blk_prev, blk_new, update_proof)
        self._verify_index_update(
            spec, blk_new, write_set, prev_index_root, new_index_root, index_proof
        )
        return self._sign(index_digest(blk_new.header, new_index_root))

    # -- ecall: hierarchical index certificate (Alg. 5 loop body) -------------

    def index_sig_gen(
        self,
        blk_prev_header: BlockHeader,
        prev_index_root: Digest,
        cert_prev_idx: Certificate | None,
        blk_new_header: BlockHeader,
        cert_new_block: Certificate,
        new_index_root: Digest,
        index_proof,
        spec_name: str,
    ) -> Signature:
        """Certify one index update against an existing block certificate.

        The block itself is *not* replayed — ``cert_new_block`` vouches
        for it (Alg. 5 line 10); the write set comes from the enclave's
        cache of its own recent ``sig_gen`` replays.
        """
        spec = self._spec(spec_name)
        self._verify_anchor(blk_prev_header, cert_prev_idx, spec, prev_index_root)
        self.cert_verify_t(block_digest(blk_new_header), cert_new_block)
        cached = self._recent.get(blk_new_header.header_hash())
        if cached is None:
            raise EnclaveError(
                "hierarchical index certification needs the block's write set; "
                "run sig_gen for this block on this enclave first"
            )
        block, write_set = cached
        self._verify_index_update(
            spec, block, write_set, prev_index_root, new_index_root, index_proof
        )
        return self._sign(index_digest(blk_new_header, new_index_root))

    # -- trusted helpers (Alg. 2 lines 10-32) ----------------------------------

    def blk_verify_t(
        self, blk_prev: Block, blk_new: Block, update_proof: UpdateProof
    ) -> dict[bytes, bytes | None]:
        """Verify ``blk_new``'s full validity; returns its write set."""
        prev_header, header = blk_prev.header, blk_new.header
        # Linkage, height, consensus proof, H_tx (lines 11-16).
        if header.prev_hash != prev_header.header_hash():
            raise CertificateError("H_{i-1} does not match the previous header")
        if header.height != prev_header.height + 1:
            raise CertificateError("block height is not prev + 1")
        if not self._pow.check(header):
            raise CertificateError("consensus proof invalid")
        if not blk_new.check_tx_root():
            raise CertificateError("H_tx does not commit to the transactions")
        # Verify the read set and merge it into the proven state slice
        # (verify_mht of line 17): every proof verifies against the
        # previous state root, and any disagreement with already-verified
        # nodes raises ProofError.  Blocks that touch no state (e.g.
        # all-DoNothing blocks) come with an empty proof; any read or
        # write then fails below.
        entries = update_proof.entries
        slice_ = (
            PartialSMT.from_proofs(prev_header.state_root, entries) if entries else None
        )
        # Replay every transaction (lines 18-21); signature checks are
        # line 19's verify(tx).  Reads outside the proven slice raise.
        result = self._executor.execute(
            slice_ if slice_ is not None else _NO_STATE,
            list(blk_new.transactions),
            strict=True,
        )
        # Commit the write set and check the new root (lines 22-23).
        if result.write_set:
            if slice_ is None:
                raise CertificateError("write set has no covering update proof")
            slice_.update_batch(result.write_set)
        new_root = slice_.root if slice_ is not None else prev_header.state_root
        if new_root != header.state_root:
            raise CertificateError("state root mismatch after replay")
        return result.write_set

    def _verify_anchor(
        self,
        prev_header: BlockHeader,
        cert_prev: Certificate | None,
        spec: AuthenticatedIndexSpec | None = None,
        prev_index_root: Digest = b"",
    ) -> None:
        """What a call chains on — the previous block (Alg. 2 lines 3-6)
        or, given ``spec``, the previous root of that index — is the
        hard-coded genesis or carries a valid certificate."""
        if prev_header.height == 0:
            # Alg. 4 only asserts the genesis index root; we also pin the
            # genesis block digest (as Alg. 5 does) — without it a forged
            # "genesis" would bootstrap a parallel certified chain.
            if prev_header.header_hash() != self._genesis_digest:
                raise CertificateError("previous block is not the genesis block")
            if spec is not None and prev_index_root != spec.genesis_root():
                raise CertificateError("previous index root is not the genesis root")
        elif cert_prev is None:
            raise CertificateError("a non-genesis anchor needs its certificate")
        elif spec is None:
            self.cert_verify_t(block_digest(prev_header), cert_prev)
        else:
            self.cert_verify_t(index_digest(prev_header, prev_index_root), cert_prev)

    def cert_verify_t(self, expected_dig: Digest, cert: Certificate) -> None:
        """Verify a certificate (Alg. 2 lines 25-32); raises on failure."""
        verify_certificate(
            self.self_measurement,
            self._ias_public_key,
            cert,
            expected_dig,
            self._verified_reports,
        )

    # -- internals -------------------------------------------------------------

    def _sign(self, dig: Digest) -> Signature:
        sig = sign(self._keypair.private, dig, CERT_SIG_DOMAIN)
        # The next ecalls hand this signature back inside a certificate
        # (Alg. 2 line 5, Alg. 5 line 10): it verifies, having just been made.
        self._verified_reports.admit_signature(
            (self._keypair.public.to_bytes(), dig, sig.to_bytes())
        )
        return sig

    def _spec(self, name: str) -> AuthenticatedIndexSpec:
        spec = self._index_specs.get(name)
        if spec is None:
            raise EnclaveError(f"enclave has no index spec {name!r}")
        return spec

    def _verify_index_update(
        self,
        spec: AuthenticatedIndexSpec,
        block: Block,
        write_set: dict[bytes, bytes | None],
        prev_root: Digest,
        new_root: Digest,
        index_proof,
    ) -> None:
        """Alg. 4 lines 8-10: derive writes, verify, recompute the root."""
        writes = spec.write_data(block, write_set)
        computed = spec.apply_writes(prev_root, writes, index_proof)
        if computed != new_root:
            raise CertificateError("index root mismatch after applying writes")

    def _remember(self, block: Block, write_set: dict[bytes, bytes | None]) -> None:
        self._recent[block.header.header_hash()] = (block, write_set)
        while len(self._recent) > _WRITE_SET_CACHE:
            self._recent.pop(next(iter(self._recent)))
