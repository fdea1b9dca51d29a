"""The SGX-enabled Certificate Issuer — the CI of Fig. 2.

A CI is a full node (it validates and stores everything) that also runs
the DCert enclave.  Its outside-enclave side implements Alg. 1:

1. re-execute the incoming block to obtain the read/write sets
   (``comp_data_set``),
2. build the update proof against the previous state
   (``get_update_proof``),
3. enter the enclave for the signature (``ecall_sig_gen``), and
4. assemble the certificate ``<pk_enc, rep, dig, sig>``.

For verifiable queries the CI additionally maintains the authenticated
indexes it certifies and drives either certification scheme:

* **augmented** (Alg. 4) — one ecall per index, each replaying the full
  block verification;
* **hierarchical** (Alg. 5) — the block certificate once, then one
  cheap ecall per index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.chain.block import Block, BlockHeader
from repro.chain.consensus import ProofOfWork
from repro.chain.node import FullNode
from repro.chain.state import StateStore
from repro.chain.vm import VM
from repro.core.certificate import Certificate
from repro.core.digest import block_digest, index_digest
from repro.core.enclave_program import DCertEnclaveProgram
from repro.core.updateproof import UpdateProof
from repro.crypto import PublicKey
from repro.crypto.hashing import Digest
from repro.errors import (
    BlockValidationError,
    CertificateError,
    ServiceUnavailableError,
)
from repro.fault.crashpoints import crashpoint
from repro.query.api import FAMILY_OF_SPEC
from repro.query.indexes import AuthenticatedIndexSpec
from repro.sgx.attestation import AttestationReport, AttestationService, WELL_KNOWN_IAS
from repro.sgx.costs import SGXCostModel
from repro.sgx.enclave import EnclaveHost
from repro.sgx.platform import SGXPlatform


def make_maintained_index(spec: AuthenticatedIndexSpec):
    """Instantiate the SP-side structure matching an index spec."""
    family = FAMILY_OF_SPEC.get(type(spec))
    if family is None:
        raise CertificateError(f"no maintained index for spec {type(spec).__name__}")
    return family.index(spec)


@dataclass(slots=True)
class CertifiedBlock:
    """Everything the CI broadcasts for one block."""

    block: Block
    certificate: Certificate | None
    index_certificates: dict[str, Certificate] = field(default_factory=dict)
    index_roots: dict[str, Digest] = field(default_factory=dict)
    augmented_certificates: dict[str, Certificate] = field(default_factory=dict)
    # The block's state write set, kept so the durable archive can
    # persist it and recovery can rebuild indexes without re-execution.
    write_set: dict[bytes, bytes | None] = field(default_factory=dict)

    @property
    def header(self) -> BlockHeader:
        """So a client can adopt a certified block like any tip bundle."""
        return self.block.header


@dataclass(frozen=True, slots=True)
class CertifiedTip:
    """What a remote client needs from the CI's latest certified block.

    Unlike :class:`CertifiedBlock` it omits the block body — a
    superlight client only ever stores the header — so this is the
    constant-size object :class:`IssuerService` serves over RPC, and the
    bundle shape ``SuperlightClient.adopt`` takes (``certificate=None``
    for a bundle of index certificates only; never sent on the wire).
    """

    header: BlockHeader
    certificate: Certificate | None
    index_certificates: dict[str, Certificate]
    index_roots: dict[str, Digest]


@dataclass(frozen=True, slots=True)
class AttestationEvidence:
    """The CI's identity material, served to bootstrapping clients.

    The client never *trusts* this — it re-derives the expected
    measurement from published sources and re-verifies the report — but
    serving it lets operators inspect what a CI claims to run.
    """

    measurement: Digest
    pk_enc: PublicKey
    report: AttestationReport


class CertificateIssuer:
    """Full node + enclave: certifies every block it accepts."""

    def __init__(
        self,
        genesis: Block,
        genesis_state: StateStore,
        vm: VM,
        pow_engine: ProofOfWork,
        *,
        index_specs: list[AuthenticatedIndexSpec] | None = None,
        platform: SGXPlatform | None = None,
        ias: AttestationService = WELL_KNOWN_IAS,
        cost_model: SGXCostModel | None = None,
        key_seed: bytes | None = None,
        sealed_key: bytes | None = None,
    ) -> None:
        self.node = FullNode(genesis, genesis_state, vm, pow_engine)
        self.ias = ias
        specs = {spec.name: spec for spec in (index_specs or [])}
        program = DCertEnclaveProgram(
            genesis_digest=genesis.header.header_hash(),
            ias_public_key=ias.public_key,
            vm=vm,
            difficulty_bits=pow_engine.difficulty_bits,
            index_specs=specs,
            key_seed=key_seed,
            sealed_key=sealed_key,
        )
        self.platform = platform if platform is not None else SGXPlatform()
        ias.register_platform(self.platform)
        self.enclave = EnclaveHost(program, self.platform, cost_model=cost_model)
        self.report = self.enclave.attest(ias)
        self.pk_enc = PublicKey.from_bytes(self.enclave.report_data)
        self.indexes = {name: make_maintained_index(spec) for name, spec in specs.items()}
        self._index_roots: dict[str, Digest] = {
            name: spec.genesis_root() for name, spec in specs.items()
        }
        self._index_certs: dict[str, Certificate | None] = {
            name: None for name in specs
        }
        self._aug_certs: dict[str, Certificate | None] = {name: None for name in specs}
        self.latest_certificate: Certificate | None = None
        self.certified: list[CertifiedBlock] = []
        #: Fired with each CertifiedBlock right after it is committed.
        #: The subscription hub (repro.net.pubsub) attaches here; the
        #: hook also fires through DurableIssuer's delegation.
        self.on_certified: list[Callable[[CertifiedBlock], object]] = []

    # -- Alg. 1: gen_cert ------------------------------------------------------

    def preprocess(self, block: Block):
        """Alg. 1 lines 2-3: re-execute and build the update proof.

        Untrusted pre-processing, exposed separately so benchmarks can
        time it apart from the enclave work.  Transaction signatures are
        not checked here: ``blk_verify_t`` (Alg. 2 line 19) checks them
        in the enclave, before :meth:`process_block` moves anything.
        """
        # comp_data_set
        result = self.node.validate_block(block, verify_signatures=False)
        # get_update_proof: the proofs validation replayed the writes on.
        return result, UpdateProof(entries=result.pre_state)

    def gen_cert(
        self, block: Block, *, precomputed=None
    ) -> tuple[Certificate, UpdateProof, dict]:
        """Construct the block certificate for ``block`` (Alg. 1).

        Does not commit the block; returns the certificate, the update
        proof (for reuse), and the block's write set.  Raises if the
        block or its state transition is invalid.  ``precomputed`` (from
        :meth:`preprocess`) skips re-running the untrusted side.
        """
        with obs.trace_span("issuer.gen_cert"):
            result, update_proof = precomputed or self.preprocess(block)
            prev = self.node.tip
            sig = self.enclave.ecall(
                "sig_gen",
                prev,
                self.latest_certificate,
                block,
                update_proof,
                payload_bytes=update_proof.size_bytes(),
            )
            certificate = self._certificate(block_digest(block.header), sig)
        if obs.enabled():
            obs.inc("issuer.certs_issued")
            obs.observe(
                "issuer.update_proof_bytes",
                update_proof.size_bytes(),
                boundaries=obs.SIZE_BYTES_BUCKETS,
            )
        return certificate, update_proof, result.write_set

    def process_block(
        self,
        block: Block,
        *,
        schemes: tuple[str, ...] = ("hierarchical",),
        precomputed=None,
    ) -> CertifiedBlock:
        """Certify ``block`` (and its indexes), then commit it.

        ``schemes`` selects index certification: ``"hierarchical"``
        (Alg. 5, the default), ``"augmented"`` (Alg. 4), or both — the
        Fig. 10 benchmark runs both to compare construction costs.

        Per Alg. 4 the augmented certificate *replaces* the block
        certificate (block and index verification share one ecall), so
        with ``schemes=("augmented",)`` and at least one index no plain
        block certificate is issued; an issuer should then stick to the
        augmented scheme for its lifetime, since the block-certificate
        chain stops advancing.
        """
        for scheme in schemes:
            if scheme not in ("hierarchical", "augmented"):
                raise CertificateError(f"unknown certification scheme {scheme!r}")
        crashpoint("issuer.process_block.pre")
        with obs.trace_span("issuer.process_block"):
            certified = self._process_block(
                block, schemes=schemes, precomputed=precomputed
            )
        crashpoint("issuer.process_block.post")
        return certified

    def _process_block(
        self,
        block: Block,
        *,
        schemes: tuple[str, ...],
        precomputed,
    ) -> CertifiedBlock:
        result, update_proof = precomputed or self.preprocess(block)
        write_set = result.write_set
        prev = self.node.tip

        certificate: Certificate | None = None
        if "hierarchical" in schemes or not self.indexes:
            certificate = self.gen_cert(block, precomputed=(result, update_proof))[0]
        elif not all(tx.verify_signature() for tx in block.transactions):
            # Augmented-only: no ecall has run blk_verify_t yet, and
            # ingest_block below advances the indexes before one does —
            # the one place the host checks what preprocess left out.
            raise BlockValidationError(
                "invalid transaction in block: invalid signature"
            )
        certified = CertifiedBlock(
            block=block, certificate=certificate, write_set=dict(write_set)
        )

        # Ingest index updates once; reuse proofs across both schemes.
        ingests: dict[str, tuple[Digest, object, Digest]] = {}
        for name, index in self.indexes.items():
            prev_root = self._index_roots[name]
            _writes, index_proof = index.ingest_block(block, write_set)
            ingests[name] = (prev_root, index_proof, index.root)

        if "augmented" in schemes:
            for name, (prev_root, index_proof, new_root) in ingests.items():
                cert = self._index_certificate(
                    block.header, new_root, index_proof, "augmented_sig_gen",
                    prev, self._aug_certs[name], prev_root, block, new_root,
                    update_proof, index_proof, name,
                    payload_bytes=update_proof.size_bytes() + index_proof.size_bytes(),
                )
                self._aug_certs[name] = certified.augmented_certificates[name] = cert

        if "hierarchical" in schemes:
            assert certificate is not None  # issued above for this scheme
            for name, (prev_root, index_proof, new_root) in ingests.items():
                cert = self._index_certificate(
                    block.header, new_root, index_proof, "index_sig_gen",
                    prev.header, prev_root, self._index_certs[name], block.header,
                    certificate, new_root, index_proof, name,
                    payload_bytes=index_proof.size_bytes(),
                )
                self._index_certs[name] = certified.index_certificates[name] = cert

        for name, (_, _, new_root) in ingests.items():
            self._index_roots[name] = new_root
            certified.index_roots[name] = new_root

        # Commit: preprocess re-executed the block, the enclave verified it.
        self.node.commit(block, write_set)
        if certificate is not None:
            self.latest_certificate = certificate
        self.certified.append(certified)
        for hook in list(self.on_certified):
            hook(certified)
        return certified

    def _index_certificate(
        self, header, new_root, index_proof, ecall: str, *args, payload_bytes: int
    ) -> Certificate:
        """One index-certification ecall and the certificate it signed."""
        with obs.trace_span("issuer.index_certification"):
            sig = self.enclave.ecall(ecall, *args, payload_bytes=payload_bytes)
            cert = self._certificate(index_digest(header, new_root), sig)
        if obs.enabled():
            obs.inc("issuer.index_certs_issued")
            obs.observe(
                "issuer.index_proof_bytes",
                index_proof.size_bytes(),
                boundaries=obs.SIZE_BYTES_BUCKETS,
            )
        return cert

    def _certificate(self, dig: Digest, sig) -> Certificate:
        return Certificate(pk_enc=self.pk_enc, report=self.report, dig=dig, sig=sig)

    # -- conveniences ----------------------------------------------------------

    def seal_signing_key(self) -> bytes:
        """Export the enclave signing key sealed to this enclave's
        identity, for restart continuity (pass as ``sealed_key`` to the
        next :class:`CertificateIssuer` on the same platform)."""
        return self.enclave.ecall("seal_signing_key")

    @property
    def measurement(self) -> Digest:
        return self.enclave.measurement

    def index_root(self, name: str) -> Digest:
        return self._index_roots[name]

    def index_certificate(self, name: str) -> Certificate | None:
        return self._index_certs[name]


class IssuerService:
    """The CI's networked face: serves certified tips over RPC (Fig. 2).

    Methods:

    * ``latest_tip`` — the newest :class:`CertifiedTip` (header,
      block certificate, index certificates and roots);
    * ``tip_at`` — the certified tip at a given height, for clients
      catching up or auditing;
    * ``evidence`` — the CI's :class:`AttestationEvidence`;
    * ``certify_range`` — submit a run of consecutive blocks; each is
      certified by ``process_block`` (already-certified heights are
      answered from the archive); returns one :class:`CertifiedTip` per
      block.

    Raises :class:`~repro.errors.ServiceUnavailableError` (propagated
    to the caller through the RPC error channel) while the CI has not
    certified any block yet under the hierarchical scheme.
    """

    def __init__(self, bus, name: str, issuer: CertificateIssuer) -> None:
        from repro.net.rpc import RpcServer

        self.issuer = issuer
        self.server = RpcServer(bus, name)
        self.server.register("latest_tip", self._latest_tip)
        self.server.register("tip_at", self._tip_at)
        self.server.register("evidence", self._evidence)
        self.server.register("certify_range", self._certify_range)

    def _certified_tip(self, certified: CertifiedBlock) -> CertifiedTip:
        if certified.certificate is None:
            raise ServiceUnavailableError(
                "no hierarchical block certificate for this block "
                "(augmented-only issuer)"
            )
        return CertifiedTip(
            header=certified.block.header,
            certificate=certified.certificate,
            index_certificates=dict(certified.index_certificates),
            index_roots=dict(certified.index_roots),
        )

    def _latest_tip(self, _argument: object) -> CertifiedTip:
        if not self.issuer.certified:
            raise ServiceUnavailableError("issuer has not certified any block")
        return self._certified_tip(self.issuer.certified[-1])

    def _certified_at(self, height: object) -> CertifiedBlock | None:
        """The certified block at a wire-supplied ``height``, if any.
        Heights are consecutive from 1 on every construction path, so it
        is a list read — once ``height`` is known to be an in-range int."""
        certified = self.issuer.certified
        if type(height) is int and 1 <= height <= len(certified):
            return certified[height - 1]
        return None

    def _tip_at(self, height: object) -> CertifiedTip:
        certified = self._certified_at(height)
        if certified is None:
            raise ServiceUnavailableError(f"no certified block at height {height!r}")
        return self._certified_tip(certified)

    def _certify_range(self, blocks: object) -> tuple[CertifiedTip, ...]:
        """Certify a run of consecutive blocks, idempotently.

        A client retrying after an issuer crash + restore may resend
        blocks the issuer already certified (the certificates were
        durable but the response was lost).  Heights at or below the
        tip whose header hash matches the certified block are answered
        from the archive — re-certifying them would produce the exact
        same bytes anyway (deterministic signatures) — and each
        genuinely new block goes through ``process_block``, durable
        before the next one starts.  A validation failure propagates
        after the valid prefix is certified.
        """
        if not isinstance(blocks, (list, tuple)) or not blocks:
            raise CertificateError("certify_range takes a non-empty block list")
        if not all(isinstance(block, Block) for block in blocks):
            raise CertificateError("certify_range takes Block objects")
        tips: list[CertifiedTip] = []
        for block in blocks:
            certified = self._certified_at(block.header.height)
            if (
                certified is None
                or certified.block.header.header_hash() != block.header.header_hash()
            ):
                certified = self.issuer.process_block(block)
            tips.append(self._certified_tip(certified))
        return tuple(tips)

    def _evidence(self, _argument: object) -> AttestationEvidence:
        return AttestationEvidence(
            measurement=self.issuer.measurement,
            pk_enc=self.issuer.pk_enc,
            report=self.issuer.report,
        )

