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
from repro.core.batch import BatchItem, IndexUpdate
from repro.core.certificate import Certificate
from repro.core.digest import block_digest, index_digest
from repro.core.enclave_program import DCertEnclaveProgram
from repro.core.updateproof import UpdateProof
from repro.crypto import PublicKey
from repro.crypto.hashing import Digest
from repro.errors import CertificateError, ServiceUnavailableError
from repro.fault.crashpoints import crashpoint
from repro.merkle.proofcache import ProofCache
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    AggregateHistoryIndex,
    AuthenticatedIndexSpec,
    BalanceAggregateIndexSpec,
    KeywordIndexSpec,
    MaintainedKeywordIndex,
    TwoLevelHistoryIndex,
    ValueRangeIndex,
    ValueRangeIndexSpec,
)
from repro.sgx.attestation import AttestationReport, AttestationService, WELL_KNOWN_IAS
from repro.sgx.costs import SGXCostModel
from repro.sgx.enclave import EnclaveHost
from repro.sgx.platform import SGXPlatform


def make_maintained_index(spec: AuthenticatedIndexSpec):
    """Instantiate the SP-side structure matching an index spec."""
    if isinstance(spec, AccountHistoryIndexSpec):
        return TwoLevelHistoryIndex(spec)
    if isinstance(spec, KeywordIndexSpec):
        return MaintainedKeywordIndex(spec)
    if isinstance(spec, BalanceAggregateIndexSpec):
        return AggregateHistoryIndex(spec)
    if isinstance(spec, ValueRangeIndexSpec):
        return ValueRangeIndex(spec)
    raise CertificateError(f"no maintained index for spec {type(spec).__name__}")


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


@dataclass(slots=True)
class StagedBlock:
    """A validated, proof-built block queued for batch certification."""

    block: Block
    prev_block: Block
    item: BatchItem
    write_set: dict[bytes, bytes | None]
    new_index_roots: dict[str, Digest]
    shipped_keys: frozenset[bytes]


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
        proof_cache_entries: int = 0,
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
        # Batched-path state: the CI-side LRU mirror of the enclave's
        # carried proof slice, the key set the enclave is known to
        # cover (reconciled at every batch boundary), and the staging
        # queue of validated-but-uncertified blocks.
        self.proof_cache = ProofCache(proof_cache_entries)
        self._enclave_keys: set[bytes] = set()
        self._staged: list[StagedBlock] = []

    # -- Alg. 1: gen_cert ------------------------------------------------------

    def preprocess(self, block: Block):
        """Alg. 1 lines 2-3: re-execute and build the update proof.

        Untrusted pre-processing, exposed separately so benchmarks can
        time it apart from the enclave work.
        """
        result = self.node.validate_block(block)  # comp_data_set
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
            result, update_proof = (
                precomputed if precomputed is not None else self.preprocess(block)
            )
            prev = self.node.tip
            sig = self.enclave.ecall(
                "sig_gen",
                prev,
                self.latest_certificate,
                block,
                update_proof,
                payload_bytes=update_proof.size_bytes(),
            )
            certificate = Certificate(
                pk_enc=self.pk_enc,
                report=self.report,
                dig=block_digest(block.header),
                sig=sig,
            )
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
        if self._staged:
            raise CertificateError(
                "staged blocks pending batch certification; call "
                "certify_staged() before certifying sequentially"
            )
        # A sequential certification advances the chain without the
        # enclave's carried slice following along, so the slice (and our
        # mirror of it) is stale from here on.  The enclave discards it
        # on the next batch's root check; drop the mirror now so we ship
        # full proofs again rather than assume coverage that is gone.
        self.proof_cache.clear()
        self._enclave_keys.clear()
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
        if precomputed is not None:
            result, update_proof = precomputed
        else:
            result, update_proof = self.preprocess(block)
        write_set = result.write_set
        prev = self.node.tip

        certificate: Certificate | None = None
        if "hierarchical" in schemes or not self.indexes:
            certificate, update_proof, write_set = self.gen_cert(
                block, precomputed=(result, update_proof)
            )
        certified = CertifiedBlock(
            block=block, certificate=certificate, write_set=dict(write_set)
        )

        # Ingest index updates once; reuse proofs across both schemes.
        ingests: dict[str, tuple[Digest, tuple, object, Digest]] = {}
        for name, index in self.indexes.items():
            prev_root = self._index_roots[name]
            writes, index_proof = index.ingest_block(block, write_set)
            ingests[name] = (prev_root, writes, index_proof, index.root)

        if "augmented" in schemes:
            for name, (prev_root, writes, index_proof, new_root) in ingests.items():
                with obs.trace_span("issuer.index_certification"):
                    sig = self.enclave.ecall(
                        "augmented_sig_gen",
                        prev,
                        self._aug_certs[name],
                        prev_root,
                        block,
                        new_root,
                        update_proof,
                        index_proof,
                        name,
                        payload_bytes=update_proof.size_bytes()
                        + index_proof.size_bytes(),
                    )
                    cert = Certificate(
                        pk_enc=self.pk_enc,
                        report=self.report,
                        dig=index_digest(block.header, new_root),
                        sig=sig,
                    )
                self._record_index_cert_metrics(index_proof)
                self._aug_certs[name] = cert
                certified.augmented_certificates[name] = cert

        if "hierarchical" in schemes:
            assert certificate is not None  # issued above for this scheme
            for name, (prev_root, writes, index_proof, new_root) in ingests.items():
                with obs.trace_span("issuer.index_certification"):
                    sig = self.enclave.ecall(
                        "index_sig_gen",
                        prev.header,
                        prev_root,
                        self._index_certs[name],
                        block.header,
                        certificate,
                        new_root,
                        index_proof,
                        name,
                        payload_bytes=index_proof.size_bytes(),
                    )
                    cert = Certificate(
                        pk_enc=self.pk_enc,
                        report=self.report,
                        dig=index_digest(block.header, new_root),
                        sig=sig,
                    )
                self._record_index_cert_metrics(index_proof)
                self._index_certs[name] = cert
                certified.index_certificates[name] = cert

        for name, (_, _, _, new_root) in ingests.items():
            self._index_roots[name] = new_root
            certified.index_roots[name] = new_root

        # Commit (the block was already fully validated in preprocess).
        self.node.state.apply_writes(write_set)
        self.node.blocks.append(block)
        if certificate is not None:
            self.latest_certificate = certificate
        self.certified.append(certified)
        self._fire_certified(certified)
        return certified

    def _fire_certified(self, certified: CertifiedBlock) -> None:
        for hook in list(self.on_certified):
            hook(certified)

    def _record_index_cert_metrics(self, index_proof) -> None:
        if obs.enabled():
            obs.inc("issuer.index_certs_issued")
            obs.observe(
                "issuer.index_proof_bytes",
                index_proof.size_bytes(),
                boundaries=obs.SIZE_BYTES_BUCKETS,
            )

    # -- batched issuance ------------------------------------------------------

    @property
    def staged_count(self) -> int:
        """Blocks staged and awaiting :meth:`certify_staged`."""
        return len(self._staged)

    def stage_block(self, block: Block) -> None:
        """Untrusted preprocessing for the batched path (Alg. 1 lines
        2-3, pipelined).

        Validates ``block``, builds an update proof *pruned* to the
        proof-cache misses (the enclave's carried slice already proves
        the hits), ingests the index updates, and commits the block to
        the untrusted node state — so the next block can stage against
        it while the enclave is still certifying the previous batch.
        Certificates are only issued by :meth:`certify_staged`.
        """
        with obs.trace_span("issuer.stage_block"):
            result, update_proof = self.preprocess(block)
            prev = self.node.tip
            # Ship only the cache misses, a filter of validation's own
            # proofs; hits ride the enclave's carried slice.
            lookup = self.proof_cache.lookup
            update_proof = UpdateProof(
                entries=tuple(e for e in update_proof.entries if not lookup(e[0]))
            )
            misses = [key for key, _, _ in update_proof.entries]
            for key in misses:
                self.proof_cache.admit(key)

            index_updates: dict[str, IndexUpdate] = {}
            new_roots: dict[str, Digest] = {}
            for name, index in self.indexes.items():
                prev_root = self._index_roots[name]
                _writes, index_proof = index.ingest_block(block, result.write_set)
                index_updates[name] = IndexUpdate(
                    prev_root=prev_root, new_root=index.root, proof=index_proof
                )
                new_roots[name] = index.root
                self._index_roots[name] = index.root

            self._staged.append(
                StagedBlock(
                    block=block,
                    prev_block=prev,
                    item=BatchItem(
                        block=block,
                        update_proof=update_proof,
                        index_updates=index_updates,
                    ),
                    write_set=result.write_set,
                    new_index_roots=new_roots,
                    shipped_keys=frozenset(misses),
                )
            )
            self.node.state.apply_writes(result.write_set)
            self.node.blocks.append(block)
        crashpoint("issuer.stage_block.post")
        if obs.enabled():
            obs.inc("issuer.blocks_staged")
            obs.observe(
                "issuer.update_proof_bytes",
                update_proof.size_bytes(),
                boundaries=obs.SIZE_BYTES_BUCKETS,
            )

    def certify_staged(self) -> list[CertifiedBlock]:
        """Certify every staged block in ONE ecall (the tentpole batch).

        Compared with K sequential ``process_block`` calls this pays a
        single enclave transition instead of ``K * (1 + #indexes)``,
        verifies the anchor certificates once instead of per block, and
        one paging charge over the batch's *peak* per-block working set
        instead of one per ecall.  The certificates produced are
        byte-identical to the sequential path's (RFC-6979 signing over
        the same digests by the same key).
        """
        if not self._staged:
            return []
        staged = self._staged
        self._staged = []
        anchor = staged[0].prev_block
        anchor_index_certs = dict(self._index_certs)
        items = tuple(entry.item for entry in staged)
        # Reconcile the enclave's slice with the LRU mirror: everything
        # the enclave covers (or will after merging this batch's shipped
        # proofs) that the mirror has since evicted must be forgotten.
        merged = set().union(*(entry.shipped_keys for entry in staged))
        mirror = self.proof_cache.keys()
        evict = tuple(sorted((self._enclave_keys | merged) - mirror))
        peak_payload = max(item.payload_bytes() for item in items)
        crashpoint("issuer.certify_staged.pre")
        try:
            with obs.trace_span("issuer.certify_staged"):
                signatures = self.enclave.ecall(
                    "sig_gen_batch",
                    anchor,
                    self.latest_certificate,
                    anchor_index_certs,
                    items,
                    evict,
                    payload_bytes=peak_payload,
                )
        except Exception:
            # The enclave discarded its carried slice; drop the mirror
            # so the next batch ships full proofs again.
            self.proof_cache.clear()
            self._enclave_keys.clear()
            raise
        crashpoint("issuer.certify_staged.post")
        self._enclave_keys = mirror

        results: list[CertifiedBlock] = []
        for entry, (sig, index_sigs) in zip(staged, signatures):
            block = entry.block
            certificate = Certificate(
                pk_enc=self.pk_enc,
                report=self.report,
                dig=block_digest(block.header),
                sig=sig,
            )
            certified = CertifiedBlock(
                block=block,
                certificate=certificate,
                write_set=dict(entry.write_set),
            )
            for name, index_sig in index_sigs.items():
                new_root = entry.new_index_roots[name]
                cert = Certificate(
                    pk_enc=self.pk_enc,
                    report=self.report,
                    dig=index_digest(block.header, new_root),
                    sig=index_sig,
                )
                self._index_certs[name] = cert
                certified.index_certificates[name] = cert
                certified.index_roots[name] = new_root
                self._record_index_cert_metrics(entry.item.index_updates[name].proof)
            self.latest_certificate = certificate
            self.certified.append(certified)
            self._fire_certified(certified)
            results.append(certified)

        if obs.enabled():
            batch = len(staged)
            saved = batch * (1 + len(self.indexes)) - 1
            obs.inc("issuer.certs_issued", batch)
            obs.inc("issuer.batches")
            obs.inc("issuer.batch_blocks", batch)
            obs.inc("issuer.batch_transitions_saved", saved)
            stats = self.proof_cache.stats()
            obs.set_gauge("issuer.proof_cache_hits", stats["hits"])
            obs.set_gauge("issuer.proof_cache_misses", stats["misses"])
            obs.set_gauge("issuer.proof_cache_hit_rate", stats["hit_rate"])
            obs.set_gauge("issuer.proof_cache_entries", stats["entries"])
            obs.observe("issuer.batch_size_blocks", batch)
            obs.observe(
                "issuer.batch_peak_payload_bytes",
                peak_payload,
                boundaries=obs.SIZE_BYTES_BUCKETS,
            )
        return results

    def issue_batch(self, blocks: list[Block]) -> list[CertifiedBlock]:
        """Stage ``blocks`` then certify them in one batch ecall.

        If a block fails validation partway through, the already-staged
        (valid, committed) prefix is still certified before the error
        propagates, so the issuer is never left with a pending queue.
        """
        try:
            for block in blocks:
                self.stage_block(block)
        except Exception:
            self.certify_staged()
            raise
        return self.certify_staged()

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
    * ``certify_range`` — submit a run of consecutive blocks for
      batched certification (one enclave ecall for the whole run);
      returns the resulting :class:`CertifiedTip` per block.

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

    def _tip_at(self, height: object) -> CertifiedTip:
        for certified in self.issuer.certified:
            if certified.block.header.height == height:
                return self._certified_tip(certified)
        raise ServiceUnavailableError(f"no certified block at height {height!r}")

    def _certify_range(self, blocks: object) -> tuple[CertifiedTip, ...]:
        """Certify a run of consecutive blocks, idempotently.

        A client retrying after an issuer crash + restore may resend
        blocks the issuer already certified (the certificates were
        durable but the response was lost).  Heights at or below the
        tip whose header hash matches the certified block are answered
        from the archive — re-certifying them would produce the exact
        same bytes anyway (deterministic signatures) — and only the
        genuinely new suffix goes through the enclave.
        """
        if not isinstance(blocks, (list, tuple)) or not blocks:
            raise CertificateError("certify_range takes a non-empty block list")
        if not all(isinstance(block, Block) for block in blocks):
            raise CertificateError("certify_range takes Block objects")
        replayed: list[CertifiedTip] = []
        fresh: list[Block] = []
        certified_at = {
            entry.block.header.height: entry for entry in self.issuer.certified
        }
        for block in blocks:
            if fresh:
                fresh.append(block)
                continue
            existing = certified_at.get(block.header.height)
            if (
                existing is not None
                and existing.block.header.header_hash()
                == block.header.header_hash()
            ):
                replayed.append(self._certified_tip(existing))
            else:
                fresh.append(block)
        if fresh and self.issuer.staged_count:
            # Recovery resumed a staged batch the crash interrupted; if
            # the retry re-sends exactly those blocks, finish the batch
            # instead of staging duplicates.
            staged_hashes = [
                staged.block.header.header_hash()
                for staged in self.issuer._staged
            ]
            fresh_hashes = [
                block.header.header_hash()
                for block in fresh[: len(staged_hashes)]
            ]
            if staged_hashes == fresh_hashes:
                certified = self.issuer.certify_staged()
                replayed.extend(
                    self._certified_tip(entry) for entry in certified
                )
                fresh = fresh[len(staged_hashes) :]
        if fresh:
            certified = self.issuer.issue_batch(fresh)
            replayed.extend(self._certified_tip(entry) for entry in certified)
        return tuple(replayed)

    def _evidence(self, _argument: object) -> AttestationEvidence:
        return AttestationEvidence(
            measurement=self.issuer.measurement,
            pk_enc=self.issuer.pk_enc,
            report=self.issuer.report,
        )


def attach_lazy_proof_service(issuer: CertificateIssuer) -> None:
    """Register the Ocall the lazy certification path depends on.

    The handler serves (pre-state value, SMT proof) for any cell from
    the CI's untrusted state — the enclave verifies each response, so a
    lying handler only aborts certification.
    """

    def fetch_state_proof(key: bytes):
        return issuer.node.state.get_raw(key), issuer.node.state.prove(key)

    issuer.enclave.register_ocall("fetch_state_proof", fetch_state_proof)


def gen_cert_lazy(issuer: CertificateIssuer, block: Block) -> Certificate:
    """Alg. 1 with the lazy (Ocall-per-cell) enclave path.

    Requires :func:`attach_lazy_proof_service`.  Does not commit the
    block; exists for the Ecall/Ocall design-space ablation.
    """
    issuer.node.validate_block(block)
    sig = issuer.enclave.ecall(
        "sig_gen_lazy",
        issuer.node.tip,
        issuer.latest_certificate,
        block,
    )
    return Certificate(
        pk_enc=issuer.pk_enc,
        report=issuer.report,
        dig=block_digest(block.header),
        sig=sig,
    )
