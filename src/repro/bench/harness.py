"""Measurement harness: grow chains and certify them with timing splits.

The central object is :class:`CertifiedChainHarness`: it owns a miner
(producing blocks from a workload generator) and a CI (certifying each
block), and records for every certified block the breakdown the paper's
Fig. 8/9 plot:

* ``outside_s`` — untrusted pre-processing (block re-execution,
  read/write sets, Merkle proof generation; Alg. 1 lines 2-3),
* ``inside_s`` — trusted in-enclave work (Alg. 2), and
* ``enclave_overhead_s`` — the modeled enclave surcharge (transitions,
  slowdown, paging) on top.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.params import BenchParams
from repro.bench.workloadgen import WorkloadGenerator
from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.contracts import fresh_vm
from repro.core.issuer import CertificateIssuer
from repro.obs.wallclock import elapsed_s, now_s
from repro.query.indexes import AuthenticatedIndexSpec
from repro.sgx.attestation import AttestationService


@dataclass(slots=True)
class CertTimings:
    """Per-block certificate construction breakdown (seconds)."""

    total_s: float
    outside_s: float
    inside_s: float
    enclave_overhead_s: float
    update_proof_bytes: int
    ecalls: int


class CertifiedChainHarness:
    """Build-and-certify pipeline with per-block measurements."""

    def __init__(
        self,
        params: BenchParams,
        *,
        index_specs: list[AuthenticatedIndexSpec] | None = None,
        seed: int = 42,
        network: str = "bench-net",
    ) -> None:
        self.params = params
        self.generator = WorkloadGenerator(params, seed=seed)
        self.builder = ChainBuilder(
            difficulty_bits=params.difficulty_bits,
            state_depth=params.state_depth,
            network=network,
        )
        genesis, state = make_genesis(
            network=network, state_depth=params.state_depth
        )
        self.ias = AttestationService(seed=b"bench-ias")
        self.issuer = CertificateIssuer(
            genesis,
            state,
            fresh_vm(),
            self.builder.pow,
            index_specs=index_specs or [],
            ias=self.ias,
            key_seed=b"bench-enclave",
        )
        self.timings: list[CertTimings] = []

    def setup_smallbank(self) -> None:
        """Open all SmallBank accounts (one setup block)."""
        self.add_and_certify(self.generator.smallbank_setup_txs())

    def grow_workload(
        self,
        workload: str,
        num_blocks: int,
        block_size: int,
        *,
        schemes: tuple[str, ...] = ("hierarchical",),
    ) -> None:
        """Mine and certify ``num_blocks`` blocks of one workload."""
        for _ in range(num_blocks):
            self.add_and_certify(
                self.generator.block_txs(workload, block_size), schemes=schemes
            )

    def add_and_certify(
        self,
        transactions,
        *,
        schemes: tuple[str, ...] = ("hierarchical",),
    ) -> CertTimings:
        """Mine one block, certify it, and record the timing split."""
        block, _ = self.builder.add_block(transactions)
        ledger_before = self.issuer.enclave.ledger.snapshot()

        # Outside-enclave pre-processing (Alg. 1 lines 2-3), measured
        # separately so Fig. 8's breakdown is a real measurement rather
        # than a subtraction.
        started = now_s()
        result, update_proof = self.issuer.preprocess(block)
        outside_s = elapsed_s(started)

        started = now_s()
        self.issuer.process_block(
            block, schemes=schemes, precomputed=(result, update_proof)
        )
        total_s = outside_s + elapsed_s(started)

        ledger = self.issuer.enclave.ledger
        timings = CertTimings(
            total_s=total_s,
            outside_s=outside_s,
            inside_s=ledger.in_enclave_s - ledger_before.in_enclave_s,
            enclave_overhead_s=(
                ledger.total_overhead_s() - ledger_before.total_overhead_s()
            ),
            update_proof_bytes=update_proof.size_bytes(),
            ecalls=ledger.ecalls - ledger_before.ecalls,
        )
        self.timings.append(timings)
        return timings

    # -- summaries ------------------------------------------------------------

    def record(self, name: str, *, skip: int = 0) -> dict:
        """The mean timing split as a :func:`bench_record` — carries the
        metrics-registry snapshot when observability is on."""
        from dataclasses import asdict

        from repro.bench.reporting import bench_record

        return bench_record(name, asdict(self.mean_timing(skip=skip)))

    def mean_timing(self, skip: int = 0) -> CertTimings:
        """Mean of recorded timings (optionally skipping warmup blocks)."""
        samples = self.timings[skip:]
        count = max(1, len(samples))
        return CertTimings(
            total_s=sum(t.total_s for t in samples) / count,
            outside_s=sum(t.outside_s for t in samples) / count,
            inside_s=sum(t.inside_s for t in samples) / count,
            enclave_overhead_s=sum(t.enclave_overhead_s for t in samples) / count,
            update_proof_bytes=int(
                sum(t.update_proof_bytes for t in samples) / count
            ),
            ecalls=int(sum(t.ecalls for t in samples) / count),
        )
