"""World building shared by the workloads, through the public API only.

A :class:`Deployment` is the part every non-sim workload has in common:
a seeded transaction generator, a chain being mined, and a certificate
issuer (enclave launched and attested) certifying it.  Each step that
builds the world is run through ``clock.timed("setup", ...)`` so set-up
time is normalised exactly like operation time.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.bench.harness import fresh_vm
from repro.bench.params import BenchParams
from repro.bench.workloadgen import WorkloadGenerator
from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.core import (
    CertificateIssuer,
    ClientConfig,
    DurableIssuer,
    compute_expected_measurement,
    connect,
)
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    BalanceAggregateIndexSpec,
    KeywordIndexSpec,
    ValueRangeIndexSpec,
)
from repro.sgx.attestation import AttestationService
from repro.sgx.costs import SGXCostModel
from repro.sgx.platform import SGXPlatform
from repro.storage import ChainArchive

from clock import CheckFailed, Clock

NETWORK = "perf-bench"

#: Sender / SmallBank accounts (the generator's quick-profile default).
ACCOUNTS = 64

_SPEC_FACTORIES = {
    "history": AccountHistoryIndexSpec,
    "keyword": KeywordIndexSpec,
    "aggregate": BalanceAggregateIndexSpec,
    "range": ValueRangeIndexSpec,
}


def make_specs(names: tuple[str, ...]) -> list:
    return [_SPEC_FACTORIES[name](name=name) for name in names]


def ledgered_cost_model() -> SGXCostModel:
    """Modeled SGX charges are written to the ledger but never
    busy-waited: wall time here is measured, not modeled."""
    return SGXCostModel(spend_time=False)


class Deployment:
    """Generator + chain + issuer, built step by step on a clock."""

    def __init__(
        self,
        clock: Clock,
        seed: int,
        index_names: tuple[str, ...],
        *,
        wal_dir: Path | None = None,
        checkpoint_interval: int = 0,
    ) -> None:
        self.clock = clock
        self.params = BenchParams(name="perf", num_accounts=ACCOUNTS)
        self.specs = make_specs(index_names)
        self.generator = clock.timed(
            "setup", WorkloadGenerator, self.params, seed=seed
        )
        self.builder = ChainBuilder(
            difficulty_bits=self.params.difficulty_bits,
            state_depth=self.params.state_depth,
            network=NETWORK,
        )
        self.ias = AttestationService(seed=b"perf-ias")
        self.platform = SGXPlatform(seed=b"perf-platform")
        self.archive = (
            ChainArchive(wal_dir / "ci.wal") if wal_dir is not None else None
        )
        self.checkpoint_interval = checkpoint_interval
        # Enclave launch: measurement of the program source, key
        # derivation and remote attestation all happen in construction.
        self.issuer = clock.timed("setup", self._launch_issuer)
        self.measurement = clock.timed(
            "setup",
            compute_expected_measurement,
            self.genesis()[0].header.header_hash(),
            self.ias.public_key,
            fresh_vm(),
            self.builder.pow.difficulty_bits,
            {spec.name: spec for spec in self.specs},
        )

    def genesis(self):
        return make_genesis(
            network=NETWORK, state_depth=self.params.state_depth
        )

    def _launch_issuer(self):
        genesis, state = self.genesis()
        common = dict(
            index_specs=self.specs,
            platform=self.platform,
            ias=self.ias,
            cost_model=ledgered_cost_model(),
            key_seed=b"perf-enclave",
        )
        if self.archive is None:
            return CertificateIssuer(
                genesis, state, fresh_vm(), self.builder.pow, **common
            )
        return DurableIssuer.create(
            self.archive, genesis, state, fresh_vm(), self.builder.pow,
            checkpoint_interval=self.checkpoint_interval, **common,
        )

    # -- growing the chain ---------------------------------------------------

    def mine(self, transactions):
        block, _result = self.builder.add_block(transactions)
        return block

    def setup_block(self, transactions, *sinks):
        """Mine, certify and hand one set-up block to ``sinks`` (the
        providers that ingest it), each step timed as set-up."""
        timed = self.clock.timed
        block = timed("setup", self.mine, transactions)
        timed("setup", self.issuer.process_block, block)
        for sink in sinks:
            timed("setup", sink.ingest_block, block)
        return block

    @property
    def height(self) -> int:
        return self.builder.height

    # -- clients -------------------------------------------------------------

    def client_config(self, **overrides) -> ClientConfig:
        return ClientConfig(
            measurement=self.measurement,
            ias_public_key=self.ias.public_key,
            **overrides,
        )

    def checker(self):
        """A fresh local client that validates the issuer's final tip and
        every index certificate -- the cold Alg. 3 path, as a check."""
        return checked_client(self.measurement, self.ias.public_key, self.issuer)


def checked_client(measurement, ias_public_key, issuer):
    client = connect(
        ClientConfig(measurement=measurement, ias_public_key=ias_public_key)
    )
    tip = issuer.certified[-1]
    header = tip.block.header
    if not client.validate_chain(header, tip.certificate):
        raise CheckFailed("checker client did not adopt the final tip")
    for name, certificate in tip.index_certificates.items():
        if not client.validate_index_certificate(
            name, header, tip.index_roots[name], certificate
        ):
            raise CheckFailed(f"checker did not adopt index certificate {name!r}")
    return client


def certificate_fingerprint(issuer) -> str:
    """SHA-256 over every certificate the issuer produced, in order."""
    digest = hashlib.sha256()
    for certified in issuer.certified:
        digest.update(certified.certificate.encode())
        for name in sorted(certified.index_certificates):
            digest.update(certified.index_certificates[name].encode())
    return digest.hexdigest()
