"""certify-stream: the certificate issuer's write path (paper Fig. 8/9)."""

from __future__ import annotations

from functools import partial
from statistics import mean

from repro.core import recover_issuer
from repro.bench.harness import fresh_vm

from clock import CheckFailed, Clock
from worlds import Deployment, certificate_fingerprint, ledgered_cost_model
from workloads.base import Workload

#: Blockbench kinds, cycled so every round has the same mix.
KINDS = ("KV", "SB", "IO", "CPU")
TXS_PER_BLOCK = 4
WARM_BLOCKS = 4
CHECKPOINT_INTERVAL = 16


class CertifyStream(Workload):
    name = "certify-stream"
    tail_pct = 90
    ops_per_round = len(KINDS)
    full_rounds = 30
    overhead_s = 12.0
    merkle_sizes = (1024, 64, 64)

    def setup(self, clock: Clock) -> None:
        world = Deployment(
            clock, self.seed, ("history", "keyword"),
            wal_dir=self.scratch, checkpoint_interval=CHECKPOINT_INTERVAL,
        )
        self.world = world
        world.setup_block(world.generator.smallbank_setup_txs())
        for index in range(WARM_BLOCKS):
            world.setup_block(self._transactions(KINDS[index % len(KINDS)]))
        self._proof_bytes: list[int] = []

    def _transactions(self, kind: str):
        return self.world.generator.block_txs(kind, TXS_PER_BLOCK)

    def round(self, clock: Clock, index: int) -> None:
        certify = self._certify_in_steps if clock.tracing else self._certify
        for kind in KINDS:
            block = self.world.mine(self._transactions(kind))
            clock.op(kind, certify, clock, block)

    def _certify(self, _clock: Clock, block) -> None:
        self.world.issuer.process_block(block)

    def _certify_in_steps(self, clock: Clock, block) -> None:
        """The same operation as its public steps (Fig. 8's outside /
        inside split); ``append_record`` is spanned by begin_trace."""
        issuer = self.world.issuer
        precomputed = clock.timed(
            "core.issuer.preprocess", issuer.preprocess, block
        )
        self._proof_bytes.append(precomputed[1].size_bytes())
        clock.timed(
            "core.issuer.process_block",
            issuer.process_block, block, precomputed=precomputed,
        )

    def begin_trace(self, clock: Clock) -> None:
        archive = self.world.archive
        archive.append_record = partial(
            clock.timed, "storage.wal_append", archive.append_record
        )

    # -- outputs -------------------------------------------------------------

    def _recover(self):
        world = self.world
        genesis, state = world.genesis()
        return recover_issuer(
            world.archive, genesis, state, fresh_vm(), world.builder.pow,
            index_specs=world.specs, platform=world.platform, ias=world.ias,
            cost_model=ledgered_cost_model(),
            checkpoint_interval=CHECKPOINT_INTERVAL,
        )

    def check(self, clock: Clock) -> dict:
        world = self.world
        self._checker = world.checker()
        recovered = clock.timed("core.recovery.recover", self._recover)
        live_tip = world.issuer.certified[-1]
        recovered_tip = recovered.certified[-1]
        if recovered_tip.certificate.encode() != live_tip.certificate.encode():
            raise CheckFailed("recovered tip certificate differs from the live one")
        if recovered.node.height != world.height:
            raise CheckFailed("recovered issuer is not at the live height")
        self._recovery = recovered.last_recovery
        if clock.tracing:
            # Layer calls made once, beside the operations, for their time.
            clock.timed("storage.load", world.archive.load)
            clock.timed("core.recovery.checkpoint", world.issuer.checkpoint)
        return {"certificate_sha256": certificate_fingerprint(world.issuer)}

    def client_storage_bytes(self) -> int:
        return self._checker.storage_bytes()

    def layer_metrics(self, clock: Clock, ops: int) -> dict[str, float]:
        metrics = {
            "core.issuer.preprocess_ms":
                clock.normalised_ms_mean("core.issuer.preprocess"),
            "core.issuer.process_block_ms":
                clock.normalised_ms_mean("core.issuer.process_block"),
            "core.issuer.update_proof_bytes":
                mean(self._proof_bytes),
            "storage.wal_append_ms":
                clock.normalised_ms_mean("storage.wal_append"),
            "storage.load_ms": clock.normalised_ms_mean("storage.load"),
            "core.recovery.recover_s":
                clock.normalised_ms_mean("core.recovery.recover") / 1000.0,
            "core.recovery.replayed_blocks": self._recovery.replayed_blocks,
            "core.recovery.verified_blocks": self._recovery.verified_blocks,
            "core.recovery.checkpoint_ms":
                clock.normalised_ms_mean("core.recovery.checkpoint"),
        }
        for kind, values in clock.per_op_ms_by_kind().items():
            metrics[f"core.issuer.ms_by_kind.{kind}"] = mean(values)
        return metrics

