"""What the runner needs from a workload."""

from __future__ import annotations

from pathlib import Path

from clock import Clock


class Workload:
    """One world plus the closed loop of operations run against it.

    The runner builds a fresh instance per set-up repetition, calls
    :meth:`setup` once, :meth:`round` until the budget is spent, then
    :meth:`check`.  A *round* is the smallest unit with the workload's
    full operation mix in fixed proportions, so that a time-bounded run
    always ends on the same mix whatever the seed.
    """

    name = ""
    #: The tail percentile reported as ``op_tail_ms``: the highest of
    #: p90/p95/p99 that keeps at least ten samples beyond it at this
    #: workload's size.
    tail_pct = 90
    ops_per_round = 1
    #: Rounds of the fixed-count mode (sized for about twelve measured
    #: seconds on the reference host); ``--smoke`` runs a tenth.
    full_rounds = 1
    #: Expected wall seconds outside the measured phase (set-ups, checks),
    #: which the watchdog ceiling is derived from.
    overhead_s = 10.0
    #: Sizes of the standalone trees the merkle layer is replayed on:
    #: state cells, accounts, versions per account.
    merkle_sizes = (256, 64, 64)

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self, clock: Clock) -> None:
        raise NotImplementedError

    def round(self, clock: Clock, index: int) -> None:
        raise NotImplementedError

    def check(self, clock: Clock) -> dict:
        """Verify the outputs; returns facts worth printing (fingerprints).
        Raises :class:`clock.CheckFailed` when an output is wrong."""
        raise NotImplementedError

    def virtual_ms(self) -> float:
        """The bus's virtual clock (0 for a world without a bus)."""
        return 0.0

    def client_storage_bytes(self) -> int:
        """Largest ``storage_bytes()`` over every client held at the end."""
        raise NotImplementedError

    # Every world (a ``worlds.Deployment`` or a ``SimWorld``) is kept as
    # ``self.world`` and names these the same way.

    def issuer(self):
        """The (current) certificate issuer of the world."""
        return self.world.issuer

    def index_specs(self) -> list:
        return self.world.specs

    def trust_anchors(self) -> tuple:
        """(expected measurement, IAS public key): what a client pins."""
        return self.world.measurement, self.world.ias.public_key

    def close(self) -> None:
        """Release what :meth:`setup` opened."""

    def begin_trace(self, clock: Clock) -> None:
        """Called before the traced run's first round."""

    def layer_metrics(self, clock: Clock, ops: int) -> dict[str, float]:
        """Per-layer metrics this workload's traced run can supply."""
        return {}
