"""Global invariants, checked after every simulation event.

These are the paper's *system-wide* security and efficiency claims —
the properties that must hold across any interleaving of workload and
faults, not just inside one subsystem:

* **tip-monotonic** — a client's certified tip height never goes back;
* **no-unverified-adoption** — every adopted tip re-verifies from
  scratch (fresh verifier, certificate + attestation report) and names
  a block the honest chain actually mined at that height;
* **storage-budget** — every client holds at most the paper's ~2.97 KB;
* **oracle-identity** — every verified answer is byte-identical to a
  local, never-networked provider executing the same request;
* **cache-coherence** — every verified-answer cache entry is keyed to a
  root the client *currently* holds certified (tip advances strand
  nothing stale);
* **wal-consistent** — certificate bytes per height never change once
  observed, across any number of crash/recovery cycles, and at the end
  of the run a cold :func:`~repro.core.recovery.recover_issuer` from
  the WAL rebuilds the exact same certificates;
* **metrics-monotonic** — counters never decrease;
* **hub-stream-bounded** — the hub never announces beyond what the
  issuer certified;
* **deadline-honored** — no admitted request misses its propagated
  deadline by more than one service quantum (a replica that cannot
  finish in budget must refuse at admission, not serve late);
* **shed-zero-work** — shed and deadline-refused requests do zero
  provider work: typed queries the provider actually executed equals
  exactly the queries the serving tier admitted;
* **client-rpc-bounded** — every RPC client's response and abandoned-id
  books stay within their hard caps (no unbounded growth under floods,
  timeouts, or churn).

A violation raises :class:`InvariantViolation` carrying the event index
so the runner can shrink to the smallest failing prefix and print a
replay command.
"""

from __future__ import annotations

from repro import obs
from repro.chain.genesis import make_genesis
from repro.contracts import fresh_vm
from repro.core.recovery import recover_issuer
from repro.core.superlight import SuperlightClient
from repro.fault.chaos import certificate_bytes
from repro.net.wire import encode

from .world import KIND_GATEWAY, SimWorld

#: The paper's client state budget (Table 4): ~2.97 KB.
PAPER_STORAGE_BUDGET_BYTES = int(2.97 * 1024)


class InvariantViolation(AssertionError):
    """One named global invariant failed after one event."""

    def __init__(self, name: str, event_index: int, detail: str) -> None:
        self.name = name
        self.event_index = event_index
        self.detail = detail
        super().__init__(
            f"invariant {name!r} violated after event {event_index}: {detail}"
        )


class InvariantSuite:
    """Stateful checkers over one :class:`~repro.sim.world.SimWorld`."""

    def __init__(self, world: SimWorld, canary: str | None = None) -> None:
        self.world = world
        self._tips: dict[str, tuple[int, bytes]] = {}
        self._cert_fps: dict[int, tuple[bytes, tuple[bytes, ...]]] = {}
        self._counters: dict[str, float] = {}
        self._issuer_seen: int | None = None
        self._certified_seen = -1
        self._pending_adoptions: list[tuple[str, object, object]] = []
        self.checkers = [
            ("tip-monotonic", self._check_tips),
            ("no-unverified-adoption", self._check_adoptions),
            ("storage-budget", self._check_storage),
            ("oracle-identity", self._check_answers),
            ("cache-coherence", self._check_cache),
            ("wal-consistent", self._check_certificates),
            ("metrics-monotonic", self._check_counters),
            ("hub-stream-bounded", self._check_hub),
            ("deadline-honored", self._check_deadlines),
            ("shed-zero-work", self._check_shedding),
            ("client-rpc-bounded", self._check_rpc_bounds),
        ]
        if canary is not None:
            self.checkers.append((canary, CANARIES[canary][1](self)))

    # -- driver --------------------------------------------------------------

    def check(self, event_index: int) -> None:
        """Run every checker; wrap the first failure with its name and
        the 0-based index of the event that exposed it."""
        for name, checker in self.checkers:
            try:
                checker()
            except InvariantViolation:
                raise
            except AssertionError as exc:
                raise InvariantViolation(name, event_index, str(exc)) from exc

    def finish(self, event_count: int) -> None:
        """End-of-run: cold-recover the issuer from the WAL and require
        byte-identical certificates for every certified height."""
        world = self.world
        config = world.config
        genesis, state = make_genesis(network=config.network)
        recovered = recover_issuer(
            world.archive, genesis, state, fresh_vm(), world.builder.pow,
            index_specs=world.specs, platform=world.platform, ias=world.ias,
            checkpoint_interval=config.checkpoint_interval,
        )
        live = certificate_bytes(world.issuer)
        cold = certificate_bytes(recovered)
        if live != cold:
            raise InvariantViolation(
                "wal-consistent", event_count,
                "cold recovery from the WAL diverged from the live issuer "
                f"(live heights {sorted(live)}, recovered {sorted(cold)})",
            )

    # -- checkers ------------------------------------------------------------

    def _check_tips(self) -> None:
        """Monotone heights; tip *changes* queue for cold verification
        by the no-unverified-adoption checker that runs right after."""
        for entry in self.world.fleet:
            inner = entry.client.client
            header = inner.latest_header
            if header is None:
                assert entry.name not in self._tips, (
                    f"{entry.name} lost its adopted tip"
                )
                continue
            current = (header.height, header.header_hash())
            previous = self._tips.get(entry.name)
            if previous is not None:
                assert current[0] >= previous[0], (
                    f"{entry.name} tip went back: "
                    f"{previous[0]} -> {current[0]}"
                )
            if previous != current:
                self._pending_adoptions.append(
                    (entry.name, header, inner.latest_certificate)
                )
                self._tips[entry.name] = current

    def _check_adoptions(self) -> None:
        """Every tip change re-verifies from scratch: fresh verifier,
        full certificate + attestation check, honest-chain membership."""
        pending, self._pending_adoptions = self._pending_adoptions, []
        for name, header, certificate in pending:
            self._verify_adoption(name, header, certificate)

    def _verify_adoption(self, name: str, header, certificate) -> None:
        assert certificate is not None, f"{name} adopted a tip with no cert"
        mined = self.world.builder.blocks
        assert header.height < len(mined), (
            f"{name} adopted height {header.height}, beyond the honest chain"
        )
        honest = mined[header.height].header.header_hash()
        assert header.header_hash() == honest, (
            f"{name} adopted a header the honest chain never mined "
            f"at height {header.height}"
        )
        verifier = SuperlightClient(
            self.world.measurement, self.world.ias.public_key
        )
        try:
            verifier.validate_chain(header, certificate)
        except Exception as exc:  # any failure means unverified adoption
            raise AssertionError(
                f"{name}'s adopted certificate fails fresh verification: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def _check_storage(self) -> None:
        for entry in self.world.fleet:
            used = entry.client.storage_bytes()
            assert used <= PAPER_STORAGE_BUDGET_BYTES, (
                f"{entry.name} stores {used} bytes "
                f"(budget {PAPER_STORAGE_BUDGET_BYTES})"
            )

    def _check_answers(self) -> None:
        for request, answer in self.world.drain_answers():
            honest = self.world.oracle.execute(request)
            assert encode(answer) == encode(honest), (
                f"verified answer for {request!r} differs from honest "
                "local execution"
            )

    def _check_cache(self) -> None:
        for entry in self.world.fleet:
            if entry.kind != KIND_GATEWAY:
                continue
            cache = getattr(entry.client, "cache", None)
            if cache is None:
                continue
            held = entry.client.client.state.indexes.values()
            roots = {root for _height, root, _cert in held}
            for (_request_bytes, root) in cache._entries:
                assert root in roots, (
                    f"{entry.name} caches an answer under a root it no "
                    "longer holds certified"
                )

    def _check_certificates(self) -> None:
        """Certificate bytes per height are write-once, across crashes."""
        world = self.world
        issuer_id = id(world.issuer)
        count = len(world.issuer.certified)
        if issuer_id == self._issuer_seen and count == self._certified_seen:
            return  # nothing issued or recovered since the last check
        current = certificate_bytes(world.issuer)
        for height, fingerprint in current.items():
            seen = self._cert_fps.get(height)
            if seen is None:
                self._cert_fps[height] = fingerprint
            else:
                assert seen == fingerprint, (
                    f"certificate bytes changed at height {height} "
                    "(recovery re-issued different bytes)"
                )
        self._issuer_seen = issuer_id
        self._certified_seen = count

    def _check_counters(self) -> None:
        snapshot = obs.registry().snapshot()["counters"]
        for name, value in snapshot.items():
            assert value >= self._counters.get(name, 0), (
                f"counter {name} decreased"
            )
        self._counters.update(snapshot)

    def _check_hub(self) -> None:
        world = self.world
        assert world.hub.seq <= len(world.issuer.certified), (
            f"hub announced seq {world.hub.seq} beyond the "
            f"{len(world.issuer.certified)} certified blocks"
        )

    def _check_deadlines(self) -> None:
        """Admission is the only place lateness is allowed to appear:
        once a deadline-carrying request is admitted, the busy-worker
        model must finish it within budget (plus one service quantum of
        slack).  A nonzero violation counter means a replica accepted
        work it was doomed to serve late."""
        for name, replica in self.world.replicas.items():
            late = replica.server.deadline_violations
            assert late == 0, (
                f"replica {name} finished {late} admitted request(s) past "
                "their propagated deadline"
            )

    def _check_shedding(self) -> None:
        """Shed and deadline-refused requests must cost the provider
        nothing: the provider's typed-query executions track the
        serving tier's admitted ``execute`` invocations exactly."""
        admitted = sum(
            replica.server.invocations.get("execute", 0)
            for replica in self.world.replicas.values()
        )
        executed = self.world.provider.executes
        assert executed == admitted, (
            f"provider executed {executed} queries but the serving tier "
            f"admitted {admitted} — refused requests did provider work"
        )

    def _check_rpc_bounds(self) -> None:
        """No RPC book grows without bound: stored responses and
        abandoned-id sets stay within their class-level caps, across
        floods, abandons, timeouts, and client churn."""
        books = [("miner", self.world.miner), ("loadgen", self.world.load)]
        for entry in self.world.fleet:
            books.append((entry.name, entry.client.rpc))
            if entry.gateway is not None:
                books.append((f"{entry.name}.gateway", entry.gateway.rpc))
        for name, rpc in books:
            held = len(rpc._responses)
            assert held <= rpc.RESPONSES_LIMIT, (
                f"{name} holds {held} stored responses "
                f"(cap {rpc.RESPONSES_LIMIT})"
            )
            abandoned = len(rpc._abandoned)
            assert abandoned <= rpc.ABANDONED_LIMIT, (
                f"{name} tracks {abandoned} abandoned ids "
                f"(cap {rpc.ABANDONED_LIMIT})"
            )


# -- canaries ----------------------------------------------------------------
#
# Deliberately-wrong invariants used to prove the harness *catches*
# violations, shrinks them, and prints a working replay command.  Each
# entry maps a name to (description, checker factory).

def _canary_height_cap(suite: InvariantSuite):
    cap = suite.world.config.premine + 1

    def check() -> None:
        for entry in suite.world.fleet:
            header = entry.client.client.latest_header
            height = header.height if header is not None else 0
            assert height <= cap, (
                f"canary: {entry.name} passed the height cap "
                f"({height} > {cap})"
            )
    return check


def _canary_low_storage(suite: InvariantSuite):
    def check() -> None:
        for entry in suite.world.fleet:
            used = entry.client.storage_bytes()
            assert used <= 1024, (
                f"canary: {entry.name} stores {used} bytes (> 1 KB)"
            )
    return check


CANARIES = {
    "height-cap": (
        "clients must never pass premine+1 (fires on the first "
        "certify/adopt past the opening stretch)",
        _canary_height_cap,
    ),
    "low-storage": (
        "clients must fit 1 KB (fires as soon as any client adopts)",
        _canary_low_storage,
    ),
}
