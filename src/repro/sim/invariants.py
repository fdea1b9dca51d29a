"""Global invariants, checked after every simulation event.

These are the paper's *system-wide* security and efficiency claims —
the properties that must hold across any interleaving of workload and
faults, not just inside one subsystem:

* **tip-monotonic** — a client's certified tip height never goes back;
* **no-unverified-adoption** — every adopted tip passes ``adopt_bundle``
  from an empty state (certificate + attestation report, each verified
  once) and names a block the honest chain actually mined at that height;
* **storage-budget** — every client holds at most the paper's ~2.97 KB;
* **oracle-identity** — every verified answer is byte-identical to a
  local, never-networked provider executing the same request;
* **cache-coherence** — every verified-answer cache entry is keyed to a
  root the client *currently* holds certified (tip advances strand
  nothing stale);
* **wal-consistent** — certificate bytes per height never change once
  observed, across any number of crash/recovery cycles, every restarted
  issuer signs under the same sealed ``pk_enc``, and at the end of the
  run a cold :func:`~repro.core.recovery.recover_issuer` from the WAL
  rebuilds the exact same certificates;
* **metrics-monotonic** — counters never decrease;
* **hub-stream-bounded** — the hub never announces beyond what the
  issuer certified;
* **deadline-honored** — no admitted request misses its propagated
  deadline by more than one service quantum (a replica that cannot
  finish in budget must refuse at admission, not serve late);
* **shed-zero-work** — shed and deadline-refused requests do zero
  provider work: typed queries the provider actually executed, plus
  replica crashes at ``query.execute.pre``, equals exactly the queries
  the serving tier admitted;
* **client-rpc-bounded** — every RPC client's response and abandoned-id
  books stay within their hard caps (no unbounded growth under floods,
  timeouts, or churn).

After a ``quiesce`` event, and only then, the liveness invariants run
too: **liveness-supervisors** (the issuer and every replica up, no
supervisor gave up), **liveness-stream** (every subscribed client on
the hub, nothing in flight, ``acked_seq`` at its ``seq``),
**liveness-tips** (every client at the certified tip) and, last since a
client behind the tier strikes every replica, **liveness-breakers**
(every gateway breaker closed).

A violation raises :class:`InvariantViolation` carrying the event index
so the runner can shrink to the smallest failing prefix and print a
replay command.
"""

from __future__ import annotations

from repro import obs
from repro.chain.genesis import make_genesis
from repro.contracts import fresh_vm
from repro.core import CertifiedTip, recover_issuer
from repro.core.certificate import VerifiedMemo
from repro.core.superlight import ClientState, adopt_bundle
from repro.net.wire import encode

from .world import SimWorld

#: The paper's client state budget (Table 4): ~2.97 KB.
PAPER_STORAGE_BUDGET_BYTES = int(2.97 * 1024)

#: Attestation reports the adoption check remembers: one world, one enclave.
_VERIFIED_REPORTS_LIMIT = 4


def certificate_bytes(
    issuer, start: int = 0
) -> dict[int, tuple[bytes, tuple[bytes, ...]]]:
    """Per-height (block cert bytes, sorted index cert bytes) from the
    ``start``-th certified block on — the byte-identity fingerprint
    ``wal-consistent`` compares."""
    return {
        certified.block.header.height: (
            certified.certificate.encode()
            if certified.certificate is not None
            else b"",
            tuple(
                certified.index_certificates[name].encode()
                for name in sorted(certified.index_certificates)
            ),
        )
        for certified in issuer.certified[start:]
    }


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
        self._pk_enc: bytes | None = None
        self._certified_seen = -1
        self._pending_adoptions: list[tuple[str, object, object]] = []
        self._anchors = None  # the trust anchors self._verified is under
        self._quiesces = 0
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
        self.liveness = [
            ("liveness-supervisors", self._check_supervisors),
            ("liveness-stream", self._check_stream),
            ("liveness-tips", self._check_caught_up),
            ("liveness-breakers", self._check_breakers),
        ]

    # -- driver --------------------------------------------------------------

    def check(self, event_index: int) -> None:
        """Run every checker; wrap the first failure with its name and
        the 0-based index of the event that exposed it.  After a
        ``quiesce`` event the liveness checkers run as well."""
        checkers = self.checkers
        if self.world.quiesces != self._quiesces:
            self._quiesces = self.world.quiesces
            checkers = checkers + self.liveness
        for name, checker in checkers:
            try:
                checker()
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
        """Monotone heights; tip *changes* queue for verification by the
        no-unverified-adoption checker that runs right after."""
        for entry in self.world.fleet:
            header = entry.client.latest_header
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
                    (entry.name, header, entry.client.latest_certificate)
                )
                self._tips[entry.name] = current

    def _check_adoptions(self) -> None:
        """Every tip change names a block of the honest chain and passes
        ``adopt_bundle`` from an empty state, with a memo of what passed."""
        world = self.world
        anchors = (world.measurement, world.ias.public_key)
        if anchors != self._anchors:  # a memo vouches for its anchors only
            self._anchors = anchors
            self._verified = VerifiedMemo(_VERIFIED_REPORTS_LIMIT)
        pending, self._pending_adoptions = self._pending_adoptions, []
        mined = world.builder.blocks
        for name, header, certificate in pending:
            assert certificate is not None, f"{name} adopted a tip with no cert"
            assert header.height < len(mined), (
                f"{name} adopted height {header.height}, beyond the honest chain"
            )
            honest = mined[header.height].header.header_hash()
            assert header.header_hash() == honest, (
                f"{name} adopted a header the honest chain never mined "
                f"at height {header.height}"
            )
            try:
                adopt_bundle(world.measurement, world.ias.public_key, ClientState(),
                             CertifiedTip(header, certificate, {}, {}), self._verified)
            except Exception as exc:  # any failure means unverified adoption
                raise AssertionError(
                    f"{name}'s adopted certificate fails verification: {exc!r}"
                ) from exc

    def _check_storage(self) -> None:
        for entry in self.world.fleet:
            used = entry.client.storage_bytes()
            assert used <= PAPER_STORAGE_BUDGET_BYTES, (
                f"{entry.name} stores {used} bytes "
                f"(budget {PAPER_STORAGE_BUDGET_BYTES})"
            )

    def _check_answers(self) -> None:
        for request, encoded in self.world.drain_answers():
            honest = self.world.oracle.execute(request)
            assert encoded == encode(honest), (
                f"verified answer for {request!r} differs from honest "
                "local execution"
            )

    def _check_cache(self) -> None:
        for entry in self.world.fleet:
            held = entry.client.state.indexes.values()
            roots = {root for _height, root, _cert in held}
            for (_request, root) in entry.client.cache._entries:
                assert root in roots, (
                    f"{entry.name} caches an answer under a root it no "
                    "longer holds certified"
                )

    def _check_certificates(self) -> None:
        """Certificate bytes per height are write-once, and the sealed
        signing key is one key, across crashes."""
        world = self.world
        issuer_id = id(world.issuer)
        count = len(world.issuer.certified)
        if issuer_id == self._issuer_seen and count == self._certified_seen:
            return  # nothing issued or recovered since the last check
        if issuer_id != self._issuer_seen:
            pk_enc = world.issuer.pk_enc.to_bytes()
            if self._pk_enc is None:
                self._pk_enc = pk_enc
            assert pk_enc == self._pk_enc, (
                "pk_enc changed across a restart (the sealed key was lost)"
            )
        # A restarted issuer is read whole (archived heights from the
        # WAL); the same issuer again, every height it still holds in
        # memory (an in-place edit shows while the entry is held) and any
        # it added since.  finish() reads the whole chain again.
        start = 0
        if issuer_id == self._issuer_seen:
            start = min(self._certified_seen, world.issuer.certified.dropped)
        for height, fingerprint in certificate_bytes(world.issuer, start).items():
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
        """Shed and deadline-refused requests cost the provider nothing:
        its executions, plus admitted requests whose replica died at
        ``query.execute.pre``, equal the admitted invocations exactly."""
        admitted = sum(
            replica.server.invocations.get("execute", 0)
            for replica in self.world.replicas.values()
        )
        executed = self.world.provider.executes
        if executed == admitted:  # no crash to count: the common case
            return
        crashed = sum(supervisor.crashes_at.get("query.execute.pre", 0)
                      for supervisor in self.world.replica_supervisors.values())
        assert executed + crashed == admitted, (
            f"provider executed {executed} queries ({crashed} crashed before "
            f"it) but the tier admitted {admitted} — refused requests did work"
        )

    def _check_rpc_bounds(self) -> None:
        """No RPC book grows without bound: stored responses and
        abandoned-id sets stay within their class-level caps, across
        floods, abandons, timeouts, and client churn."""
        books = [("miner", self.world.miner), ("loadgen", self.world.load)]
        for entry in self.world.fleet:
            books.append((entry.name, entry.client.rpc))
            books.append((f"{entry.name}.gateway", entry.client.gateway.rpc))
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

    # -- liveness, after a quiesce ------------------------------------------

    def _check_supervisors(self) -> None:
        world = self.world
        for name, supervisor in [("ci", world.supervisor),
                                 *world.replica_supervisors.items()]:
            assert not (supervisor.gave_up or supervisor.service.server.paused), (
                f"{name} is down ({supervisor.restarts} restarts, gave up: "
                f"{supervisor.gave_up})"
            )

    def _check_stream(self) -> None:
        # An unsubscribe whose call was lost leaves the client on the hub
        # until its lease ends: only subscribed clients are held to it.
        hub = self.world.hub
        for entry in self.world.fleet:
            if not entry.client.subscribed:
                continue
            state = hub.subscribers.get(entry.client.rpc.name)
            assert state is not None, f"{entry.name} is not on the hub"
            assert state.inflight == 0 and state.acked_seq == hub.seq, (
                f"{entry.name} has push {state.inflight} in flight and "
                f"acked {state.acked_seq} of the hub's {hub.seq}"
            )

    def _check_caught_up(self) -> None:
        tip = self.world.certified_height()
        for entry in self.world.fleet:
            header = entry.client.latest_header
            height = 0 if header is None else header.height
            assert height == tip, f"{entry.name} is at h{height}, not h{tip}"

    def _check_breakers(self) -> None:
        for entry in self.world.fleet:
            replicas = entry.client.gateway.replicas.values()
            opened = [state.name for state in replicas if not state.closed]
            assert not opened, f"{entry.name}'s gateway still shuns {opened}"


# -- canaries ----------------------------------------------------------------
#
# Deliberately-wrong invariants used to prove the harness *catches*
# violations, shrinks them, and prints a working replay command.  Each
# entry maps a name to (description, checker factory).

def _canary_height_cap(suite: InvariantSuite):
    cap = suite.world.config.premine + 1

    def check() -> None:
        for entry in suite.world.fleet:
            header = entry.client.latest_header
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
