"""Supervised service restart: crash detection + state restore.

A production CI or SP is a process under a supervisor (systemd, k8s,
...): it crashes, the supervisor restarts it, and — because the signing
key is sealed and the archive is durable — it comes back as the *same*
endpoint, so clients keep their verified attestation and simply call
again.  :class:`ServiceSupervisor` models that loop on the
virtual-clock bus for any RPC-fronted service:

* every RPC handler of the supervised service is wrapped: a
  :class:`~repro.fault.crashpoints.SimulatedCrash` escaping a handler
  marks the process dead — the in-flight request is dropped with no
  reply (a dead host does not send error responses) and the endpoint is
  paused so subsequent requests vanish the same way;
* restart attempts are scheduled on the bus, at most
  :attr:`ServiceSupervisor.RESTART_ATTEMPTS` of them, the delay
  doubling from :attr:`ServiceSupervisor.RESTART_DELAY_MS`; each
  attempt calls the supplied ``restore`` callable (typically
  :func:`repro.core.recovery.recover_issuer` over the CI's archive, or
  a provider re-sync for an SP replica);
* on success the restored backing object is swapped into the service
  and the endpoint unpaused, mid-conversation — a client whose call
  timed out against the dead endpoint calls the restarted one next, and
  a :class:`~repro.net.gateway.QueryGateway` that health-routed around
  the dead replica probes it back into rotation.

The bus does not allow a name to be re-joined, which is exactly the
semantics we want anyway: the *endpoint* (address) survives, the
process behind it is replaced.
"""

from __future__ import annotations

from typing import Callable

from repro import obs
from repro.fault.crashpoints import SimulatedCrash
from repro.net.rpc import DropRequest


class ServiceSupervisor:
    """Watches an RPC-fronted service; restores its crashed backing
    object (issuer, provider, ...) and brings the endpoint back.

    The ``restore`` callable rebuilds the service's ``issuer`` (the
    :class:`~repro.core.issuer.IssuerService` shape) or, failing that,
    its ``provider`` (the :class:`~repro.query.provider.QueryService`
    shape).
    """

    #: Restart tries before giving up, and the delay before the first
    #: (each later one doubles it).
    RESTART_ATTEMPTS = 5
    RESTART_DELAY_MS = 40.0

    def __init__(self, service, restore: Callable[[], object]) -> None:
        self.service = service
        self.restore = restore
        self.target_attr = (
            "issuer" if hasattr(service, "issuer") else "provider"
        )
        if not hasattr(service, self.target_attr):
            raise TypeError(
                f"service {type(service).__name__} has no attribute "
                f"{self.target_attr!r} to supervise"
            )
        self.crashes = 0
        #: Crashes per crashpoint name.
        self.crashes_at: dict[str, int] = {}
        self.restarts = 0
        self.failed_attempts = 0
        self.gave_up = False
        self.last_crash: SimulatedCrash | None = None
        server = service.server
        for method, handler in list(server._methods.items()):
            server._methods[method] = self._guard(handler)

    # -- crash detection -----------------------------------------------------

    def _guard(self, handler):
        def guarded(argument):
            try:
                return handler(argument)
            except SimulatedCrash as crash:
                self._on_crash(crash)
                # A dying process sends nothing; the client times out
                # and calls again, by which time we may be back.
                raise DropRequest() from None

        return guarded

    def _on_crash(self, crash: SimulatedCrash) -> None:
        self.crashes += 1
        self.crashes_at[crash.point] = self.crashes_at.get(crash.point, 0) + 1
        self.last_crash = crash
        self.service.server.paused = True
        obs.inc("supervisor.crashes")
        obs.set_gauge("supervisor.endpoint_up", 0)
        self._schedule_attempt(0)

    # -- restart loop --------------------------------------------------------

    def _schedule_attempt(self, attempt: int) -> None:
        self.service.server.bus.schedule(
            self.RESTART_DELAY_MS * 2**attempt,
            lambda: self._try_restart(attempt),
        )

    def _try_restart(self, attempt: int) -> None:
        if self.gave_up or not self.service.server.paused:
            return
        try:
            restored = self.restore()
        except Exception:
            self.failed_attempts += 1
            obs.inc("supervisor.restart_failures")
            if attempt + 1 >= self.RESTART_ATTEMPTS:
                self.gave_up = True
                obs.inc("supervisor.gave_up")
            else:
                self._schedule_attempt(attempt + 1)
            return
        setattr(self.service, self.target_attr, restored)
        self.service.server.paused = False
        self.restarts += 1
        if obs.enabled():
            obs.inc("supervisor.restarts")
            obs.set_gauge("supervisor.endpoint_up", 1)
            obs.set_gauge("supervisor.restart_attempts_last", attempt + 1)
