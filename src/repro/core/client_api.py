"""One entry point for building a light client.

There is one client, :class:`~repro.core.superlight.SuperlightClient`.
Built with just its trust anchors it validates tips and answers handed
to it in-process; given a :class:`ClientConfig` with a bus it also
syncs, follows a hub's push stream and queries over the network.
Construction goes through one factory::

    from repro.core.client_api import ClientConfig, connect

    client = connect(ClientConfig(
        measurement=measurement,
        ias_public_key=ias.public_key,
        bus=bus, name="wallet",
        issuers=("ci",), gateway=gateway, hub="ci",
        bootstrap=True, subscribe=True,
    ))

:func:`connect` builds every client shape uniformly — local
(``bus=None``), remote tip-only, remote gateway-fronted, and
subscribing.  An in-process caller that wants every tip its own issuer
certifies registers
``issuer.on_certified.append(lambda certified: client.adopt(certified.tip))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.crypto import PublicKey
from repro.crypto.hashing import Digest
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.core.superlight import SuperlightClient


@dataclass(frozen=True, slots=True)
class ClientConfig:
    """Everything needed to build any light-client shape.

    ``measurement`` and ``ias_public_key`` are the trust anchors every
    client needs.  ``bus=None`` builds an in-process client; with a bus
    the client queries through its ``gateway`` (one replica is a fleet
    of one; with none it keeps the tip only: no index root).  ``hub``
    names a :class:`~repro.net.pubsub.SubscriptionHub` for push sync.
    """

    measurement: Digest
    ias_public_key: PublicKey
    # -- transport (remote modes) --
    bus: object | None = None
    name: str = "client"
    issuers: tuple[str, ...] = ()
    gateway: object | None = None
    hub: str | None = None
    cache_capacity: int = 128
    # -- overload resilience (remote modes) --
    #: Serve a previously-verified answer flagged ``stale=True`` when
    #: the whole serving tier sheds or the deadline budget runs out,
    #: instead of raising.  Off by default: staleness is an explicit
    #: opt-in (see docs/overload.md for the contract).
    degrade_to_stale: bool = False
    # -- post-construction steps --
    bootstrap: bool = False
    subscribe: bool = False

    def validate(self) -> None:
        if self.bus is not None and not self.issuers:
            raise ConfigError("a remote client needs at least one issuer")
        if self.bus is None and (self.gateway or self.hub):
            raise ConfigError("gateway/hub are remote-mode settings; pass a bus")
        if self.subscribe and self.hub is None:
            raise ConfigError("subscribe=True needs a hub endpoint")
        if self.cache_capacity < 1:
            raise ConfigError(
                f"cache_capacity must be at least 1, got {self.cache_capacity}"
            )


def connect(config: ClientConfig) -> SuperlightClient:
    """Build (and optionally bootstrap + subscribe) a light client.

    The canonical entry point: every client shape — local, remote
    tip-only, remote gateway-fronted, subscribing — comes out of
    this one factory, already wired per ``config``.
    """
    from repro.core.superlight import SuperlightClient

    config.validate()
    if config.bus is None:
        return SuperlightClient(config.measurement, config.ias_public_key)
    client = SuperlightClient(config.measurement, config.ias_public_key, config)
    if config.bootstrap:
        client.sync()
    if config.subscribe:
        client.subscribe()
    return client
