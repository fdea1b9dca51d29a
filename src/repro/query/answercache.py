"""Client-side cache of verified query answers.

Certificates change what a cache has to fear.  An ordinary response
cache must trust whoever filled it; here an entry is admitted only
*after* :meth:`~repro.core.superlight.SuperlightClient.verify_answer`
succeeded, and it is keyed by the typed request **plus the certified
index root the verification ran against**.  Request leaves are
exact-typed and equality compares the class, so two requests are equal
(and hash alike) exactly when their wire encodings are: a lookup encodes
nothing.  The root is the invalidation story: when the client
adopts a new certified tip the roots move, lookups start using the new
root, and every old entry silently stops matching — a cached answer can
never be served against a root it was not verified under.  Entries
stranded under superseded roots are garbage, not a hazard;
:meth:`VerifiedAnswerCache.retain_roots` sweeps them out (and counts
them) whenever the client syncs.

Capacity is LRU-bounded, and hits/misses/invalidations/evictions are
exported through :mod:`repro.obs` so the fleet benchmark can show the
warm-hit path doing zero RPC round trips.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

from repro import obs
from repro.query.api import QueryAnswer, QueryRequest


@dataclass(frozen=True, slots=True)
class StaleAnswer:
    """A previously-verified answer served while the tier is shedding.

    The graceful-degradation contract: the answer **did** pass
    ``verify_answer`` — just against ``root`` (certified at ``height``),
    not necessarily the current tip.  ``stale=True`` is the caller's
    signal that freshness, not correctness, was sacrificed; a client
    that cannot tolerate staleness simply does not opt in.
    """

    answer: QueryAnswer
    #: The certified index root the answer verified against.
    root: bytes
    #: The chain height that root was certified at (-1 when unknown).
    height: int = -1
    stale: bool = True


class VerifiedAnswerCache:
    """LRU cache of answers that passed verification at a known root."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        #: (typed request, certified root) -> verified answer.
        self._entries: OrderedDict[tuple, QueryAnswer] = OrderedDict()
        #: Sidecar for graceful degradation, keyed by the request
        #: alone: the most recent verified answer for each request,
        #: *kept* when roots advance (that is its whole point) and
        #: served only as an explicitly-flagged :class:`StaleAnswer`.
        #: Strictly separate from ``_entries`` so the fresh path can
        #: never accidentally serve under a superseded root.
        self._stale: OrderedDict[QueryRequest, StaleAnswer] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.stale_hits = 0
        self.stale_misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, request: QueryRequest, root: bytes) -> QueryAnswer | None:
        """The cached verified answer for ``request`` at ``root``, if any."""
        key = (request, bytes(root))
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            obs.inc("cache.answer.misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        obs.inc("cache.answer.hits")
        return entry

    def put(
        self,
        request: QueryRequest,
        root: bytes,
        answer: QueryAnswer,
        *,
        height: int = -1,
    ) -> None:
        """Admit a **verified** answer.  Callers must only put answers
        that passed ``verify_answer`` against exactly ``root``;
        ``height`` records what chain height that root was certified
        at, so a degraded (stale) serve can report its age."""
        key = (request, bytes(root))
        self._entries[key] = answer
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            obs.inc("cache.answer.evictions")
        self._stale[request] = StaleAnswer(
            answer=answer, root=bytes(root), height=height
        )
        self._stale.move_to_end(request)
        while len(self._stale) > self.capacity:
            self._stale.popitem(last=False)
        obs.set_gauge("cache.answer.entries", len(self._entries))

    def get_stale(self, request: QueryRequest) -> StaleAnswer | None:
        """The last verified answer for ``request`` under *any* root.

        The degraded path: only consulted when the serving tier is
        shedding and the caller opted into stale answers.  Never
        consulted by :meth:`get`, which remains root-exact.
        """
        entry = self._stale.get(request)
        if entry is None:
            self.stale_misses += 1
            obs.inc("cache.answer.stale_misses")
            return None
        self._stale.move_to_end(request)
        self.stale_hits += 1
        obs.inc("cache.answer.stale_hits")
        return entry

    def retain_roots(self, roots: Iterable[bytes]) -> int:
        """Drop entries verified under roots no longer certified.

        Call after a tip advance; returns how many entries were swept.
        (Correctness never depends on this — a stale entry can no
        longer be *looked up* once the root moved — it only bounds
        memory and feeds the invalidation counter.)  The stale sidecar
        is deliberately **not** swept: keeping the last verified answer
        across root advances is what graceful degradation serves from.
        """
        keep = {bytes(root) for root in roots}
        stale = [key for key in self._entries if key[1] not in keep]
        for key in stale:
            del self._entries[key]
        if stale:
            self.invalidations += len(stale)
            obs.inc("cache.answer.invalidations", len(stale))
            obs.set_gauge("cache.answer.entries", len(self._entries))
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()
        self._stale.clear()
        obs.set_gauge("cache.answer.entries", 0)
