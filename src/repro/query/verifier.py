"""Client-side query verification entry points.

The unified path is :func:`verify`: one call checks any
:class:`repro.query.api.QueryAnswer` against the request the client
actually issued and the certified index roots — the mirror image of
:meth:`repro.query.provider.QueryServiceProvider.execute`.  It rejects

* an answer echoing a different request than the one asked,
* a payload of the wrong family or claiming different query bounds, and
* any payload whose proofs fail against the certified root,

so a response corrupted in flight (or forged by an untrusted SP) can
never be accepted, only detected.

The per-family ``verify_*_answer`` names are the structure-specific
verifiers themselves: no request binding, and a malformed structure
raises instead of answering False.  The roots these functions take must
come from validated DCert index certificates — see
:meth:`repro.core.superlight.SuperlightClient.certified_index_root`.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.crypto.hashing import Digest
from repro.errors import QueryError
from repro.query.api import FAMILY_OF_REQUEST, QueryAnswer, QueryRequest
from repro.query.indexes import (
    MALFORMED,
    verify_aggregate_answer,
    verify_history_versions,
    verify_keyword_results,
    verify_value_range_answer,
)
from repro.query.lineagechain import verify_lineage_answer

#: How certified roots are supplied: a name->root mapping or a lookup
#: callable (e.g. ``SuperlightClient.certified_index_root``).
RootSource = Mapping[str, Digest] | Callable[[str], Digest]


def _certified_root(roots: RootSource, index: str) -> Digest:
    if callable(roots):
        return roots(index)
    try:
        return roots[index]
    except KeyError:
        raise QueryError(f"no certified root for index {index!r}") from None


def verify(
    request: QueryRequest, answer: QueryAnswer, certified_roots: RootSource
) -> bool:
    """Check ``answer`` really answers ``request`` under certified roots.

    Returns False on any mismatch or proof failure; raises
    :class:`QueryError` only when no certified root is known for the
    requested index (that is a client-state problem, not a bad answer).
    """
    if not isinstance(answer, QueryAnswer) or answer.request != request:
        return False
    root = _certified_root(certified_roots, request.index)
    family = FAMILY_OF_REQUEST.get(type(request))
    payload = answer.payload
    try:
        return (
            family is not None
            and type(payload) is family.answer
            and family.claimed(payload) == family.asked(request)
            and family.verify(root, payload)
        )
    except MALFORMED:
        # The prover chose the payload's *structure* too: tripping over
        # it is a proof failure, not a crash.
        return False


# -- per-family aliases -----------------------------------------------------

verify_history_answer = verify_history_versions
verify_keyword_answer = verify_keyword_results
verify_baseline_history_answer = verify_lineage_answer
