"""Completeness and soundness of answers, stated once for every family:

    an answer whose claims differ from the oracle provider's never verifies.

The oracle is the honest provider's answer to the same request.  A forger
owns every byte of the reply, so the mutants are built on the wire form:
random edits of the encoded JSON tree (retag a tuple as a list, drop or
repeat an element, change or null a leaf, graft a subtree of the honest
answer to *another* request), any number of them, optionally on top of
"claim there is nothing" — the two-edit shape (empty the claims *and*
retag a nibble path of the upper proof) that verified before PR 20.
Whatever still decodes and claims something else must be refused; a
mutant with the oracle's claims may verify (it is the same answer).

Seeds and replay: see tests/proptest/framework.py.
"""

from __future__ import annotations

import copy
import json

from repro.errors import WireError
from repro.net import wire
from repro.query import AggregateQuery, HistoryQuery, KeywordQuery, ValueRangeQuery
from tests.proptest.framework import run_cases
from tests.query import test_malformed_tree_proofs as malformed

world = malformed.world  # the certified four-family world (module-scoped fixture)
client = malformed.client


def _request(rng, height):
    family = rng.choice(("history", "keyword", "aggregate", "range"))
    lo = rng.randrange(0, height + 2)
    window = {"t_from": lo, "t_to": lo + rng.randrange(0, height + 2)}
    if family == "history":
        return HistoryQuery(
            index="history", account=rng.choice(("acct1", "acct9")), **window
        )
    if family == "aggregate":
        return AggregateQuery(
            index="aggregate", account=rng.choice(("a1", "a2", "a6", "a9")), **window
        )
    if family == "range":
        low = rng.randrange(0, 900)
        return ValueRangeQuery(index="range", lo=low, hi=low + rng.randrange(0, 900))
    words = ("acct1", "a1", "50", "v3", "v13", "5", "ghost")
    return KeywordQuery(
        index="keyword", keywords=tuple(rng.sample(words, rng.randrange(1, 3)))
    )


def _nodes(node, path=()):
    """Every ``(path, node)`` of a decoded-JSON tree, root first."""
    yield path, node
    if isinstance(node, list):
        for index, item in enumerate(node):
            yield from _nodes(item, (*path, index))
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, (*path, key))


def _put(tree, path, value):
    *parents, last = path
    for step in parents:
        tree = tree[step]
    tree[last] = value


def _edit(rng, tree, donor):
    """One random in-place edit of ``tree`` (never of its root), drawn
    half the time from the upper-level proofs and two times in five from
    the tagged arrays, so the default 25 cases reach "retag a path"."""
    sites = [(path, node) for path, node in _nodes(tree) if path]
    for chance, wanted in (
        (0.5, lambda path, node: {"upper_proof", "dictionary_proofs"} & set(path)),
        (0.4, lambda path, node: isinstance(node, dict) and {"!t", "!l"} & set(node)),
    ):
        narrowed = [site for site in sites if wanted(*site)]
        if narrowed and rng.random() < chance:
            sites = narrowed
    path, node = rng.choice(sites)
    if isinstance(node, dict) and ("!t" in node or "!l" in node):
        old = "!t" if "!t" in node else "!l"
        node[{"!t": "!l", "!l": "!t"}[old]] = node.pop(old)
    elif isinstance(node, list) and node and rng.random() < 0.7:
        if rng.random() < 0.5:
            node.pop(rng.randrange(len(node)))
        else:
            node.insert(rng.randrange(len(node) + 1), copy.deepcopy(rng.choice(node)))
    elif isinstance(node, bool) or node is None:
        _put(tree, path, rng.choice((None, True, False, 0)))
    elif isinstance(node, (int, float)):
        _put(tree, path, rng.choice((node + 1, node - 1, 0, float(node), None)))
    elif isinstance(node, str) and path[-1] == "!b":
        flipped = ("0" if node[:1] != "0" else "1") + node[1:]
        _put(tree, path, rng.choice((flipped, node[2:], node + "00")))
    else:
        grafts = [found for where, found in _nodes(donor) if where[-1:] == path[-1:]]
        _put(tree, path, copy.deepcopy(rng.choice(grafts)) if grafts else None)


_NOTHING = {
    "HistoryAnswer": {"versions": (), "lower_root": None, "range_proof": None},
    "AggregateAnswer": {"aggregate": None, "lower_root": None, "range_proof": None},
    "KeywordAnswer": {"results": (), "pivot_proof": None, "point_proofs": ()},
}


def _claim_nothing(tree):
    """Empty the claims of an encoded answer, proofs of absence aside."""
    payload = tree["!f"]["payload"]
    empties = _NOTHING.get(payload["!dc"].rpartition(":")[2], {})
    for name, value in empties.items():
        payload["!f"][name] = json.loads(wire.encode(value))
    for entry in payload["!f"].get("dictionary_proofs", {}).get("!t", []):
        entry["!t"][1] = None  # (keyword, posting root, proof): no postings


def test_an_answer_whose_claims_differ_from_the_oracles_never_verifies(world, client):
    provider = world["provider"]
    height = world["issuer"].certified[-1].block.header.height

    def prop(rng):
        request = _request(rng, height)
        oracle = provider.execute(request)
        assert client.verify_answer(request, oracle)
        donor = json.loads(wire.encode(provider.execute(_request(rng, height))))
        for _ in range(12):
            tree = json.loads(wire.encode(oracle))
            if rng.random() < 0.5:
                _claim_nothing(tree)
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                _edit(rng, tree, donor)
            try:
                mutant = wire.decode(json.dumps(tree).encode())
                said = malformed.claims(mutant.payload)
            except (WireError, AttributeError, KeyError, TypeError):
                continue  # not an answer any more: refused at the codec
            if said != malformed.claims(oracle.payload):
                assert client.verify_answer(request, mutant) is False, tree

    run_cases(prop)
