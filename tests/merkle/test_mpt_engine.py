"""The MPT engine: proof replay against the live trie, and mutants.

*Differential.*  At every prefix of the three insertion orders of
``test_mpt_golden.py``, for every present and absent key:
``apply_update(root, k, v, prove(k))`` is the root after ``insert(k, v)``
and ``claimed_value`` / ``verify_mpt`` agree with ``get``.

*Mutants.*  Every one-field edit of the honest proofs of the finished
tries (:func:`mutants_of`: tuple ↔ list, one element shorter / longer,
``None``, ``int`` ↔ ``float`` / ``bool`` / ``str``, nibble ± 16, a digest
± one byte, ``bytes`` ↔ ``bytearray`` / hex ``str``, ``b""`` for an absent
branch value, a step spelled as its terminal / non-terminal twin, a
trailing extra step).  A mutant is never the proof ``prove`` emits, so:

* ``verify_mpt`` must not accept it for a value the trie does not hold
  (*false claim*) — nor for the one it does (*second encoding*);
* ``apply_update`` must not return a root for it, right (*second
  encoding*) or not (*wrong root*);
* nothing but ``False`` / ``ProofError`` may come out (*escape*).

Recorded at the parent commit a5519c6 (four walks over one proof, fields
compared with ``==`` against tuples but hashed through ``bytes(...)``),
by copying this file and ``test_mpt_golden.py`` into a clone of it::

    cd /root/scratch/parent && PYTHONPATH=src python -c \
        "from tests.merkle.test_mpt_engine import tally; print(tally())"
    ({'mutants': 30126, 'false_claims': 111, 'wrong_roots': 111,
      'second_encodings': 9559, 'verify_escapes': 20427, 'update_escapes': 8844},
     {'false_claims': 'hashed:6372b46b7705c0ef:leaf.path.list', ...})

(the escapes are ``TypeError`` / ``ValueError`` / ``AttributeError`` /
``IndexError``, the last from a step list truncated under a diverged
extension).  Here every count is 0.
"""

import copy
import dataclasses

import pytest

from repro.crypto.hashing import hash_concat
from repro.errors import ProofError
from repro.merkle.mpt import (
    EMPTY_DIGEST,
    BranchStep,
    DivergedExtensionStep,
    ExtensionStep,
    MerklePatriciaTrie,
    MPTProof,
    TerminalBranchStep,
    apply_update,
    claimed_value,
    verify_mpt,
)
from tests.merkle.test_mpt_golden import KEY_SETS, insertion_order
from tests.proptest import mutate

NEW_VALUE = b"\x5a" * 32


def _after_insert(trie, key, value):
    """The root ``trie`` would have after ``insert`` (nodes are immutable,
    so a shallow copy is an independent trie)."""
    fork = copy.copy(trie)
    fork.insert(key, value)
    return fork.root


# -- differential ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(KEY_SETS))
def test_replay_agrees_with_the_live_trie_at_every_prefix(name):
    inserts, probes = insertion_order(name)
    trie = MerklePatriciaTrie()
    kinds = set()
    for key, value in [(None, None), *inserts]:
        if key is not None:
            predicted = apply_update(trie.root, key, value, trie.prove(key))
            trie.insert(key, value)
            assert predicted == trie.root
        for probe in probes:
            proof = trie.prove(probe)
            held = trie.get(probe)
            assert claimed_value(probe, proof) == held
            assert verify_mpt(trie.root, probe, held, proof)
            assert not verify_mpt(trie.root, probe, b"forged", proof)
            assert (held is None) or not verify_mpt(trie.root, probe, None, proof)
            assert apply_update(trie.root, probe, NEW_VALUE, proof) == _after_insert(
                trie, probe, NEW_VALUE
            )
            kinds.update(type(step) for step in proof.steps)
            if proof.terminal_leaf is not None:
                kinds.add("leaf" if held is not None else "other-leaf")
    expected = {BranchStep, "leaf", "other-leaf"}
    if name != "hashed":  # fixed-width hashed keys never end on a branch
        expected |= {ExtensionStep, DivergedExtensionStep, TerminalBranchStep}
    assert kinds >= expected


def test_an_empty_value_is_refused_not_hashed_as_absent():
    trie = MerklePatriciaTrie()
    trie.insert(b"\x12", b"v")
    with pytest.raises(ValueError):
        trie.insert(b"\x12\x34", b"")
    with pytest.raises(ValueError):
        apply_update(trie.root, b"\x12\x34", b"", trie.prove(b"\x12\x34"))
    assert len(trie) == 1


# -- mutants --------------------------------------------------------------------


def _below(proof, index):
    """Digest of what ``proof.steps[index]`` leads into — the library's
    node hashing, restated so twin-step mutants carry honest digests."""
    if proof.terminal_leaf is not None:
        path, value = proof.terminal_leaf
        digest = hash_concat(b"mpt-leaf", bytes(path), value)
    else:
        digest = EMPTY_DIGEST
    for step in reversed(proof.steps[index + 1 :]):
        if isinstance(step, ExtensionStep):
            digest = hash_concat(b"mpt-ext", bytes(step.path), digest)
        elif isinstance(step, DivergedExtensionStep):
            digest = hash_concat(b"mpt-ext", bytes(step.path), step.child_digest)
        else:
            children = list(getattr(step, "child_digests", None) or step.sibling_digests)
            if isinstance(step, BranchStep):
                children.insert(step.taken, digest)
            digest = hash_concat(b"mpt-branch", *children, step.value or b"")
    return digest


def _twins(proof, index):
    """``steps[index]`` spelled as the other kind for the same node."""
    step = proof.steps[index]
    if isinstance(step, ExtensionStep):
        yield "as-diverged", DivergedExtensionStep(step.path, _below(proof, index))
    elif isinstance(step, DivergedExtensionStep):
        yield "as-extension", ExtensionStep(step.path)
    elif isinstance(step, TerminalBranchStep):
        empty = [i for i, d in enumerate(step.child_digests) if d == EMPTY_DIGEST]
        for taken in {0, *empty[:1]}:
            others = step.child_digests[:taken] + step.child_digests[taken + 1 :]
            yield f"as-branch[{taken}]", BranchStep(taken, others, step.value)
    else:
        children = list(step.sibling_digests)
        children.insert(step.taken, _below(proof, index))
        yield "as-terminal", TerminalBranchStep(tuple(children), step.value)


_BYTES = ("bytes", "none", "resize", "digest")
_EXTRAS = (
    ExtensionStep((0,)), DivergedExtensionStep((0,), EMPTY_DIGEST),
    BranchStep(0, (EMPTY_DIGEST,) * 15, None),
    TerminalBranchStep((EMPTY_DIGEST,) * 16, None),
)


def _sequence(extra):
    """A tuple as a list, ``None``, one shorter (either end), one longer."""
    return ("list", "none", "shorter", ("longer", {"extra": extra}))


def _nibble(value):
    """``int`` -> ``float`` / ``str`` / ``bool``, ``None``, ± 16, another nibble."""
    return ("retype", "none", ("edge", {"by": 16}), ("palette", {"values": [(value + 1) % 16]}))


def _plan(proof):
    """Which rules of the shared table each site of ``proof`` gets."""
    def plan(path, node):
        *where, last = path or (None,)
        if path == ("key",) or last == "child_digest":
            return _BYTES
        if path == ("steps",):
            return [spec for extra in _EXTRAS for spec in _sequence(extra)]
        if where == ["steps"]:
            return ("none", ("retag", {"twins": _twins(proof, last)}))
        if path == ("terminal_leaf",):
            if node is None:
                return [("palette", {"values": [((1, 2), b"invented")]})]
            return _sequence(b"x")
        if last == "value" or path == ("terminal_leaf", 1):
            if node is None:
                return [("palette", {"values": [b"", b"invented"]})]
            return (*_BYTES, ("palette", {"values": [b""]}))
        if last == "path" or path == ("terminal_leaf", 0):
            return (*_sequence(0), ("palette", {"values": [()]}))
        if last in ("sibling_digests", "child_digests"):
            return _sequence(node[-1])
        if last == "taken":
            return _nibble(node)
        ends = (0, len(mutate.get(proof, where)) - 1) if isinstance(last, int) else ()
        if last in ends and (where[-1:] == ["path"] or where == ["terminal_leaf", 0]):
            return _nibble(node)
        if last in ends and where[-1] in ("sibling_digests", "child_digests"):
            return _BYTES
        return ()

    return plan


def mutants_of(proof):
    """``(label, mutant)`` for every one-field edit of ``proof`` that changes it."""
    for path, label, mutant in mutate.mutants(proof, _plan(proof), checked=True):
        yield f"{'.'.join(map(str, path))}.{label}", mutant


def _claims(held, mutant):
    """Values a forger might want ``mutant`` to prove."""
    claims = [held, None, b"", b"forged"]
    found = []
    if isinstance(mutant.terminal_leaf, (tuple, list)) and len(mutant.terminal_leaf) == 2:
        found.append(mutant.terminal_leaf[1])
    for step in mutant.steps or ():
        found.append(getattr(step, "value", None))
    for value in found:
        if isinstance(value, bytes) and value not in claims:
            claims.append(value)
    return claims


def tally():
    """Run every mutant; count what should never happen (see module doc)."""
    counts = dict.fromkeys(
        ("mutants", "false_claims", "wrong_roots", "second_encodings",
         "verify_escapes", "update_escapes"), 0,
    )
    examples = {}

    def note(kind, label):
        counts[kind] += 1
        examples.setdefault(kind, label)

    for name in sorted(KEY_SETS):
        inserts, probes = insertion_order(name)
        trie = MerklePatriciaTrie()
        for key, value in inserts:
            trie.insert(key, value)
        root = trie.root
        for key in probes:
            held, honest = trie.get(key), trie.prove(key)
            expected = _after_insert(trie, key, NEW_VALUE)
            for label, mutant in mutants_of(honest):
                label = f"{name}:{key.hex()}:{label}"
                counts["mutants"] += 1
                for claim in _claims(held, mutant):
                    try:
                        accepted = verify_mpt(root, key, claim, mutant)
                    except Exception:
                        note("verify_escapes", label)
                        continue
                    if accepted:
                        same = claim == held or (not claim and not held)
                        note("second_encodings" if same else "false_claims", label)
                try:
                    claimed_value(key, mutant)
                except ProofError:
                    pass
                except Exception:
                    note("update_escapes", label)
                try:
                    replayed = apply_update(root, key, NEW_VALUE, mutant)
                except ProofError:
                    continue
                except Exception:
                    note("update_escapes", label)
                    continue
                note("second_encodings" if replayed == expected else "wrong_roots", label)
    return counts, examples


def says_absent(proof):
    """The motivating forgery: the proof of a key that *is* in the trie
    (ending in its leaf), retold as "absent" by spelling the leaf's path
    as a list — equal to no tuple, hashed the same.  Shared by the spec,
    answer and ecall tests."""
    path, value = proof.terminal_leaf
    return dataclasses.replace(proof, terminal_leaf=(list(path), value))


def test_no_mutant_is_accepted_and_none_escapes():
    counts, examples = tally()
    assert counts.pop("mutants") > 20_000
    assert not any(counts.values()), (counts, examples)


def test_the_motivating_forgeries():
    """A list-typed nibble path equals no tuple but hashes the same: at
    the parent each of these proved a present key absent."""
    inserts, _ = insertion_order("keyword")
    trie = MerklePatriciaTrie()
    for key, value in inserts:
        trie.insert(key, value)
    key = b"send_payment"  # branch, branch, extension, branch, leaf
    assert trie.get(key) is not None
    honest = trie.prove(key)
    through = next(  # an extension the key follows, retold as one it leaves
        index for index, step in enumerate(honest.steps) if isinstance(step, ExtensionStep)
    )
    forgeries = [
        says_absent(honest),
        MPTProof(
            key,
            honest.steps[:through]
            + (DivergedExtensionStep(list(honest.steps[through].path), _below(honest, through)),),
            None,
        ),
    ]
    for forged in forgeries:
        assert not verify_mpt(trie.root, key, None, forged)
        with pytest.raises(ProofError):
            apply_update(trie.root, key, NEW_VALUE, forged)
        with pytest.raises(ProofError):
            claimed_value(key, forged)
