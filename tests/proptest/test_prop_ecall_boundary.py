"""The certification ecalls, fuzzed as a boundary.

The untrusted host chooses every argument of ``sig_gen``,
``augmented_sig_gen`` and ``index_sig_gen`` (Alg. 2, 4, 5) — values and
types.  Each case draws, for every argument of every ecall (the index
ones once per index), one mutant from the shared rule table's boundary
plan (``mutate.boundary_plan``: the palette at every site, tuple ↔ list,
one element shorter / longer, ``bytes`` ↔ ``bytearray`` / hex, a byte
shorter / longer / flipped, ``int`` → ``float`` / ``str`` / ``bool``,
± 1) and calls the program with it; a host is bound by no
``__post_init__``, so none runs.  The oracle:

* only a :class:`ReproError` escapes;
* a signature returned is the honest one — or, for a mutated ``blk_new``,
  one over a block an honest full node accepts (at the fixture's 4-bit
  proof of work a changed timestamp re-mines the block one time in 16:
  ``timestamp=True`` hashes as timestamp 1 and does);
* a refused call leaves the enclave's ``_recent`` write-set cache and its
  verified memo as they were.

Before the ecalls' malformed-argument clause, the same plan run over
every mutant of every argument (not a sample) let a third of them leave
the enclave as a bare ``AttributeError`` / ``TypeError`` / ``ValueError``
/ ``OverflowError`` / ``IndexError``: :data:`PARENT_UNTYPED`.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from tests.core.test_enclave_program import pending  # noqa: F401  (module fixture)
from tests.proptest import mutate
from tests.proptest.framework import run_cases

#: ``ecall -> (mutants, untyped escapes)`` over every mutant, at the
#: parent of the clause; with it, every one is refused typed or signed.
PARENT_UNTYPED = {
    "sig_gen": (1549, 504),
    "index_sig_gen/history": (2993, 698),
    "index_sig_gen/keyword": (6535, 761),
    "augmented_sig_gen/history": (3986, 809),
    "augmented_sig_gen/keyword": (7528, 872),
}


def ecall_arguments(p):
    """``label -> (ecall, honest arguments, position of blk_new)``."""
    calls = {
        "sig_gen": (
            p.program.sig_gen,
            (p.prev, p.issuer.latest_certificate, p.block, p.update_proof), 2,
        ),
    }
    for name, update in p.updates.items():
        calls[f"index_sig_gen/{name}"] = (p.program.index_sig_gen, (
            p.prev.header, update.prev_root, p.issuer._index_certs[name],
            p.block.header, p.certificate, update.new_root, update.proof, name,
        ), None)
        calls[f"augmented_sig_gen/{name}"] = (p.program.augmented_sig_gen, (
            p.prev, p.issuer._aug_certs[name], update.prev_root, p.block,
            update.new_root, p.update_proof, update.proof, name,
        ), 3)
    return calls


def enclave_memory(program):
    memo = program._verified_reports
    return list(program._recent), set(memo), set(memo.signatures)


def outcome(p, ecall, args, new_block_at, honest):
    """Make the call; fail on anything the oracle forbids."""
    before = enclave_memory(p.program)
    try:
        signature = ecall(*args)
    except ReproError as exc:
        assert enclave_memory(p.program) == before, f"refused, memory moved: {exc}"
        return
    if signature != honest:
        assert new_block_at is not None, "signed something other than the honest digest"
        p.issuer.node.validate_block(args[new_block_at])  # a valid block, re-mined


@pytest.fixture(scope="module")
def table(pending):  # noqa: F811
    """Every ecall's honest signature and every argument's mutants."""
    made = {}
    calls = {}
    for label, (ecall, args, new_block_at) in ecall_arguments(pending).items():
        for arg in args:
            if id(arg) not in made:
                found = mutate.mutants(arg, mutate.boundary_plan)
                made[id(arg)] = [mutant for _, _, mutant in found]
        calls[label] = ecall, args, new_block_at, ecall(*args)
    return calls, made


def test_every_argument_of_every_certification_ecall_refuses_typed(pending, table):  # noqa: F811
    calls, made = table
    assert set(calls) == set(PARENT_UNTYPED)

    def prop(rng):
        for ecall, args, new_block_at, honest in calls.values():
            for position, arg in enumerate(args):
                mutant = rng.choice(made[id(arg)])
                mutated = args[:position] + (mutant,) + args[position + 1 :]
                outcome(pending, ecall, mutated, new_block_at, honest)

    run_cases(prop)
