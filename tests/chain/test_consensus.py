"""PoW consensus."""

import pytest

from repro.chain.block import BlockHeader, ZERO_HASH
from repro.chain.consensus import ProofOfWork
from repro.errors import ConsensusError


def template(height=1, bits=8):
    return BlockHeader(
        height=height,
        prev_hash=ZERO_HASH,
        nonce=0,
        difficulty_bits=bits,
        state_root=bytes(32),
        tx_root=bytes(32),
        timestamp=1_650_000_000,
    )


def test_solve_produces_valid_header():
    pow_engine = ProofOfWork(8)
    solved = pow_engine.solve(template(bits=8))
    assert pow_engine.check(solved)
    assert int.from_bytes(solved.header_hash(), "big") < pow_engine.target


def test_check_rejects_unsolved_header():
    pow_engine = ProofOfWork(16)
    unsolved = template(bits=16)
    # Nonce 0 almost certainly fails a 16-bit target; if not, bump it.
    if pow_engine.check(unsolved):
        unsolved = BlockHeader(
            1, ZERO_HASH, 1, 16, bytes(32), bytes(32), 1_650_000_000
        )
    assert not pow_engine.check(unsolved)


def test_check_rejects_wrong_difficulty_declaration():
    pow_engine = ProofOfWork(8)
    solved = pow_engine.solve(template(bits=8))
    weaker = ProofOfWork(12)
    assert not weaker.check(solved)


def test_difficulty_bounds():
    with pytest.raises(ConsensusError):
        ProofOfWork(-1)
    with pytest.raises(ConsensusError):
        ProofOfWork(65)


def test_zero_difficulty_accepts_anything():
    pow_engine = ProofOfWork(0)
    assert pow_engine.check(template(bits=0))
