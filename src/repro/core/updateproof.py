"""Update proofs: the enclave's window onto the global state (§4.1).

``UpdateProof`` carries, for every state cell in the block's read and
write sets, the cell's pre-state value and its SMT proof against the
previous block's ``H_state``.  Inside the enclave these reconstruct a
:class:`~repro.merkle.partial.PartialSMT`, which simultaneously plays
the roles the paper assigns to ``pi_r`` (read-set verification) and
``pi_w`` (write commitment + new-root computation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.merkle.smt import SMTProof


@dataclass(frozen=True, slots=True)
class UpdateProof:
    """Pre-state values + SMT proofs for every touched state cell."""

    entries: tuple[tuple[bytes, bytes | None, SMTProof], ...]

    def size_bytes(self) -> int:
        """Marshalled size (drives the enclave's EPC accounting)."""
        total = 0
        for key, value, proof in self.entries:
            total += len(key) + (len(value) if value is not None else 0)
            total += proof.size_bytes()
        return total
