"""Simulated Intel SGX: enclaves, attestation, and a calibrated cost model.

The paper's prototype runs its certificate-signing program inside a real
SGX enclave (Teaclave SDK).  This package reproduces the *interface and
economics* of SGX in software, which is what DCert's design and all of
its measured effects depend on:

* **Isolation & code identity** — :class:`EnclaveHost` instantiates an
  enclave program behind an Ecall boundary; the program's *measurement*
  is the hash of its declared identity and configuration, so a different
  release measures differently and fails attestation, like MRENCLAVE.
* **Hardware-protected keys** — key material generated inside the
  enclave never crosses the boundary; the host only sees public keys.
* **Remote attestation** — a per-platform hardware key signs quotes;
  the simulated Intel Attestation Service verifies them and issues
  IAS-signed reports that clients check against the well-known IAS key.
* **Performance model** — Ecall transitions carry a fixed cost,
  in-enclave execution pays a calibrated slowdown factor, and exceeding
  the 93 MB usable EPC triggers per-MB paging charges.  The defaults
  reproduce the paper's observation that the enclave costs at most
  ~1.8x (Fig. 8) and that shipping larger read/write sets into the
  enclave hurts (Fig. 9).

Substitution note (see DESIGN.md §2): none of DCert's algorithms depend
on x86 microarchitecture — only on this interface — so the simulation
preserves every behaviour the evaluation measures.
"""

from repro.sgx.attestation import (
    AttestationReport,
    AttestationService,
    Quote,
    WELL_KNOWN_IAS,
)
from repro.sgx.costs import CostLedger, SGXCostModel, cost_model_disabled
from repro.sgx.enclave import EnclaveHost, EnclaveProgram, measure_program
from repro.sgx.platform import SGXPlatform

__all__ = [
    "AttestationReport",
    "AttestationService",
    "CostLedger",
    "EnclaveHost",
    "EnclaveProgram",
    "Quote",
    "SGXCostModel",
    "SGXPlatform",
    "WELL_KNOWN_IAS",
    "cost_model_disabled",
    "measure_program",
]
