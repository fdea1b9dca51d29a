"""The enclave runtime: measured programs behind an Ecall boundary.

:class:`EnclaveHost` loads an :class:`EnclaveProgram` the way SGX loads
an enclave image: the program's *measurement* is a hash of its declared
identity and configuration, fixed at load time, and every interaction
goes through :meth:`EnclaveHost.ecall`, which

* charges the transition cost,
* tracks the call's EPC footprint (callers pass the payload size of
  what they marshal in — DCert's update proofs know their own sizes)
  and charges paging beyond the usable EPC,
* measures the in-enclave execution time and charges the calibrated
  slowdown on top.

State that the program keeps on ``self`` lives "inside" the enclave;
by simulation convention the host only touches it through ecalls.  A
program can expose data (e.g. its public key) by returning it.
"""

from __future__ import annotations

from typing import Any

from repro import obs
from repro.crypto.hashing import Digest, tagged_hash
from repro.errors import EnclaveError
from repro.fault.crashpoints import crashpoint
from repro.obs.wallclock import elapsed_s, now_s
from repro.sgx.attestation import AttestationReport, AttestationService, sign_quote
from repro.sgx.costs import CostLedger, SGXCostModel, model_enabled, spend
from repro.sgx.platform import SGXPlatform


def _declared(klass: type, attribute: str) -> str:
    """The identity ``klass`` declares under ``attribute``, else its
    qualified name.  Read from the class's own namespace, never
    inherited: a subclass is different code and must not measure as its
    parent."""
    return vars(klass).get(attribute) or f"{klass.__module__}.{klass.__qualname__}"


def code_id(klass: type) -> str:
    """The ``CODE_ID`` of a class whose logic a program's config commits
    to (DCert: each contract, each index spec)."""
    return _declared(klass, "CODE_ID")


def measure_program(program_class: type, config: bytes = b"") -> Digest:
    """MRENCLAVE analogue: hash of the program's declared identity
    (``PROGRAM_ID``, ``PROGRAM_VERSION``) and config.

    The identity stands for the published source the way a reproducible
    build stands for its binary: a change of trusted behaviour bumps the
    version, so a different program cannot attest as the original, while
    a refactor that keeps behaviour keeps the measurement.
    Build-time configuration (DCert hard-codes the genesis digest, the
    IAS key, and the contract/index code identities into its enclave)
    is folded in via ``config`` so a reconfigured program is a
    *different* enclave.
    """
    version = vars(program_class).get("PROGRAM_VERSION", 0)
    identity = f"{_declared(program_class, 'PROGRAM_ID')}/{version}".encode("utf-8")
    return tagged_hash("enclave-measurement", identity + b"\x00" + config)


class EnclaveProgram:
    """Base class for code intended to run inside an enclave.

    Subclasses define ``ECALLS``, a tuple of method names the host may
    invoke, declare ``PROGRAM_ID`` / ``PROGRAM_VERSION`` (what
    :func:`measure_program` hashes; undeclared, the qualified class name
    at version 0), and may implement ``on_init`` to generate keys/state
    at load time (before any untrusted input arrives).
    """

    ECALLS: tuple[str, ...] = ()

    def config_bytes(self) -> bytes:
        """Build-time configuration folded into the measurement."""
        return b""

    def on_init(self) -> bytes:
        """Runs at enclave load; returns report data to embed in quotes
        (DCert programs return their freshly generated public key)."""
        return b""

    # Set by the host after loading (EREPORT self-inspection analogue).
    self_measurement: Digest = b""
    # Set by the host before on_init (EGETKEY analogue for sealing).
    _platform: "SGXPlatform | None" = None


class EnclaveHost:
    """Loads one enclave program on one platform and brokers ecalls."""

    def __init__(
        self,
        program: EnclaveProgram,
        platform: SGXPlatform,
        *,
        cost_model: SGXCostModel | None = None,
    ) -> None:
        self.program = program
        self.platform = platform
        self.cost_model = cost_model if cost_model is not None else SGXCostModel()
        self.ledger = CostLedger()
        self.measurement = measure_program(type(program), program.config_bytes())
        program.self_measurement = self.measurement
        # Sealing-capable programs need the platform identity (EGETKEY
        # analogue); set before on_init so sealed state can be restored.
        program._platform = platform
        self._report_data = program.on_init()

    @property
    def report_data(self) -> bytes:
        """Public data the enclave pinned at init (e.g. ``pk_enc``)."""
        return self._report_data

    def attest(self, service: AttestationService) -> AttestationReport:
        """Run remote attestation against an IAS; one-time per enclave."""
        quote = sign_quote(self.platform, self.measurement, self._report_data)
        return service.attest(quote)

    def ecall(self, name: str, *args: Any, payload_bytes: int = 0, **kwargs: Any) -> Any:
        """Enter the enclave: dispatch ``name(*args, **kwargs)``.

        ``payload_bytes`` is the marshalled size of the inputs, used for
        EPC accounting; DCert passes its update-proof sizes here.
        """
        if name not in type(self.program).ECALLS:
            raise EnclaveError(f"undefined ecall {name!r}")
        crashpoint("enclave.ecall.pre")
        handler = getattr(self.program, name)
        # Bookkeeping always happens; the *charges* (and the busy-wait
        # that spends them) only apply while the cost model is enabled.
        charging = model_enabled()
        self.ledger.ecalls += 1
        self.ledger.peak_epc_bytes = max(self.ledger.peak_epc_bytes, payload_bytes)
        paging = self.cost_model.paging_charge(payload_bytes)
        if charging:
            self.ledger.transition_s += self.cost_model.ecall_transition_s
            self.ledger.paging_s += paging
        if obs.enabled():
            obs.inc("sgx.ecalls")
            obs.observe(
                "sgx.ecall_payload_bytes",
                payload_bytes,
                boundaries=obs.SIZE_BYTES_BUCKETS,
            )
            obs.set_gauge("sgx.peak_epc_bytes", self.ledger.peak_epc_bytes)
            if charging:
                obs.inc("sgx.transition_s", self.cost_model.ecall_transition_s)
            if paging > 0:
                obs.inc("sgx.epc_paging_events")
                obs.inc("sgx.epc_paging_s", paging)
        started = now_s()
        try:
            result = handler(*args, **kwargs)
        finally:
            elapsed = elapsed_s(started)
            self.ledger.in_enclave_s += elapsed
            obs.observe(f"sgx.ecall_ms.{name}", elapsed * 1000.0)
            if charging:
                slowdown = elapsed * self.cost_model.enclave_slowdown_extra
                self.ledger.slowdown_s += slowdown
                if self.cost_model.spend_time:
                    spend(
                        self.cost_model.ecall_transition_s + slowdown + paging
                    )
        # The host 'dies' after the enclave returned but before it acted
        # on the result — the result is lost with the host's memory.
        crashpoint("enclave.ecall.post")
        return result
