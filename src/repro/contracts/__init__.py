"""The five Blockbench workload contracts (Dinh et al., SIGMOD'17).

The paper evaluates DCert with Blockbench's micro benchmarks —
DoNothing (DN), CPUHeavy (CPU), IOHeavy (IO) — and macro benchmarks —
KVStore (KV) and SmallBank (SB).  Each is reproduced here as a contract
for :mod:`repro.chain.vm`, preserving the characteristic that drives the
paper's Fig. 8: DN touches no state, CPU burns compute with few state
cells, IO touches many cells, and KV/SB look like real applications.
"""

from repro.chain.vm import VM
from repro.contracts.cpuheavy import CPUHeavy
from repro.contracts.donothing import DoNothing
from repro.contracts.ioheavy import IOHeavy
from repro.contracts.kvstore import KVStore
from repro.contracts.smallbank import SmallBank

#: Blockbench short names from the paper's figures, mapped to factories.
BLOCKBENCH = {
    "DN": DoNothing,
    "CPU": CPUHeavy,
    "IO": IOHeavy,
    "KV": KVStore,
    "SB": SmallBank,
}



def fresh_vm() -> VM:
    """A VM with all five Blockbench contracts deployed.  Issuer,
    provider and measurement each need their own: sharing one VM
    across them corrupts state."""
    vm = VM()
    for factory in BLOCKBENCH.values():
        vm.deploy(factory())
    return vm


__all__ = [
    "BLOCKBENCH", "CPUHeavy", "DoNothing", "IOHeavy", "KVStore", "SmallBank",
    "fresh_vm",
]
