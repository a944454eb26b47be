"""Self-Managed Cell composition.

A :class:`~repro.smc.cell.SelfManagedCell` wires together everything the
paper's Figure 1 shows on the SMC core: the event bus (with a pluggable
matching engine), the proxy bootstrap, the discovery service and the
policy service, all sharing one transport endpoint on the core node
(typically the patient's PDA).
"""

from repro.smc.cell import CellConfig, SelfManagedCell

__all__ = [
    "SelfManagedCell",
    "CellConfig",
]
