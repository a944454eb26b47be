"""The autonomic control plane: MAPE-K feedback over the event service.

The paper's motivating claim is that the event service *supports
autonomic management*; this package is that management loop, closed over
the service's own mechanisms — RTT-adaptive retransmission timeouts and
live shard rebalancing of hot name classes.  See
:mod:`repro.autonomic.manager` for the loop and its audit log (the
Knowledge) and :mod:`repro.autonomic.controllers` for the two
controllers, each of which monitors its own targets' counters.
"""

from repro.autonomic.controllers import (
    Actuation,
    RttController,
    ShardRebalancer,
)
from repro.autonomic.manager import (
    AutonomicConfig,
    AutonomicManager,
    build_bus_manager,
)

__all__ = [
    "Actuation",
    "AutonomicConfig",
    "AutonomicManager",
    "RttController",
    "ShardRebalancer",
    "build_bus_manager",
]
