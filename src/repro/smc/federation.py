"""SMC federation: peer-to-peer composition of cells.

"Autonomous, self-managed cells must be composable to form larger cells
but also need to collaborate and integrate with each other in peer-to-peer
relationships" (Section I; elaborated in the companion paper, ref [2]).

A :class:`FederationLink` makes cell A an *importer* of selected event
streams from cell B:

* the link joins B through the ordinary discovery protocol, as a member of
  device type ``smc.peer`` — federation needs no new mechanism on the
  exporting side, just a subscriber;
* the import filter set is first reduced with covering-based aggregation
  (a filter covered by another contributes nothing but matching work);
* every imported event is republished into A with federation metadata:
  ``fed.origin``/``fed.oseq`` (the original sender and seqno, used to
  de-duplicate events arriving over multiple paths) and ``fed.path`` (the
  cells the event has visited, used to suppress forwarding loops).

Two links in opposite directions give symmetric peering; a link from a
parent cell importing ``health.*.alarm`` from each child cell gives the
hierarchical composition of the paper's motivating scenario.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core.client import BusClient
from repro.core.events import Event
from repro.discovery.agent import AgentConfig, DiscoveryAgent
from repro.errors import FederationError
from repro.matching.covering import filter_covers
from repro.matching.filters import Filter
from repro.sim.kernel import Scheduler
from repro.smc.cell import SelfManagedCell
from repro.transport.base import Address
from repro.transport.endpoint import PacketEndpoint

_FED_ORIGIN = "fed.origin"
_FED_OSEQ = "fed.oseq"
_FED_PATH = "fed.path"
_PATH_SEP = ">"


def aggregate_filters(filters: list[Filter]) -> list[Filter]:
    """Drop filters covered by another filter in the list.

    The result matches exactly the same events with fewer subscriptions —
    the covering relation's classic use for federated subscription sets.
    """
    kept: list[Filter] = []
    for candidate in filters:
        if any(filter_covers(existing, candidate) for existing in kept):
            continue
        kept = [existing for existing in kept
                if not filter_covers(candidate, existing)]
        kept.append(candidate)
    return kept


@dataclass
class FederationStats:
    imported: int = 0
    suppressed_loops: int = 0
    suppressed_duplicates: int = 0
    subscriptions_aggregated_away: int = 0


class FederationLink:
    """Imports selected event streams from a peer cell into a local cell."""

    def __init__(self, cell: SelfManagedCell, peer_endpoint: PacketEndpoint,
                 scheduler: Scheduler, imports: list[Filter], *,
                 link_name: str | None = None,
                 peer_cell_name: str | None = None,
                 dedup_window: int = 4096) -> None:
        if not imports:
            raise FederationError("federation link needs at least one import")
        self.cell = cell
        self.scheduler = scheduler
        self.stats = FederationStats()
        self._dedup: OrderedDict[tuple, None] = OrderedDict()
        self._dedup_window = dedup_window

        aggregated = aggregate_filters(list(imports))
        self.stats.subscriptions_aggregated_away = len(imports) - len(aggregated)
        self._imports = aggregated

        name = link_name or f"fedlink.{cell.config.cell_name}"
        self.agent = DiscoveryAgent(peer_endpoint, scheduler, AgentConfig(
            name=name, device_type="smc.peer", target_cell=peer_cell_name))
        self.client = BusClient(peer_endpoint, scheduler, bus_address=None)
        self.agent.client = self.client
        self.agent.on_joined = self._on_joined
        self._publisher = cell.bus.local_publisher(name)
        self.peer_cell_name: str | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self.agent.start()

    def stop(self) -> None:
        self.agent.stop()

    @property
    def connected(self) -> bool:
        return self.agent.joined

    # -- join plumbing ----------------------------------------------------

    def _on_joined(self, cell_name: str, _core_address: Address) -> None:
        # The agent has pointed the client at the peer's core and, after a
        # purge, put the import subscription back on its fresh proxy.
        self.peer_cell_name = cell_name
        if not self.client.subscription_count():
            self.client.subscribe(list(self._imports), self._on_imported)

    # -- import path -------------------------------------------------------

    def _on_imported(self, event: Event) -> None:
        """Republish one peer event into the local cell."""
        local_name = self.cell.config.cell_name
        path_raw = event.get(_FED_PATH, "")
        path = [p for p in str(path_raw).split(_PATH_SEP) if p]
        if local_name in path:
            self.stats.suppressed_loops += 1
            return

        origin = event.get(_FED_ORIGIN, str(event.sender))
        oseq = event.get(_FED_OSEQ, event.seqno)
        key = (origin, oseq, event.type)
        if key in self._dedup:
            self.stats.suppressed_duplicates += 1
            return
        self._dedup[key] = None
        if len(self._dedup) > self._dedup_window:
            self._dedup.popitem(last=False)

        if not path and self.peer_cell_name:
            path.append(self.peer_cell_name)
        path.append(local_name)

        attributes = {k: v for k, v in event.attributes.items()
                      if k not in (_FED_ORIGIN, _FED_OSEQ, _FED_PATH)}
        attributes[_FED_ORIGIN] = str(origin)
        attributes[_FED_OSEQ] = int(oseq)
        attributes[_FED_PATH] = _PATH_SEP.join(path)
        self._publisher.publish(event.type, attributes)
        self.stats.imported += 1
