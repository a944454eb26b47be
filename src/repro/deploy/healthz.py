"""Local healthz/stats surface for a deployed cell.

A tiny TCP listener on loopback that answers every connection with one
JSON snapshot of the cell (HTTP/1.0 framing so ``curl`` and load-balancer
probes work) and closes.  It never reads the request — the surface is a
"connect and read" diagnostic port, which keeps it a pure
:class:`~repro.sim.kernel.Pollable`: the listening socket registers with
the :class:`~repro.sim.kernel.RealtimeScheduler` selector next to the UDP
sockets, and each accept/respond runs inside the same single-threaded run
loop as the protocol stack, so a snapshot is always internally consistent
(no counters torn mid-update).

The snapshot itself is produced by a caller-supplied callable — the
server layer decides what "health" means (members, BusStats,
ChannelStats, shard loads, autonomic audit tail); this module only moves
the bytes.

JSON field reference (the body :meth:`~repro.deploy.server.CellServer.
snapshot` produces)::

    cell              cell name (CellConfig.cell_name)
    engine            matching engine name ("forwarding", "siena", ...)
    started           bool, between start() and stop()
    uptime_s          seconds since start()
    address           the core's unicast "host:port" rendezvous address
    pollables         fds registered with the scheduler selector
    member_count      admitted members (all lifecycle states)
    lifecycle_counts  members per lifecycle state, e.g.
                      {"joining": 0, "healthy": 4, "degraded": 1,
                       "draining": 0} — GONE members left the table
    members           list of per-member objects:
        member          integer service id
        name            announced device name
        device_type     announced device type
        address         current "host:port" (follows roams)
        lifecycle       the member's one state, the masking *and*
                        health signal: "joining" | "healthy" |
                        "degraded" (silent past silent_after_s; proxy
                        and queue survive until purge) | "draining"
        capacity        declared inbound event capacity (0 = undeclared)
        silence_s       seconds since last heard
    bus               BusStats (published, matched, delivered_local,
                      delivered_remote, duplicates_dropped, unmatched,
                      from_unknown_member, subscriptions_active,
                      members_active, purged_members, turns, turn_events,
                      turn_high_water).  Member publications are counted
                      when their receive turn ends: turn_events / turns
                      is the mean number of events one socket drain
                      brought in and published as one batch (the
                      coalescing factor), turn_high_water the largest
                      single turn
    channels          aggregate ChannelStats over every member channel
                      (sent, delivered, retransmissions, fast_retransmits,
                      duplicates, out_of_order, reorder_drops, acks_sent,
                      backlog_shed; rtt_samples, srtt and rttvar of the
                      slowest path)
    transport         UDP socket counters
    discovery         DiscoveryStats (admissions, purges, degradations,
                      drains, drains_completed, drain_timeouts, ...)
    edge              EdgeStats (capacity_rejections, quench/wake
                      advisories, payloads_shed, sweeps)
    edge_quenched     member ids the edge guard holds quenched for
                      backlog (a member's proxy may hold other reasons)
    shard_loads       (sharded bus only) subscriptions per shard
    shard_events      (sharded bus only) events matched per shard
    workers           (worker pool only) WorkerPoolExecutor.stats_dict():
        workers, alive, pids            pool size; per worker liveness / pid
        executes, plans                 rounds run; plans shipped
        respawns, inline_fallbacks      replacement spawns; plans run on
                                        the host engines instead
        ipc_bytes_out, ipc_bytes_in     pipe traffic, both directions
        queue_depth, epoch_lag          per worker: deltas not yet sent;
                                        epochs its replicas are behind
        worker_events                   per worker: events matched
        memo_hits, memo_misses          per worker: its replica engines'
                                        satisfied-value memo counters as
                                        of its last reply (batch lookups
                                        happen there, not on the host):
                                        lookups that reached the memo
        quiet_readings                  per worker: readings that needed
                                        no lookup — strictly inside their
                                        name's alarm-free band (between
                                        its highest "below" and lowest
                                        "above" threshold)
        memo_ids_held                   per worker: ids its replicas'
                                        memos hold now (each attribute
                                        name's share is capped at 2**16)
    autonomic         (autonomic cell only) ticks, actuations (entries
                      in the audit log), audit_tail (its newest
                      server.AUDIT_TAIL, each time / controller / target /
                      action / detail)
"""

from __future__ import annotations

import errno
import json
import socket
from typing import Callable

from repro.errors import TransportError

SnapshotFn = Callable[[], dict]

#: How long one response may block the run loop on a slow probe.
SEND_TIMEOUT_S = 1.0

_RESPONSE_TEMPLATE = (
    "HTTP/1.0 200 OK\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: {length}\r\n"
    "Connection: close\r\n"
    "\r\n"
)


class HealthzEndpoint:
    """Serves JSON snapshots over loopback TCP; a scheduler pollable."""

    def __init__(self, snapshot: SnapshotFn, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self._snapshot = snapshot
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listener.bind((host, port))
        except OSError as exc:
            self._listener.close()
            raise TransportError(
                f"cannot bind healthz {host}:{port}: {exc}") from exc
        self._listener.listen(16)
        self._listener.setblocking(False)
        # Fork-safety: never leak the healthz listener into match workers.
        self._listener.set_inheritable(False)
        self.requests_served = 0
        self.errors = 0

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — port is OS-chosen when configured 0."""
        return self._listener.getsockname()

    # -- Pollable protocol -------------------------------------------------

    def fileno(self) -> int:
        return self._listener.fileno()

    def on_readable(self) -> None:
        """Accept and answer every queued connection."""
        while True:
            try:
                conn, _peer = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:
                if exc.errno in (errno.EAGAIN, errno.EWOULDBLOCK):
                    return
                raise TransportError(f"healthz accept failed: {exc}") from exc
            self._respond(conn)

    # -- internals ---------------------------------------------------------

    def _respond(self, conn: socket.socket) -> None:
        try:
            body = json.dumps(self._snapshot()).encode("utf-8")
            header = _RESPONSE_TEMPLATE.format(length=len(body))
            conn.settimeout(SEND_TIMEOUT_S)
            conn.sendall(header.encode("ascii") + body)
            self.requests_served += 1
        except OSError:
            # A probe that vanished mid-response is the client's problem;
            # counted, never fatal to the run loop.
            self.errors += 1
        finally:
            conn.close()

    def close(self) -> None:
        self._listener.close()


def read_healthz(address: tuple[str, int], timeout_s: float = 2.0,
                 pump: Callable[[], None] | None = None) -> dict:
    """Client half: connect, read one snapshot, parse the JSON body.

    Used by the localhost harness and the CI smoke job.  When the caller
    runs in the *same* thread as the server's scheduler loop (the
    harness/test pattern), pass a ``pump`` that drives the loop — e.g.
    ``lambda: server.run_for(0.2)`` — so the accept and send happen
    between the connect and the read.  Against a server running in
    another process, leave it None: the server sends the full response
    and closes as soon as its loop accepts, so read-to-EOF never stalls.
    """
    with socket.create_connection(address, timeout=timeout_s) as sock:
        if pump is not None:
            pump()
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    header, _, body = raw.partition(b"\r\n\r\n")
    if not body:
        raise TransportError(f"healthz response truncated: {raw[:80]!r}")
    return json.loads(body.decode("utf-8"))
