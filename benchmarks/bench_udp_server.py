"""Deployment-mode harness: 100+ real client sockets against one cell.

Unlike the simulation benchmarks, this one runs on the wall clock and
real loopback UDP — it is the measurement the paper's prototype chapter
describes, scaled to the deployment layer: N devices (each with its own
socket) join a :class:`~repro.deploy.server.CellServer` by rendezvous,
publish vitals through the bus, survive a silence/recovery cycle and a
purge-and-rejoin, and leave.  Assertions are deliberately conservative (loopback on a loaded
CI box), but the membership count and the throughput floor are hard:
the deployment layer must sustain at least 100 concurrent members
through the full discovery lifecycle.

A second, smaller rig gates what a receive turn is for: 16 closed-loop
sensors converge on one display, and what one socket drain brings in must
be published as one batch (``BusStats.turn_events / turns``) and leave in
fewer packets than events.
"""

import time

import pytest

from repro.deploy import CellServer, ServerConfig, make_devices, read_healthz
from repro.discovery.lifecycle import LifecycleState
from repro.matching.filters import Filter
from repro.smc.cell import CellConfig
from repro.transport.udp import TURN_DATAGRAMS

CLIENTS = 100
JOIN_TIMEOUT_S = 60.0
PUBLISH_WINDOW_S = 2.0
THROUGHPUT_FLOOR_EPS = 200.0      # events/s; loopback does thousands

WARD_SENSORS = 16
WARD_EVENTS = 8000
WARD_IN_FLIGHT = 64               # the closed loop's cap on unresolved events
TURN_COALESCING_FLOOR = 2.0       # events per turn; measured 64 (the cap)


@pytest.fixture
def server():
    config = ServerConfig(
        cell=CellConfig(cell_name="bench-ward",
                        beacon_period_s=0.2, heartbeat_period_s=0.2,
                        silent_after_s=1.0, purge_after_s=4.0,
                        sweep_period_s=0.2),
        discovery_port=0,
        max_members=CLIENTS + 1,
        guard_period_s=0.25,
    )
    cell_server = CellServer(config)
    cell_server.start()
    yield cell_server
    cell_server.close()


def pump(server, condition, timeout_s):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        server.run_for(0.05)
        if condition():
            return True
    return condition()


def test_hundred_clients_full_lifecycle(server, benchmark):
    devices = make_devices(server.scheduler, server.address, CLIENTS,
                           announce_retry_s=0.25, beacon_timeout_s=30.0)
    subscriber = make_devices(server.scheduler, server.address, 1,
                              name_prefix="display",
                              announce_retry_s=0.25,
                              beacon_timeout_s=30.0)[0]
    all_devices = devices + [subscriber]
    try:
        # -- join: every socket through announce -> admit ------------------
        join_started = time.monotonic()
        for device in all_devices:
            device.start()
        assert pump(server, lambda: all(d.joined for d in all_devices),
                    JOIN_TIMEOUT_S), (
            f"only {sum(d.joined for d in all_devices)}/{len(all_devices)} "
            f"joined within {JOIN_TIMEOUT_S}s")
        join_s = time.monotonic() - join_started
        assert pump(server,
                    lambda: len(server.cell.bus.members()) == len(all_devices),
                    10.0), "proxies missing after join"

        got = []
        subscriber.subscribe(Filter.where("vitals.hr", hr=(">", 120)),
                             got.append)
        assert pump(server,
                    lambda: server.cell.bus.stats.subscriptions_active >= 1,
                    5.0)

        # -- publish window ------------------------------------------------
        published = 0
        deadline = time.monotonic() + PUBLISH_WINDOW_S
        while time.monotonic() < deadline:
            for device in devices:
                if device.publish("vitals.hr",
                                  {"hr": 140.0, "patient": device.name}):
                    published += 1
            server.run_for(0.02)
        assert pump(server, lambda: len(got) >= published, 20.0), (
            f"delivered {len(got)}/{published} within the drain window")
        rate = published / PUBLISH_WINDOW_S
        assert rate >= THROUGHPUT_FLOOR_EPS, (
            f"throughput floor: {rate:.0f} ev/s < {THROUGHPUT_FLOOR_EPS}")

        # -- healthz over real TCP ----------------------------------------
        snapshot = read_healthz(server.healthz_address,
                                pump=lambda: server.run_for(0.2))
        assert snapshot["member_count"] == len(all_devices)
        assert snapshot["bus"]["matched"] >= published
        assert snapshot["edge"]["capacity_rejections"] == 0

        # -- silence -> DEGRADED -> recovery ------------------------------
        quiet = devices[0]
        quiet.agent._cancel_timers()           # mute heartbeats only
        table = server.cell.discovery.table
        assert pump(server,
                    lambda: (record := table.get(quiet.service_id)) is not None
                    and record.lifecycle is LifecycleState.DEGRADED,
                    10.0), "muted device never went DEGRADED"
        quiet.agent._start_heartbeats(0.2)     # resume before purge
        assert pump(server,
                    lambda: (record := table.get(quiet.service_id)) is not None
                    and record.lifecycle is LifecycleState.HEALTHY,
                    10.0), "silent device never recovered"
        assert server.cell.discovery.stats.recoveries >= 1

        # -- purge -> rejoin: a new session that works --------------------
        returner = devices[2]
        returner.freeze()                      # stalls past purge_after_s
        assert pump(server, lambda: table.get(returner.service_id) is None,
                    15.0), "stalled device never purged"
        returner.thaw()
        returner.leave()                       # forget the dead session
        returner.start()                       # ... and re-announce
        assert pump(server, lambda: returner.joined
                    and server.cell.bus.is_member(returner.service_id),
                    10.0), "purged device never rejoined"
        assert returner.agent.last_join_was_new
        delivered = len(got)
        returner.publish("vitals.hr", {"hr": 150.0, "patient": returner.name})
        assert pump(server, lambda: len(got) == delivered + 1, 10.0), \
            "publish after the rejoin was never delivered"
        proxy = server.cell.bus.proxy_of(returner.service_id)
        assert proxy.stats.events_published == 1
        assert server.cell.endpoint.existing_channel(
            returner.transport.local_address).stats.out_of_order == 0

        # -- polite drain: LEAVE all, then one purge by timeout -----------
        straggler = devices[1]
        straggler.agent._cancel_timers()       # goes silent, gets purged
        for device in all_devices:
            if device is not straggler:
                device.leave()
        assert pump(server, lambda: len(table) == 0, 30.0), (
            f"{len(table)} members remain after drain")
        # Every device once, and the returner's first session.
        assert server.cell.discovery.stats.purges == len(all_devices) + 1
        assert server.cell.discovery.stats.leaves == len(all_devices) - 1

        benchmark.extra_info["clients"] = len(all_devices)
        benchmark.extra_info["join_s"] = round(join_s, 2)
        benchmark.extra_info["publish_rate_eps"] = round(rate, 0)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    finally:
        for device in all_devices:
            device.close()


def test_a_ward_of_sensors_is_published_by_the_turn(benchmark):
    """16 sensors, one ~60 B reading per packet, one display, closed loop.

    The sensors' datagrams converge on one socket, so every drain hands
    up several publishes back to back: the bus must publish them as one
    batch per turn (coalescing factor >= 2) and the display must receive
    fewer DATA packets than events (one BATCH payload per turn, not one
    packet per reading).  Nothing is configured for it — no batch size,
    no timer: the sensors publish one reading per packet.
    """
    server = CellServer(ServerConfig(
        cell=CellConfig(cell_name="turn-ward"), discovery_port=0,
        healthz_host=None,
        # The closed loop keeps WARD_IN_FLIGHT deliveries queued toward
        # the display on purpose: load, not a member to quench or shed.
        quench_backlog=512, wake_backlog=128, shed_backlog=2048))
    server.start()
    sensors = make_devices(server.scheduler, server.address, WARD_SENSORS,
                           name_prefix="sensor", announce_retry_s=0.25)
    display = make_devices(server.scheduler, server.address, 1,
                           name_prefix="display", announce_retry_s=0.25)[0]
    everyone = sensors + [display]
    try:
        for device in everyone:
            device.start()
        assert pump(server, lambda: all(d.joined for d in everyone)
                    and len(server.cell.bus.members()) == len(everyone),
                    JOIN_TIMEOUT_S)
        got = []
        display.subscribe(Filter.where("vitals.hr"), got.append)
        stats = server.cell.bus.stats
        assert pump(server, lambda: stats.subscriptions_active >= 1, 5.0)
        # Counters are cumulative (joins publish too): gate the phase.
        turns, turn_events = stats.turns, stats.turn_events
        channel = display.endpoint.channel_to(server.address).stats
        packets = channel.delivered

        started = time.monotonic()
        published = 0
        while len(got) < WARD_EVENTS:
            while (published < WARD_EVENTS
                   and published - len(got) < WARD_IN_FLIGHT):
                sensor = sensors[published % WARD_SENSORS]
                sensor.publish("vitals.hr", {"hr": 60 + published % 90,
                                             "patient": sensor.name})
                published += 1
            assert time.monotonic() - started < 60.0, (
                f"delivered {len(got)}/{published}")
            server.run_for(0.002)
        elapsed = time.monotonic() - started

        turns = stats.turns - turns
        turn_events = stats.turn_events - turn_events
        packets = channel.delivered - packets
        assert turn_events == WARD_EVENTS
        coalescing = turn_events / turns
        assert coalescing >= TURN_COALESCING_FLOOR, (
            f"{turn_events} events in {turns} turns: {coalescing:.2f} "
            f"per turn < {TURN_COALESCING_FLOOR}")
        assert packets < WARD_EVENTS, (
            f"the display received {packets} DATA packets for "
            f"{WARD_EVENTS} events")
        assert stats.turn_high_water <= TURN_DATAGRAMS
        assert stats.published == (stats.matched + stats.unmatched
                                   + stats.duplicates_dropped
                                   + stats.from_unknown_member)

        benchmark.extra_info["events_per_turn"] = round(coalescing, 1)
        benchmark.extra_info["display_packets"] = packets
        benchmark.extra_info["rate_eps"] = round(WARD_EVENTS / elapsed, 0)
        print(f"\nturns: {WARD_EVENTS} events in {turns} turns "
              f"({coalescing:.1f}/turn, high water {stats.turn_high_water}), "
              f"{packets} DATA packets to the display, "
              f"{WARD_EVENTS / elapsed:.0f} ev/s")
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    finally:
        for device in everyone:
            device.close()
        server.close()
