"""Real UDP transport on loopback — the paper's actual prototype transport.

These tests use real sockets bound to 127.0.0.1 with OS-chosen ports (as
the prototype did) and drive them by polling, so they stay single-threaded
and fast.
"""

import time

import pytest

from repro.errors import AddressError
from repro.ids import service_id_from_socket
from repro.sim.kernel import RealtimeScheduler
from repro.transport.endpoint import PacketEndpoint
from repro.transport.packets import PacketType
from repro.transport.udp import TURN_DATAGRAMS, UdpTransport


@pytest.fixture
def udp_pair():
    a = UdpTransport()
    b = UdpTransport()
    yield a, b
    a.close()
    b.close()


def poll_until(transports, condition, timeout=2.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for transport in transports:
            transport.poll()
        if condition():
            return True
        time.sleep(0.002)
    return False


class TestUdpTransport:
    def test_os_chooses_port(self, udp_pair):
        a, b = udp_pair
        assert a.local_address[1] != 0
        assert a.local_address != b.local_address

    def test_service_id_from_socket_address(self, udp_pair):
        a, _ = udp_pair
        host, port = a.local_address
        assert a.service_id == service_id_from_socket(host, port)

    def test_send_and_receive(self, udp_pair):
        a, b = udp_pair
        got = []
        b.set_receiver(lambda src, data: got.append((src, data)))
        a.send(b.local_address, b"over real sockets")
        assert poll_until([a, b], lambda: got)
        assert got[0][1] == b"over real sockets"
        assert got[0][0] == a.local_address

    def test_bidirectional(self, udp_pair):
        a, b = udp_pair
        got_a, got_b = [], []
        a.set_receiver(lambda src, data: got_a.append(data))
        b.set_receiver(lambda src, data: got_b.append(data))
        a.send(b.local_address, b"ping")
        assert poll_until([a, b], lambda: got_b)
        b.send(a.local_address, b"pong")
        assert poll_until([a, b], lambda: got_a)
        assert got_a == [b"pong"] and got_b == [b"ping"]

    def test_bad_address_rejected(self, udp_pair):
        a, _ = udp_pair
        with pytest.raises(AddressError):
            a.send("not-a-tuple", b"x")

    def test_peer_list_broadcast(self, udp_pair):
        a, b = udp_pair
        c = UdpTransport()
        try:
            got_b, got_c = [], []
            b.set_receiver(lambda src, data: got_b.append(data))
            c.set_receiver(lambda src, data: got_c.append(data))
            a.set_broadcast_peers([b.local_address, c.local_address])
            a.broadcast(b"hello all")
            assert poll_until([a, b, c], lambda: got_b and got_c)
            assert got_b == [b"hello all"]
            assert got_c == [b"hello all"]
        finally:
            c.close()


class TestUdpWithEndpoint:
    def test_reliable_payload_over_real_udp(self, udp_pair):
        a, b = udp_pair
        scheduler = RealtimeScheduler()
        ep_a = PacketEndpoint(a, scheduler)
        ep_b = PacketEndpoint(b, scheduler)
        got = []
        ep_b.set_payload_handler(lambda peer, data: got.append(data))
        ep_a.send_reliable(b.local_address, b"exactly once")
        assert poll_until([a, b], lambda: got)
        assert got == [b"exactly once"]

    def test_control_over_real_udp(self, udp_pair):
        a, b = udp_pair
        scheduler = RealtimeScheduler()
        ep_a = PacketEndpoint(a, scheduler)
        ep_b = PacketEndpoint(b, scheduler)
        seen = []
        ep_b.set_control_handler(lambda pkt, src: seen.append(pkt.type))
        ep_a.send_control(b.local_address, PacketType.ANNOUNCE, b"dev-info")
        assert poll_until([a, b], lambda: seen)
        assert seen == [PacketType.ANNOUNCE]

    def test_many_ordered_payloads(self, udp_pair):
        a, b = udp_pair
        scheduler = RealtimeScheduler()
        ep_a = PacketEndpoint(a, scheduler, window=4)
        ep_b = PacketEndpoint(b, scheduler)
        got = []
        ep_b.set_payload_handler(lambda peer, data: got.append(data))
        expected = [f"m{i}".encode() for i in range(30)]
        for message in expected:
            ep_a.send_reliable(b.local_address, message)
        assert poll_until([a, b], lambda: len(got) == 30, timeout=5.0)
        assert got == expected


class TestBoundedTurn:
    """One socket drain is one receive turn, and a turn is bounded."""

    def test_a_flood_that_refills_the_socket_cannot_hold_a_turn_open(
            self, udp_pair):
        # The hostile case: every datagram read puts another one in, so
        # the socket is never empty while the flood lasts.  Unbounded,
        # one drain (one turn: its ACKs, the timers, the turn queue)
        # would span all of it.
        a, b = udp_pair
        total = 10 * TURN_DATAGRAMS
        sent = received = in_turn = 0
        turn_sizes = []

        def send_one():
            nonlocal sent
            a.send(b.local_address, sent.to_bytes(4, "big"))
            sent += 1

        def end_of_turn():
            nonlocal in_turn
            turn_sizes.append(in_turn)
            in_turn = 0

        def receive(src, data):
            nonlocal received, in_turn
            assert int.from_bytes(data, "big") == received      # in order
            received += 1
            in_turn += 1
            b.call_at_turn_end(end_of_turn)
            if sent < total:
                send_one()

        b.set_receiver(receive)
        for _ in range(8):
            send_one()
        assert poll_until([b], lambda: received == total)
        assert sent == total                        # every datagram came up
        assert sum(turn_sizes) == total
        assert len(turn_sizes) >= 10
        assert max(turn_sizes) <= TURN_DATAGRAMS

    def test_a_short_drain_ends_its_turn_at_once(self, udp_pair):
        a, b = udp_pair
        ends = []
        b.set_receiver(lambda src, data: b.call_at_turn_end(
            lambda: ends.append(data)))
        a.send(b.local_address, b"one")
        assert poll_until([b], lambda: ends)
        assert ends == [b"one"]
        b.call_at_turn_end(lambda: ends.append(b"outside"))  # no drain open
        assert ends == [b"one", b"outside"]

    def test_a_raising_callback_still_lets_the_rest_of_the_turn_end(
            self, udp_pair):
        a, b = udp_pair
        ran = []

        def boom():
            raise RuntimeError("flush failed")

        def receive(src, data):
            b.call_at_turn_end(boom)
            b.call_at_turn_end(lambda: ran.append(data))

        b.set_receiver(receive)
        a.send(b.local_address, b"x")
        with pytest.raises(RuntimeError, match="flush failed"):
            poll_until([b], lambda: ran)
        assert ran == [b"x"]
        b.call_at_turn_end(lambda: ran.append(b"turn closed"))
        assert ran == [b"x", b"turn closed"]


class TestRealtimeScheduler:
    def test_timers_fire(self):
        scheduler = RealtimeScheduler()
        fired = []
        scheduler.call_later(0.01, lambda: fired.append(scheduler.now()))
        scheduler.run_for(0.1)
        assert len(fired) == 1

    def test_pollable_integration(self, udp_pair):
        a, b = udp_pair
        scheduler = RealtimeScheduler()
        got = []
        b.set_receiver(lambda src, data: got.append(data))
        scheduler.register_pollable(b)
        scheduler.call_later(0.01, a.send, b.local_address, b"via loop")
        scheduler.run_for(0.3)
        scheduler.unregister_pollable(b)
        assert got == [b"via loop"]

    def test_stop(self):
        scheduler = RealtimeScheduler()
        scheduler.call_later(0.005, scheduler.stop)
        start = time.monotonic()
        scheduler.run_for(5.0)
        assert time.monotonic() - start < 2.0


class TestBroadcastSocketPollable:
    """Satellite 1: the broadcast/discovery socket must be a pollable.

    Before the fix, only the unicast socket was exposed through
    fileno()/on_readable(), so a scheduler-driven deployment never
    drained discovery traffic — BEACONs and ANNOUNCEs arrived on a
    socket nobody selected on.
    """

    def test_pollables_cover_both_sockets(self):
        t = UdpTransport(listen_for_broadcast=True, discovery_port=0)
        try:
            polls = t.pollables()
            assert len(polls) == 2
            assert polls[0] is t
            fds = {p.fileno() for p in polls}
            assert len(fds) == 2 and -1 not in fds
        finally:
            t.close()

    def test_unicast_only_transport_has_one_pollable(self, udp_pair):
        a, _ = udp_pair
        assert a.pollables() == [a]

    def test_scheduler_drains_broadcast_socket(self, udp_pair):
        a, _ = udp_pair
        listener = UdpTransport(listen_for_broadcast=True, discovery_port=0)
        scheduler = RealtimeScheduler()
        try:
            got = []
            listener.set_receiver(lambda src, data: got.append(data))
            scheduler.register_pollables(listener.pollables())
            # Send to the *discovery* socket, not the unicast one: only
            # the broadcast pollable can deliver this.
            dest = ("127.0.0.1", listener.discovery_port)
            scheduler.call_later(0.01, a.send, dest, b"beacon traffic")
            scheduler.run_for(0.3)
            assert got == [b"beacon traffic"]
        finally:
            scheduler.unregister_pollable(listener)
            listener.close()

    def test_unregister_after_close_is_safe(self):
        # Closed sockets report fileno() == -1; the scheduler must
        # unregister by the fd it recorded at registration time.
        t = UdpTransport(listen_for_broadcast=True, discovery_port=0)
        scheduler = RealtimeScheduler()
        scheduler.register_pollables(t.pollables())
        assert scheduler.pollable_count() == 2
        polls = t.pollables()
        t.close()
        for pollable in polls:
            scheduler.unregister_pollable(pollable)
        assert scheduler.pollable_count() == 0


class TestCloseIdempotency:
    """Satellite 3: close() must release both sockets, every path.

    The old close() gated on ``self.closed`` — if the base-class flag was
    already set (a concurrent or double close), the broadcast socket was
    never closed and its discovery-port bind leaked until GC.
    """

    def test_double_close_releases_broadcast_socket(self):
        t = UdpTransport(listen_for_broadcast=True, discovery_port=0)
        port = t.discovery_port
        t.close()
        t.close()                       # second close: must not raise
        assert t.fileno() == -1
        assert t._broadcast_socket.fileno() == -1
        # The discovery port is genuinely free again.
        rebound = UdpTransport(listen_for_broadcast=True,
                               discovery_port=port)
        rebound.close()

    def test_close_after_base_class_flag_set(self):
        from repro.transport.base import Transport

        t = UdpTransport(listen_for_broadcast=True, discovery_port=0)
        # Simulate the race: the base path marks the transport closed
        # first (as a concurrent closer would), then our close() runs.
        Transport.close(t)
        assert t.closed
        t.close()
        assert t.fileno() == -1
        assert t._broadcast_socket.fileno() == -1


class TestDirectedOnlyBroadcast:
    def test_empty_domain_is_noop(self):
        t = UdpTransport(directed_only=True)
        try:
            t.broadcast(b"nobody home")     # must not raise or sendto
        finally:
            t.close()

    def test_peers_still_reached(self, udp_pair):
        a, b = udp_pair
        sender = UdpTransport(directed_only=True)
        try:
            got = []
            b.set_receiver(lambda src, data: got.append(data))
            sender.set_broadcast_peers([b.local_address])
            sender.broadcast(b"directed")
            assert poll_until([sender, b], lambda: got)
            assert got == [b"directed"]
        finally:
            sender.close()
