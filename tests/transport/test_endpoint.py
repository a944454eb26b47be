"""PacketEndpoint: control/data demultiplexing, peer learning, channels."""

import pytest

from repro.errors import AddressError, PacketError
from repro.ids import service_id_from_name
from repro.transport.packets import Packet, PacketType


class TestPlanes:
    def test_control_packets_reach_control_handler(self, sim, endpoints):
        a, b = endpoints("a"), endpoints("b")
        seen = []
        b.set_control_handler(lambda pkt, src: seen.append((pkt.type, src)))
        a.send_control("b", PacketType.BEACON, b"cell-info")
        sim.run_until_idle()
        assert seen == [(PacketType.BEACON, "a")]

    def test_reliable_payloads_reach_payload_handler(self, sim, endpoints):
        a, b = endpoints("a"), endpoints("b")
        seen = []
        b.set_payload_handler(lambda peer, data: seen.append((peer, data)))
        a.send_reliable("b", b"payload")
        sim.run_until_idle()
        assert seen == [(service_id_from_name("a"), b"payload")]

    def test_raw_payloads_also_reach_payload_handler(self, sim, endpoints):
        a, b = endpoints("a"), endpoints("b")
        seen = []
        b.set_payload_handler(lambda peer, data: seen.append(data))
        a.send_raw("b", b"unack")
        sim.run_until_idle()
        assert seen == [b"unack"]

    def test_data_types_cannot_be_sent_as_control(self, sim, endpoints):
        a = endpoints("a")
        with pytest.raises(PacketError):
            a.send_control("b", PacketType.DATA, b"x")

    def test_broadcast_control(self, sim, endpoints):
        a = endpoints("a")
        seen = {}
        for name in ("b", "c"):
            endpoint = endpoints(name)
            seen[name] = []
            endpoint.set_control_handler(
                lambda pkt, src, n=name: seen[n].append(pkt.type))
        a.broadcast_control(PacketType.BEACON)
        sim.run_until_idle()
        assert seen == {"b": [PacketType.BEACON], "c": [PacketType.BEACON]}

    def test_own_broadcast_echo_ignored(self, sim, endpoints):
        a = endpoints("a")
        endpoints("b")
        seen = []
        a.set_control_handler(lambda pkt, src: seen.append(pkt))
        a.broadcast_control(PacketType.BEACON)
        sim.run_until_idle()
        assert seen == []

    def test_garbage_datagrams_counted_not_raised(self, sim, net, endpoints):
        b = endpoints("b")
        raw = net.add_node("raw-sender")
        raw.send("b", b"not a packet at all")
        sim.run_until_idle()
        assert b.decode_errors == 1


class TestPeerBookkeeping:
    def test_addresses_learned_from_any_packet(self, sim, endpoints):
        a, b = endpoints("a"), endpoints("b")
        b.set_control_handler(lambda pkt, src: None)
        a.send_control("b", PacketType.HEARTBEAT)
        sim.run_until_idle()
        assert b.address_of(service_id_from_name("a")) == "a"
        assert b.knows_peer(service_id_from_name("a"))

    def test_unknown_peer_raises(self, endpoints):
        a = endpoints("a")
        with pytest.raises(AddressError):
            a.address_of(service_id_from_name("stranger"))

    def test_learn_peer_manually(self, endpoints):
        a = endpoints("a")
        peer = service_id_from_name("remote")
        a.learn_peer(peer, "remote")
        assert a.address_of(peer) == "remote"

    def test_forget_peer(self, sim, endpoints):
        # close_channel forgets the peer: its channel and its address.
        a, b = endpoints("a"), endpoints("b")
        a.send_reliable("b", b"x")
        sim.run_until_idle()
        peer = service_id_from_name("a")
        b.close_channel(peer)
        assert not b.knows_peer(peer)
        assert b.existing_channel("a") is None


class TestChannels:
    def test_close_channel_reports_dropped_payloads(self, sim, net,
                                                    endpoints):
        a, b = endpoints("a"), endpoints("b")
        b.set_payload_handler(lambda peer, data: None)
        net.set_link_blocked("a", "b", True)
        a.learn_peer(service_id_from_name("b"), "b")
        for i in range(4):
            a.send_reliable("b", bytes([i]))
        dropped = a.close_channel(service_id_from_name("b"))
        assert dropped == 4

    def test_close_channel_without_channel_is_zero(self, endpoints):
        a = endpoints("a")
        a.learn_peer(service_id_from_name("b"), "b")
        assert a.close_channel(service_id_from_name("b")) == 0

    def test_one_sided_reset_desyncs_by_design(self, sim, net, endpoints):
        # Channel state is scoped to a membership session: if only one side
        # resets, the survivor treats the fresh sequence numbers as
        # duplicates.  This is why JOIN_ACK carries new_session and both
        # sides reset together.
        a, b = endpoints("a"), endpoints("b")
        got = []
        b.set_payload_handler(lambda peer, data: got.append(data))
        a.send_reliable("b", b"first")
        sim.run_until_idle()
        a.reset_channel_to("b")
        a.send_reliable("b", b"second")        # seq restarts at 1
        sim.run(5.0)
        assert got == [b"first"]               # suppressed as a duplicate

    def test_both_sides_reset_resyncs(self, sim, net, endpoints):
        a, b = endpoints("a"), endpoints("b")
        got = []
        b.set_payload_handler(lambda peer, data: got.append(data))
        a.send_reliable("b", b"first")
        sim.run_until_idle()
        a.reset_channel_to("b")
        b.reset_channel_to("a")
        a.send_reliable("b", b"second")
        sim.run_until_idle()
        assert got == [b"first", b"second"]

    def test_reset_unknown_address_is_noop(self, endpoints):
        a = endpoints("a")
        assert a.reset_channel_to("nowhere") == 0

    def test_sequential_payloads_in_order(self, sim, endpoints):
        a, b = endpoints("a"), endpoints("b")
        got = []
        b.set_payload_handler(lambda peer, data: got.append(data))
        for i in range(20):
            a.send_reliable("b", f"p{i}".encode())
        sim.run_until_idle()
        assert got == [f"p{i}".encode() for i in range(20)]

    def test_two_peers_independent_channels(self, sim, endpoints):
        a, b, c = endpoints("a"), endpoints("b"), endpoints("c")
        got_b, got_c = [], []
        b.set_payload_handler(lambda peer, data: got_b.append(data))
        c.set_payload_handler(lambda peer, data: got_c.append(data))
        a.send_reliable("b", b"to-b")
        a.send_reliable("c", b"to-c")
        sim.run_until_idle()
        assert got_b == [b"to-b"]
        assert got_c == [b"to-c"]


class TestRoamingPeers:
    """A peer has one channel, at its current address: a roam moves it,
    and teardown leaves nothing at any address the peer has used
    (regression: close_channel used to tear down only the latest
    address, and a roamed peer owned a channel at each)."""

    def _stranded(self, sim, net, endpoints, payloads=3):
        """A core with ``payloads`` events queued to peer "dev", whose
        acks never arrive; returns (core, dev service id)."""
        core, dev = endpoints("core"), endpoints("dev")
        dev.set_payload_handler(lambda peer, data: None)
        net.add_node("dev-roamed")                  # the peer's new home
        for address in ("dev", "dev-roamed"):     # nothing the core sends
            net.block_one_way("core", address, True)
        core.learn_peer(dev.service_id, "dev")
        for index in range(payloads):
            core.send_reliable("dev", bytes([index]))
        return core, dev.service_id

    def test_close_channel_drops_roamed_and_current_queues(
            self, sim, net, endpoints):
        core, dev_id = self._stranded(sim, net, endpoints)
        core.learn_peer(dev_id, "dev-roamed")     # peer roams
        core.send_reliable("dev-roamed", b"x")
        core.send_reliable("dev-roamed", b"y")
        assert core.existing_channel("dev") is None
        assert core.peer_channel(dev_id).unacked_count() == 5
        assert core.close_channel(dev_id) == 5    # 3 stranded + 2 new
        assert core.peer_channel(dev_id) is None
        assert core.existing_channel("dev") is None
        assert core.existing_channel("dev-roamed") is None

    def test_roam_learned_from_packets_not_just_learn_peer(
            self, sim, net, endpoints):
        core, dev = endpoints("core"), endpoints("dev")
        dev.set_payload_handler(lambda peer, data: None)
        core.set_payload_handler(lambda peer, data: None)
        dev.send_reliable("core", b"hello")       # channel at "dev"
        sim.run_until_idle()
        channel = core.existing_channel("dev")
        # The same service id now speaks from a new source address.
        roamed = net.add_node("dev-roamed")
        packet = Packet(type=PacketType.DATA,
                        sender=service_id_from_name("dev"), seq=2,
                        payload=b"from-new-home")
        roamed.send("core", packet.encode())
        sim.run_until_idle()
        assert core.address_of(service_id_from_name("dev")) == "dev-roamed"
        assert core.live_channels() == [channel]
        assert channel.peer_address == "dev-roamed"
        assert channel.stats.delivered == 2       # one sequence space
        core.close_channel(service_id_from_name("dev"))
        assert core.existing_channel("dev") is None
        assert core.existing_channel("dev-roamed") is None

    def test_forget_peer_clears_all_roamed_state(self, sim, net, endpoints):
        core, dev_id = self._stranded(sim, net, endpoints)
        core.learn_peer(dev_id, "dev-roamed")
        core.send_reliable("dev-roamed", b"x")
        core.close_channel(dev_id)
        assert not core.knows_peer(dev_id)
        assert core.live_channels() == []
        # Nothing stale is left behind in either map.
        assert core._address_peers == {} and core._peer_addresses == {}

    def test_address_handover_resets_old_peers_channel(
            self, sim, net, endpoints):
        # When an address changes hands, the previous peer's session
        # there is dead: its queued payloads must not surface at the new
        # occupant, and the new peer starts from a fresh channel.
        core = endpoints("core")
        endpoints("dev")
        net.add_node("shared-addr")
        net.set_link_blocked("core", "shared-addr", True)
        old_peer = service_id_from_name("dev")
        new_peer = service_id_from_name("other")
        core.learn_peer(old_peer, "shared-addr")
        core.send_reliable("shared-addr", b"old-session")
        # The address changes hands: a different peer now lives there.
        core.learn_peer(new_peer, "shared-addr")
        assert core.existing_channel("shared-addr") is None
        assert not core.knows_peer(old_peer)
        assert core.close_channel(old_peer) == 0    # nothing left to leak
        core.send_reliable("shared-addr", b"new-session")
        assert core.peer_channel(new_peer) is core.existing_channel(
            "shared-addr")
        assert core.close_channel(new_peer) == 1    # only its own payload


class TestChannelObservability:
    def test_channel_stats_aggregates_all_channels(self, sim, endpoints):
        a, b, c = endpoints("a"), endpoints("b"), endpoints("c")
        b.set_payload_handler(lambda peer, data: None)
        c.set_payload_handler(lambda peer, data: None)
        a.send_reliable("b", b"to-b")
        a.send_reliable("c", b"to-c")
        sim.run_until_idle()
        total = a.channel_stats()
        assert total.sent == 2
        assert total.retransmissions == 0
        assert b.channel_stats().delivered == 1
        assert c.channel_stats().acks_sent == 1

    def test_existing_channel_never_creates_state(self, sim, endpoints):
        a = endpoints("a")
        endpoints("b")
        assert a.existing_channel("b") is None      # no traffic yet
        a.send_reliable("b", b"x")
        sim.run_until_idle()
        assert a.existing_channel("b") is not None
        a.reset_channel_to("b")
        assert a.existing_channel("b") is None      # closed, not resurrected


class TestMovePeer:
    """learn_peer's roam: the peer's one channel moves to its new address
    with its queue, and what was in flight is resent there at once
    instead of retransmitting to the stale address."""

    def _stranded(self, sim, net, endpoints, payloads=3):
        core, dev = endpoints("core"), endpoints("dev")
        dev.set_payload_handler(lambda peer, data: None)
        net.block_one_way("core", "dev", True)
        core.learn_peer(dev.service_id, "dev")
        for index in range(payloads):
            core.send_reliable("dev", bytes([index]))
        return core, dev.service_id

    def _device_at(self, net, address, dev_id):
        """A raw transport standing in for the roamed device: same
        service id, new address; collects DATA payloads and ACKs them."""
        transport = net.add_node(address)
        got = []

        def on_datagram(src, data):
            packet = Packet.decode(data)
            if packet.type == PacketType.DATA:
                got.append(bytes(packet.payload))
                transport.send(src, Packet(type=PacketType.ACK,
                                           sender=dev_id,
                                           ack=packet.seq).encode())

        transport.set_receiver(on_datagram)
        return got

    def test_queued_payloads_follow_the_peer(self, sim, net, endpoints):
        core, dev_id = self._stranded(sim, net, endpoints)
        got = self._device_at(net, "dev-roamed", dev_id)
        net.block_one_way("core", "dev", False)
        core.learn_peer(dev_id, "dev-roamed")
        sim.run(0.001)                          # resent at once, no RTO
        assert got == [bytes([0]), bytes([1]), bytes([2])]
        assert core.address_of(dev_id) == "dev-roamed"
        assert core.live_channels() == [core.existing_channel("dev-roamed")]
        assert core.existing_channel("dev") is None

    def test_move_covers_every_superseded_address(self, sim, net,
                                                  endpoints):
        # A twice-roamed peer: one channel, moved twice, one queue.
        core, dev_id = self._stranded(sim, net, endpoints)
        net.add_node("dev-hop")
        net.block_one_way("core", "dev-hop", True)
        core.learn_peer(dev_id, "dev-hop")
        core.send_reliable("dev-hop", b"mid-roam")
        got = self._device_at(net, "dev-final", dev_id)
        net.block_one_way("core", "dev", False)
        core.learn_peer(dev_id, "dev-final")
        sim.run_until_idle()
        assert got == [bytes([0]), bytes([1]), bytes([2]), b"mid-roam"]
        assert core.live_channels() == [core.existing_channel("dev-final")]

    def test_move_to_current_address_is_noop(self, sim, net, endpoints):
        core, dev_id = self._stranded(sim, net, endpoints)
        channel = core.existing_channel("dev")
        core.learn_peer(dev_id, "dev")
        assert core.address_of(dev_id) == "dev"
        # The existing channel (with its in-flight state) survives.
        assert core.existing_channel("dev") is channel
        assert channel.stats.retransmissions == 0

    def test_move_with_no_channel_state(self, sim, net, endpoints):
        core = endpoints("core")
        endpoints("dev")
        net.add_node("dev-roamed")
        dev_id = service_id_from_name("dev")
        core.learn_peer(dev_id, "dev")
        core.learn_peer(dev_id, "dev-roamed")
        assert core.address_of(dev_id) == "dev-roamed"
        assert core.live_channels() == []


class TestAckDueAcrossTeardown:
    """A due (end-of-turn) ACK dies with its channel: nothing is sent on
    a closed channel, and nothing to an address the peer has left."""

    def _ack_due_at_core(self, sim, net, endpoints):
        """DATA from "dev" delivered at the core, ACK not yet flushed:
        the returned hook runs mid-turn, inside the payload upcall."""
        core, dev = endpoints("core"), endpoints("dev")
        net.add_node("dev-roamed")
        sent_to = []

        def note_core_sends(src, dest, data):
            if src == "core":
                sent_to.append(dest)
            return True

        net.tap = note_core_sends
        mid_turn = []
        core.set_payload_handler(
            lambda peer, data: [hook(peer) for hook in mid_turn])
        return core, dev, sent_to, mid_turn

    def test_roam_with_ack_due_sends_no_ack_to_old_address(
            self, sim, net, endpoints):
        core, dev, sent_to, mid_turn = self._ack_due_at_core(
            sim, net, endpoints)
        mid_turn.append(lambda peer: core.learn_peer(peer, "dev-roamed"))
        dev.send_reliable("core", b"moving")
        sim.run(0.01)
        assert sent_to == ["dev-roamed"]     # the due ACK moved with it
        assert core.existing_channel("dev") is None
        assert core.address_of(dev.service_id) == "dev-roamed"

    def test_reset_channel_drops_the_due_ack(self, sim, net, endpoints):
        core, dev, sent_to, mid_turn = self._ack_due_at_core(
            sim, net, endpoints)
        mid_turn.append(lambda peer: core.reset_channel_to("dev"))
        dev.send_reliable("core", b"x")
        sim.run(0.01)
        assert sent_to == []
        # The fresh channel the next packet creates owes nothing.
        assert core.channel_to("dev").stats.acks_sent == 0

    def test_endpoint_closed_mid_turn(self, sim, net, endpoints):
        core, dev, sent_to, mid_turn = self._ack_due_at_core(
            sim, net, endpoints)
        mid_turn.append(lambda peer: core.close())
        dev.send_reliable("core", b"x")
        sim.run(0.01)                        # must not raise
        assert sent_to == []

    def test_a_raising_turn_end_callback_does_not_cost_the_ack(
            self, sim, net, endpoints):
        # A turn always pays its debts.  The upcall runs before the
        # channel registers its ACK, so the failing callback comes first.
        core, dev = endpoints("core"), endpoints("dev")
        ran = []

        def boom():
            ran.append("boom")
            raise RuntimeError("flush failed")

        def second_boom():
            ran.append("second")
            raise ValueError("also failed")

        def upcall(peer, data):
            core.transport.call_at_turn_end(boom)
            core.transport.call_at_turn_end(second_boom)
            core.transport.call_at_turn_end(boom)      # once per turn

        core.set_payload_handler(upcall)
        dev.send_reliable("core", b"x")
        with pytest.raises(RuntimeError, match="flush failed"):
            sim.run_until_idle()                 # the first error, not lost
        assert ran == ["boom", "second"]
        assert core.channel_to("dev").stats.acks_sent == 1
        sim.run_until_idle()
        assert dev.channel_to("core").unacked_count() == 0

    def test_unchanged_mapping_skips_learn_peer_but_roam_still_learned(
            self, sim, net, endpoints):
        core, dev = endpoints("core"), endpoints("dev")
        core.set_payload_handler(lambda peer, data: None)
        learned = []
        real = core.learn_peer

        def learn_peer(peer, address):
            learned.append(address)
            real(peer, address)

        core.learn_peer = learn_peer
        for index in range(3):
            dev.send_reliable("core", bytes([index]))
            sim.run_until_idle()
        assert learned == ["dev"]            # first contact only
        roamed = net.add_node("dev-roamed")
        roamed.send("core", Packet(type=PacketType.HEARTBEAT,
                                   sender=dev.service_id).encode())
        sim.run_until_idle()
        assert learned == ["dev", "dev-roamed"]
        assert core.address_of(dev.service_id) == "dev-roamed"
