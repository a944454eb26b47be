"""Proxies and the bootstrap mechanism (paper Sections III-B, III-C)."""

import pytest

from repro.core import protocol
from repro.core.events import Event
from repro.core.protocol import BusOp
from repro.core.proxies import SensorProxy, ServiceProxy
from repro.devices.protocols import HeartRateProtocol
from repro.errors import ConfigurationError
from repro.ids import service_id_from_name
from repro.matching.filters import Filter
from repro.transport.endpoint import PacketEndpoint
from repro.transport.simnet import SimTransport


class TestBootstrap:
    def test_new_member_event_creates_proxy(self, kit):
        endpoint = kit.device_endpoint("dev")
        member = kit.admit(endpoint)
        assert kit.bus.is_member(member)
        assert kit.bootstrap.stats.proxies_created == 1
        assert isinstance(kit.bus.proxy_of(member), ServiceProxy)

    def test_registered_translator_selects_sensor_proxy(self, kit):
        kit.bootstrap.register_translator(HeartRateProtocol("p-1"))
        endpoint = kit.device_endpoint("hr")
        member = kit.admit(endpoint, device_type="sensor.hr")
        proxy = kit.bus.proxy_of(member)
        assert isinstance(proxy, SensorProxy)
        assert proxy.device_type == "sensor.hr"

    def test_duplicate_translator_rejected(self, kit):
        kit.bootstrap.register_translator(HeartRateProtocol("p-1"))
        with pytest.raises(ConfigurationError):
            kit.bootstrap.register_translator(HeartRateProtocol("p-2"))

    def test_duplicate_new_member_event_is_idempotent(self, kit):
        endpoint = kit.device_endpoint("dev")
        kit.admit(endpoint)
        kit.admit(endpoint)          # duplicate event
        assert kit.bootstrap.stats.proxies_created == 1

    def test_unknown_device_type_uses_default_factory(self, kit):
        endpoint = kit.device_endpoint("strange")
        member = kit.admit(endpoint, device_type="gadget.v9")
        assert isinstance(kit.bus.proxy_of(member), ServiceProxy)

    def test_malformed_member_event_counted(self, kit):
        kit.discovery.publish("smc.member.new", {"member": "not-an-int",
                                                 "name": "x"})
        kit.sim.run_until_idle()
        assert kit.bootstrap.stats.creation_failures == 1

    def test_payload_from_nonmember_dropped(self, kit, sim):
        endpoint = kit.device_endpoint("stranger")
        endpoint.send_reliable("core", protocol.frame(BusOp.PUBLISH, b""))
        sim.run_until_idle()
        assert kit.bootstrap.stats.payloads_from_nonmembers == 1
        assert kit.bus.stats.from_unknown_member == 1

    def test_address_formatting(self):
        from repro.core.bootstrap import format_address
        assert format_address(("10.0.0.1", 8080)) == "10.0.0.1:8080"
        assert format_address("node-name") == "node-name"


class TestServiceProxyFlow:
    def test_publish_through_proxy(self, kit, sim):
        got = []
        kit.bus.subscribe_local(Filter.where("t"), got.append)
        client = kit.client("dev")
        client.publish("t", {"v": 7})
        sim.run_until_idle()
        assert [e.get("v") for e in got] == [7]
        proxy = kit.bus.proxy_of(client.service_id)
        assert proxy.stats.events_published == 1

    def test_subscribe_and_deliver_through_proxy(self, kit, sim):
        client = kit.client("dev")
        got = []
        client.subscribe(Filter.where("t"), got.append)
        sim.run_until_idle()
        kit.bus.local_publisher("svc").publish("t", {"v": 1})
        sim.run_until_idle()
        assert [e.get("v") for e in got] == [1]

    def test_unsubscribe_through_proxy(self, kit, sim):
        client = kit.client("dev")
        got = []
        sub_id = client.subscribe(Filter.where("t"), got.append)
        sim.run_until_idle()
        client.unsubscribe(sub_id)
        sim.run_until_idle()
        kit.bus.local_publisher("svc").publish("t")
        sim.run_until_idle()
        assert got == []
        assert kit.bus.subscriptions_of(client.service_id) == set()

    def test_member_delivered_once_despite_overlapping_subs(self, kit, sim):
        client = kit.client("dev")
        got = []
        client.subscribe(Filter.where("t"), got.append)
        client.subscribe(Filter.for_type_prefix("t"), got.append)
        sim.run_until_idle()
        kit.bus.local_publisher("svc").publish("t")
        sim.run_until_idle()
        # The bus sends the event to the member once; the client dispatches
        # it to both matching callbacks.
        assert kit.bus.proxy_of(client.service_id).stats.events_delivered == 1
        assert len(got) == 2
        assert client.stats.delivered == 1

    def test_malformed_payload_counted(self, kit, sim):
        endpoint = kit.device_endpoint("dev")
        member = kit.admit(endpoint)
        endpoint.send_reliable("core", b"\xff garbage")
        sim.run_until_idle()
        assert kit.bus.proxy_of(member).stats.malformed_payloads == 1

    def test_reused_client_sub_id_counted_malformed(self, kit, sim):
        from repro.matching.filters import Subscription, encode_subscription
        endpoint = kit.device_endpoint("dev")
        member = kit.admit(endpoint)
        sub = Subscription(1, endpoint.service_id, [Filter.where("t")])
        frame = protocol.frame(BusOp.SUBSCRIBE, encode_subscription(sub))
        endpoint.send_reliable("core", frame)
        endpoint.send_reliable("core", frame)
        sim.run_until_idle()
        assert kit.bus.proxy_of(member).stats.malformed_payloads == 1
        assert len(kit.bus.subscriptions_of(member)) == 1


class TestPurgeSelfDestruct:
    def test_purge_destroys_proxy_and_membership(self, kit, sim):
        client = kit.client("dev")
        member = client.service_id
        proxy = kit.bus.proxy_of(member)
        kit.purge(member)
        assert proxy.destroyed
        assert not kit.bus.is_member(member)

    def test_purge_removes_subscriptions(self, kit, sim):
        client = kit.client("dev")
        client.subscribe(Filter.where("t"), lambda e: None)
        sim.run_until_idle()
        assert kit.bus.stats.subscriptions_active >= 1
        kit.purge(client.service_id)
        assert kit.bus.subscriptions_of(client.service_id) == set()

    def test_purge_drops_queued_events(self, kit, sim, net):
        client = kit.client("dev")
        client.subscribe(Filter.where("t"), lambda e: None)
        sim.run_until_idle()
        # Cut the device off, queue events for it, then purge.
        net.block_one_way("core", "dev", True)
        publisher = kit.bus.local_publisher("svc")
        for _ in range(5):
            publisher.publish("t")
        sim.run(2.0)
        proxy = kit.bus.proxy_of(client.service_id)
        kit.purge(client.service_id)
        assert proxy.stats.dropped_on_destroy >= 4
        # Nothing arrives even after the partition heals.
        net.block_one_way("core", "dev", False)
        before = client.stats.delivered
        sim.run(10.0)
        assert client.stats.delivered == before

    def test_purge_of_other_member_leaves_proxy_alone(self, kit, sim):
        client_a = kit.client("dev-a")
        client_b = kit.client("dev-b")
        kit.purge(client_a.service_id)
        assert not kit.bus.is_member(client_a.service_id)
        assert kit.bus.is_member(client_b.service_id)

    def test_destroy_is_idempotent(self, kit):
        client = kit.client("dev")
        proxy = kit.bus.proxy_of(client.service_id)
        proxy.destroy()
        proxy.destroy()
        assert not kit.bus.is_member(client.service_id)


class TestMembersDoNotSpeakForTheCell:
    """Only the cell publishes ``smc.member.*``: a member's PUBLISH of
    one is refused at its proxy, before the bus (and the proxies and
    bootstrap subscribed to those types) can act on it."""

    def test_forged_purge_leaves_the_victim_alive(self, kit, sim):
        victim = kit.client("victim")
        victim.subscribe(Filter.where("t"), lambda e: None)
        forger = kit.client("forger")
        sim.run_until_idle()
        forger.publish("smc.member.purge", {
            "member": int(victim.service_id), "name": "victim",
            "reason": "forged"})
        sim.run_until_idle()
        proxy = kit.bus.proxy_of(victim.service_id)
        assert not proxy.destroyed
        assert kit.bus.subscriptions_of(victim.service_id)
        assert kit.bus.proxy_of(
            forger.service_id).stats.forged_member_events == 1

    def test_forged_new_member_creates_no_proxy(self, kit, sim):
        forger = kit.client("forger")
        # A peer the endpoint has heard from, but discovery never admitted.
        stranger = kit.device_endpoint("stranger")
        stranger.send_reliable("core", protocol.frame(BusOp.PUBLISH, b""))
        sim.run_until_idle()
        forger.publish("smc.member.new", {
            "member": int(stranger.service_id), "name": "stranger",
            "device_type": "service", "address": "stranger"})
        sim.run_until_idle()
        assert not kit.bus.is_member(stranger.service_id)
        assert kit.bootstrap.stats.proxies_created == 1      # the forger
        assert kit.bus.proxy_of(
            forger.service_id).stats.forged_member_events == 1

    def test_new_member_the_endpoint_never_heard_is_a_failure(self, kit):
        member = service_id_from_name("nowhere")
        kit.discovery.publish("smc.member.new", {
            "member": int(member), "name": "nowhere",
            "device_type": "service", "address": "nowhere"})
        kit.sim.run_until_idle()
        assert not kit.bus.is_member(member)
        assert kit.bootstrap.stats.creation_failures == 1


class TestAddressHandover:
    def test_proxy_whose_address_changed_hands_sends_nothing(self, kit, sim,
                                                             net):
        # A member goes quiet and another peer turns up at its address
        # (a NAT rebind): the member's session there is reset, and until
        # it is heard again its proxy has nowhere to send.
        client = kit.client("dev")
        client.subscribe(Filter.where("t"), lambda e: None)
        sim.run_until_idle()
        proxy = kit.bus.proxy_of(client.service_id)
        # The member moves off, and another peer takes its address.
        newcomer = PacketEndpoint(SimTransport(net, "dev"), sim)
        newcomer.transport._service_id = service_id_from_name("newcomer")
        newcomer.send_reliable("core", protocol.frame(BusOp.PUBLISH, b""))
        sim.run_until_idle()
        assert not kit.core_endpoint.knows_peer(client.service_id)
        kit.bus.local_publisher("svc").publish("t")
        assert proxy.set_quench("backlog", True)
        sim.run_until_idle()                          # must not raise
        assert proxy.stats.events_delivered == 0
        assert kit.core_endpoint.peer_channel(client.service_id) is None
        assert kit.core_endpoint.peer_channel(newcomer.service_id) \
            .stats.delivered == 1                     # its own, only


class TestSensorProxyTranslation:
    def make_sensor(self, kit, forward_acks=False):
        kit.bootstrap.register_translator(HeartRateProtocol("p-1"),
                                          forward_acks=forward_acks)
        endpoint = kit.device_endpoint("hr")
        member = kit.admit(endpoint, device_type="sensor.hr")
        return endpoint, member

    def test_reading_translated_to_event(self, kit, sim):
        endpoint, member = self.make_sensor(kit)
        got = []
        kit.bus.subscribe_local(Filter.where("health.hr"), got.append)
        reading = HeartRateProtocol("p-1").encode_reading(141.5, alarm=True)
        endpoint.send_reliable("core",
                               protocol.frame(BusOp.DEVICE_DATA, reading))
        sim.run_until_idle()
        assert len(got) == 1
        event = got[0]
        assert event.get("hr") == 141.5
        assert event.get("alarm") is True
        assert event.get("patient") == "p-1"
        assert event.sender == member        # stamped as the device

    def test_proxy_assigns_monotonic_seqnos(self, kit, sim):
        endpoint, member = self.make_sensor(kit)
        got = []
        kit.bus.subscribe_local(Filter.where("health.hr"), got.append)
        proto = HeartRateProtocol("p-1")
        for bpm in (60.0, 61.0, 62.0):
            endpoint.send_reliable("core", protocol.frame(
                BusOp.DEVICE_DATA, proto.encode_reading(bpm)))
        sim.run_until_idle()
        assert [e.seqno for e in got] == [1, 2, 3]

    def test_corrupt_reading_dropped(self, kit, sim):
        endpoint, member = self.make_sensor(kit)
        endpoint.send_reliable("core", protocol.frame(
            BusOp.DEVICE_DATA, b"\x48\x01\xff\xff"))
        sim.run_until_idle()
        proxy = kit.bus.proxy_of(member)
        assert proxy.stats.malformed_payloads == 1
        assert proxy.stats.readings_translated == 0

    def test_command_event_translated_to_device_bytes(self, kit, sim):
        endpoint, member = self.make_sensor(kit)
        got = []
        endpoint.set_payload_handler(lambda peer, data: got.append(data))
        # The proxy auto-subscribed for set_threshold commands.
        kit.bus.local_publisher("policy").publish(
            "smc.cmd.set_threshold", {"target": "monitor", "value": 130})
        sim.run_until_idle()
        assert len(got) == 1
        op, body = protocol.unframe(got[0])
        assert op == BusOp.DEVICE_CMD
        decoded = HeartRateProtocol("p-1").decode_command(body)
        assert decoded == ("set_threshold", 130.0)

    def test_untranslatable_command_dropped_silently(self, kit, sim):
        endpoint, member = self.make_sensor(kit)
        got = []
        endpoint.set_payload_handler(lambda peer, data: got.append(data))
        kit.bus.local_publisher("policy").publish(
            "smc.cmd.set_threshold", {"target": "monitor",
                                      "value": "not-a-number"})
        sim.run_until_idle()
        assert got == []

    def test_ack_forwarded_when_configured(self, kit, sim):
        endpoint, member = self.make_sensor(kit, forward_acks=True)
        got = []
        endpoint.set_payload_handler(lambda peer, data: got.append(data))
        proto = HeartRateProtocol("p-1")
        endpoint.send_reliable("core", protocol.frame(
            BusOp.DEVICE_DATA, proto.encode_reading(70.0)))
        sim.run_until_idle()
        acks = [data for data in got
                if protocol.unframe(data)[0] == BusOp.DEVICE_CMD
                and proto.is_ack(protocol.unframe(data)[1])]
        assert len(acks) == 1

    def test_no_ack_by_default(self, kit, sim):
        endpoint, member = self.make_sensor(kit, forward_acks=False)
        got = []
        endpoint.set_payload_handler(lambda peer, data: got.append(data))
        endpoint.send_reliable("core", protocol.frame(
            BusOp.DEVICE_DATA,
            HeartRateProtocol("p-1").encode_reading(70.0)))
        sim.run_until_idle()
        assert got == []


class TestProtocolFrames:
    def test_frame_unframe(self):
        framed = protocol.frame(BusOp.PUBLISH, b"body")
        assert protocol.unframe(framed) == (BusOp.PUBLISH, b"body")

    def test_empty_payload_rejected(self):
        from repro.errors import CodecError
        with pytest.raises(CodecError):
            protocol.unframe(b"")

    def test_unknown_opcode_rejected(self):
        from repro.errors import CodecError
        with pytest.raises(CodecError):
            protocol.unframe(b"\xee")

    def test_quench_frames(self):
        assert protocol.parse_quench(
            protocol.unframe(protocol.frame_quench(True))[1]) is True
        assert protocol.parse_quench(
            protocol.unframe(protocol.frame_quench(False))[1]) is False

    def test_unsubscribe_frame(self):
        framed = protocol.frame_unsubscribe(77)
        op, body = protocol.unframe(framed)
        assert op == BusOp.UNSUBSCRIBE
        assert protocol.parse_unsubscribe(body) == 77

    def test_trailing_bytes_rejected(self):
        from repro.errors import CodecError
        with pytest.raises(CodecError):
            protocol.parse_unsubscribe(b"\x05extra")


class TestBatchFrames:
    def test_batch_roundtrip(self):
        frames = [protocol.frame(BusOp.PUBLISH, b"a"),
                  protocol.frame(BusOp.SUBSCRIBE, b"bb")]
        payload = protocol.frame_batch(frames)
        op, body = protocol.unframe(payload)
        assert op == BusOp.BATCH
        assert protocol.parse_batch(body) == frames

    def test_chunk_single_frame_unwrapped(self):
        frame = protocol.frame(BusOp.PUBLISH, b"solo")
        assert protocol.chunk_frames([frame]) == [frame]

    def test_chunk_many_small_frames_one_payload(self):
        frames = [protocol.frame(BusOp.PUBLISH, bytes([i])) for i in range(20)]
        payloads = protocol.chunk_frames(frames)
        assert len(payloads) == 1
        assert protocol.parse_batch(protocol.unframe(payloads[0])[1]) == frames

    def test_chunk_respects_flush_cap(self):
        frames = [protocol.frame(BusOp.PUBLISH, b"x" * 100) for _ in range(10)]
        payloads = protocol.chunk_frames(frames, max_bytes=250)
        assert len(payloads) > 1
        reassembled = []
        for payload in payloads:
            op, body = protocol.unframe(payload)
            if op == BusOp.BATCH:
                reassembled.extend(protocol.parse_batch(body))
            else:
                reassembled.append(payload)
        assert reassembled == frames

    def test_oversized_frame_passes_alone(self):
        big = protocol.frame(BusOp.PUBLISH, b"y" * 500)
        small = protocol.frame(BusOp.PUBLISH, b"z")
        payloads = protocol.chunk_frames([big, small], max_bytes=100)
        assert payloads[0] == big          # unwrapped, by itself

    def test_count_publications(self):
        publish = protocol.frame(BusOp.PUBLISH, b"e")
        other = protocol.frame(BusOp.SUBSCRIBE, b"s")
        assert protocol.count_publications(publish) == 1
        assert protocol.count_publications(other) == 0
        assert protocol.count_publications(
            protocol.frame_batch([publish, other, publish])) == 2
        assert protocol.count_publications(b"") == 0

    def test_member_batch_of_publishes_uses_bus_batch_path(self, kit, sim):
        from repro.core.events import Event, encode_event
        got = []
        kit.bus.subscribe_local(Filter.where("t"), got.append)
        endpoint = kit.device_endpoint("dev")
        member = kit.admit(endpoint)
        frames = [protocol.frame(BusOp.PUBLISH, encode_event(
            Event("t", {"n": i}, endpoint.service_id, i + 1, 0.0)))
            for i in range(5)]
        endpoint.send_reliable("core", protocol.frame_batch(frames))
        sim.run_until_idle()
        assert [e.get("n") for e in got] == list(range(5))
        proxy = kit.bus.proxy_of(member)
        assert proxy.stats.batches_received == 1
        assert proxy.stats.events_published == 5

    def test_deliver_is_deliver_batch_of_one(self, kit, sim, monkeypatch):
        """One body: whatever capacity the member declared, ``deliver(e)``
        queues the payload bytes ``deliver_batch([e])`` queues and counts
        the same — a flush of one is a flush."""
        from repro.core.events import Event
        proxy = kit.bus.proxy_of(kit.admit(kit.device_endpoint("dev")))
        event = Event("t", {"n": 1}, kit.bus.service_id, 1, 0.0)
        sent = []
        monkeypatch.setattr(
            proxy.endpoint, "send_reliable",
            lambda _address, payload: sent.append(bytes(payload)))
        for capacity in (0, 1, 3):
            proxy.capacity = capacity
            before = (proxy.stats.events_delivered,
                      proxy.stats.batches_flushed)
            proxy.deliver(event)
            proxy.deliver_batch([event])
            assert sent == [protocol.deliver_frame(event)] * 2
            assert (proxy.stats.events_delivered,
                    proxy.stats.batches_flushed) == (before[0] + 2,
                                                     before[1] + 2)
            sent.clear()

    def test_nested_batch_counted_malformed(self, kit, sim):
        endpoint = kit.device_endpoint("dev")
        member = kit.admit(endpoint)
        inner = protocol.frame_batch([protocol.frame(BusOp.PUBLISH, b"")])
        endpoint.send_reliable("core", protocol.frame_batch([inner]))
        sim.run_until_idle()
        assert kit.bus.proxy_of(member).stats.malformed_payloads == 1


class TestFanOutEncodeMemo:
    """PR 5: dispatch TLV-encodes each matched event exactly once however
    many proxies the fan-out reaches (the DeliverMemo), and the shared
    payload is byte-identical to the per-proxy encoding it replaced."""

    def count_encodes(self, monkeypatch):
        """Count every event framing through the protocol layer."""
        counter = {"n": 0}
        real = protocol.event_frame_parts

        def counting(op, event):
            counter["n"] += 1
            return real(op, event)

        monkeypatch.setattr(protocol, "event_frame_parts", counting)
        return counter

    def fan_out(self, kit, n):
        clients, inboxes = [], []
        for i in range(n):
            client = kit.client(f"sub-{i}")
            got = []
            client.subscribe(Filter.where("t"), got.append)
            clients.append(client)
            inboxes.append(got)
        kit.sim.run_until_idle()
        return clients, inboxes

    def test_single_event_encoded_once_for_n_proxies(self, kit, sim,
                                                     monkeypatch):
        _, inboxes = self.fan_out(kit, 8)
        counter = self.count_encodes(monkeypatch)
        kit.bus.local_publisher("svc").publish("t", {"v": 1})
        sim.run_until_idle()
        assert all(len(got) == 1 for got in inboxes)
        assert all(got[0].get("v") == 1 for got in inboxes)
        assert counter["n"] == 1      # one TLV encode for 8 subscribers

    def test_batch_encoded_once_per_event(self, kit, sim, monkeypatch):
        _, inboxes = self.fan_out(kit, 5)
        counter = self.count_encodes(monkeypatch)
        kit.bus.local_publisher("svc").publish_batch(
            [("t", {"n": i}) for i in range(7)])
        sim.run_until_idle()
        assert all([e.get("n") for e in got] == list(range(7))
                   for got in inboxes)
        assert counter["n"] == 7      # once per event, not per subscriber

    def test_translating_proxy_still_encodes_per_member(self, kit, sim,
                                                        monkeypatch):
        # A SensorProxy's outbound bytes are per-device translations; the
        # memo must not short-circuit them.
        kit.bootstrap.register_translator(HeartRateProtocol("p-1"))
        endpoint = kit.device_endpoint("hr-dev")
        member = kit.admit(endpoint, name="hr", device_type="sensor.hr")
        proxy = kit.bus.proxy_of(member)
        assert proxy.shared_outbound is False
        counter = self.count_encodes(monkeypatch)
        kit.bus.local_publisher("svc").publish(
            "smc.cmd.set_threshold", {"value": 80})
        sim.run_until_idle()
        assert proxy.stats.commands_translated == 1
        assert counter["n"] == 0      # translated, not DELIVER-framed
