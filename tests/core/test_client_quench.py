"""BusClient behaviour and quenching end to end."""

import pytest

from repro.core.quench import QuenchController
from repro.errors import SubscriptionNotFoundError, TransportError
from repro.matching.filters import Filter


class TestClient:
    def test_publish_returns_stamped_event(self, kit):
        client = kit.client("dev")
        event = client.publish("t", {"v": 1})
        assert event.sender == client.service_id
        assert event.seqno == 1

    def test_seqnos_increase(self, kit):
        client = kit.client("dev")
        events = [client.publish("t") for _ in range(3)]
        assert [e.seqno for e in events] == [1, 2, 3]

    def test_disconnected_publish_dropped(self, kit):
        client = kit.client("dev")
        client.bus_address = None
        assert client.publish("t") is None
        assert client.stats.publishes_disconnected == 1

    def test_disconnected_subscribe_raises(self, kit):
        client = kit.client("dev")
        client.bus_address = None
        with pytest.raises(TransportError):
            client.subscribe(Filter.where("t"), lambda e: None)

    def test_unsubscribe_unknown_raises(self, kit):
        client = kit.client("dev")
        with pytest.raises(SubscriptionNotFoundError):
            client.unsubscribe(9)

    def test_duplicate_deliveries_suppressed(self, kit, sim):
        # Two clients; the publisher's event reaches the subscriber once
        # even if the network retransmits (forced by dropping acks).
        subscriber = kit.client("sub")
        publisher = kit.client("pub")
        got = []
        subscriber.subscribe(Filter.where("t"), got.append)
        sim.run_until_idle()

        from repro.transport.packets import Packet, PacketType
        dropped = [0]

        def drop_one_subscriber_ack(src, dest, data):
            if src == "sub" and dropped[0] == 0:
                packet = Packet.decode(data)
                if packet.type == PacketType.ACK:
                    dropped[0] += 1
                    return False
            return True

        kit.net.tap = drop_one_subscriber_ack
        publisher.publish("t", {"v": 1})
        sim.run(10.0)
        assert len(got) == 1
        assert subscriber.stats.delivered == 1

    def test_resubscribe_all(self, kit, sim):
        client = kit.client("dev")
        got = []
        client.subscribe(Filter.where("t"), got.append)
        sim.run_until_idle()
        # Simulate purge + re-admission: new proxy, empty subscriptions.
        member = client.service_id
        kit.purge(member)
        kit.admit(client.endpoint, name="dev")
        client.endpoint.reset_channel_to("core")
        client.resubscribe_all()
        sim.run_until_idle()
        kit.bus.local_publisher("svc").publish("t", {"v": 2})
        sim.run_until_idle()
        assert [e.get("v") for e in got] == [2]


class TestQuench:
    def make_quenched_setup(self, kit, sim):
        controller = QuenchController(kit.bus)
        publisher = kit.client("pub")
        publisher.advertise(Filter.where("bench.data"))
        sim.run_until_idle()
        return controller, publisher

    def test_unobserved_publisher_quenched(self, kit, sim):
        controller, publisher = self.make_quenched_setup(kit, sim)
        assert controller.is_quenched(publisher.service_id)
        assert publisher.quenched
        assert publisher.publish("bench.data") is None
        assert publisher.stats.publishes_quenched == 1

    def test_overlapping_subscription_wakes_publisher(self, kit, sim):
        controller, publisher = self.make_quenched_setup(kit, sim)
        got = []
        kit.bus.subscribe_local(Filter.where("bench.data"), got.append)
        sim.run_until_idle()
        assert not publisher.quenched
        publisher.publish("bench.data", {"v": 1})
        sim.run_until_idle()
        assert len(got) == 1

    def test_non_overlapping_subscription_keeps_quench(self, kit, sim):
        controller, publisher = self.make_quenched_setup(kit, sim)
        kit.bus.subscribe_local(Filter.where("different.topic"),
                                lambda e: None)
        sim.run_until_idle()
        assert publisher.quenched

    def test_unsubscribe_requenches(self, kit, sim):
        controller, publisher = self.make_quenched_setup(kit, sim)
        sub_id = kit.bus.subscribe_local(Filter.where("bench.data"),
                                         lambda e: None)
        sim.run_until_idle()
        assert not publisher.quenched
        kit.bus.unsubscribe_local(sub_id)
        sim.run_until_idle()
        assert publisher.quenched

    def test_ignore_quench_for_alarms(self, kit, sim):
        controller, publisher = self.make_quenched_setup(kit, sim)
        got = []
        # Nobody subscribed, but an alarm must still go out when forced.
        assert publisher.publish("bench.data", {"sev": 3},
                                 ignore_quench=True) is not None

    def test_quench_change_callback(self, kit, sim):
        controller = QuenchController(kit.bus)
        publisher = kit.client("pub")
        states = []
        publisher.on_quench_change = states.append
        publisher.advertise(Filter.where("bench.data"))
        sim.run_until_idle()
        kit.bus.subscribe_local(Filter.where("bench.data"), lambda e: None)
        sim.run_until_idle()
        assert states == [True, False]

    def test_withdraw_wakes_quenched_publisher(self, kit, sim):
        # Regression: withdraw_advertisement used to drop the member from
        # the quenched set without ever sending the wake, leaving the
        # publisher muted forever with currently_quenched misreporting.
        controller, publisher = self.make_quenched_setup(kit, sim)
        assert publisher.quenched
        wakes = controller.stats.wake_messages_sent
        controller.withdraw_advertisement(publisher.service_id)
        sim.run_until_idle()
        assert not publisher.quenched            # wake advisory delivered
        assert controller.stats.wake_messages_sent == wakes + 1
        assert controller.stats.currently_quenched == 0
        # The publisher can actually publish again.
        assert publisher.publish("bench.data", {"v": 1}) is not None

    def test_readvertise_after_withdraw_requenches_cleanly(self, kit, sim):
        # The wake on withdrawal resets the handshake, so a fresh
        # advertisement with no interested subscribers re-quenches from a
        # consistent state instead of silently staying muted.
        controller, publisher = self.make_quenched_setup(kit, sim)
        controller.withdraw_advertisement(publisher.service_id)
        sim.run_until_idle()
        assert not publisher.quenched
        publisher.advertise(Filter.where("bench.data"))
        sim.run_until_idle()
        assert publisher.quenched
        assert controller.stats.currently_quenched == 1

    def test_withdraw_unquenched_member_sends_nothing(self, kit, sim):
        controller = QuenchController(kit.bus)
        publisher = kit.client("pub")
        kit.bus.subscribe_local(Filter.where("bench.data"), lambda e: None)
        publisher.advertise(Filter.where("bench.data"))
        sim.run_until_idle()
        assert not publisher.quenched
        sent = (controller.stats.wake_messages_sent,
                controller.stats.quench_messages_sent)
        controller.withdraw_advertisement(publisher.service_id)
        sim.run_until_idle()
        assert (controller.stats.wake_messages_sent,
                controller.stats.quench_messages_sent) == sent

    def test_purged_member_advertisement_withdrawn(self, kit, sim):
        controller = QuenchController(kit.bus)
        publisher = kit.client("pub")
        publisher.advertise(Filter.where("bench.data"))
        sim.run_until_idle()
        assert controller.stats.currently_quenched == 1
        kit.purge(publisher.service_id)
        kit.bus.subscribe_local(Filter.where("x"), lambda e: None)
        sim.run_until_idle()
        assert controller.stats.currently_quenched == 0
