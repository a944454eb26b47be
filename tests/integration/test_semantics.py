"""The paper's delivery semantics, end to end, under adverse networks.

Section II-C: "all events are delivered to each interested component
exactly once as long as the component remains a member of the SMC" and
"all events from a particular sender are delivered to each interested
receiver in the order sent".

These tests drive the full stack — clients, channels, proxies, bus —
through a lossy, reordering network and assert the guarantees verbatim,
including property-based randomised loss patterns.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.filters import Filter
from repro.sim.kernel import Simulator
from repro.sim.radio import IDEAL
from repro.transport.simnet import ideal_network

from tests.core.conftest import CoreKit


def build_kit(window=1, loss_rate=0.0, seed=0):
    """A core and its clients on an ideal link losing ``loss_rate``."""
    sim = Simulator()
    net = ideal_network(sim, replace(IDEAL, loss_rate=loss_rate), seed)
    return sim, CoreKit(sim, net, window=window)


class TestExactlyOnceInOrder:
    @pytest.mark.parametrize("loss_rate", [0.0, 0.1, 0.3])
    def test_one_publisher_one_subscriber(self, loss_rate):
        sim, kit = build_kit(loss_rate=loss_rate, seed=42)
        subscriber = kit.client("sub")
        publisher = kit.client("pub")
        got = []
        subscriber.subscribe(Filter.where("t"), got.append)
        sim.run_until_idle()

        sent = [publisher.publish("t", {"n": i}) for i in range(30)]
        sim.run(sim.now() + 300.0)
        assert [e.get("n") for e in got] == list(range(30))
        assert [e.seqno for e in got] == [e.seqno for e in sent]

    @pytest.mark.parametrize("window", [1, 4, 32])
    def test_windowed_channels_preserve_semantics(self, window):
        # The sliding-window/SACK transport must uphold Section II-C
        # verbatim at any window, under loss that forces retransmission
        # and reordering through the reorder buffer.
        sim, kit = build_kit(window=window, loss_rate=0.2, seed=window)
        subscriber = kit.client("sub")
        publisher = kit.client("pub")
        got = []
        subscriber.subscribe(Filter.where("t"), got.append)
        sim.run_until_idle()

        for i in range(60):
            publisher.publish("t", {"n": i})
        sim.run(sim.now() + 300.0)
        assert [e.get("n") for e in got] == list(range(60))
        # The transport surfaces what the loss cost: retransmissions
        # happened, on the publisher's one channel toward the core.
        channel = publisher.endpoint.peer_channel(kit.core_endpoint.service_id)
        assert channel.stats.retransmissions > 0

    def test_two_publishers_interleaved(self):
        sim, kit = build_kit(loss_rate=0.15, seed=7)
        subscriber = kit.client("sub")
        pub_a = kit.client("pub-a")
        pub_b = kit.client("pub-b")
        got = []
        subscriber.subscribe(Filter.where("t"), got.append)
        sim.run_until_idle()

        for i in range(20):
            pub_a.publish("t", {"src": "a", "n": i})
            pub_b.publish("t", {"src": "b", "n": i})
        sim.run(sim.now() + 300.0)

        # Per-sender FIFO: each sender's events arrive in its own order.
        a_order = [e.get("n") for e in got if e.get("src") == "a"]
        b_order = [e.get("n") for e in got if e.get("src") == "b"]
        assert a_order == list(range(20))
        assert b_order == list(range(20))
        # Exactly once overall.
        assert len(got) == 40

    def test_fanout_to_three_subscribers(self):
        sim, kit = build_kit(loss_rate=0.2, seed=3)
        subscribers = []
        for name in ("s1", "s2", "s3"):
            client = kit.client(name)
            inbox = []
            client.subscribe(Filter.where("t"), inbox.append)
            subscribers.append(inbox)
        publisher = kit.client("pub")
        sim.run_until_idle()

        for i in range(15):
            publisher.publish("t", {"n": i})
        sim.run(sim.now() + 300.0)
        for inbox in subscribers:
            assert [e.get("n") for e in inbox] == list(range(15))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000),
           loss=st.floats(min_value=0.0, max_value=0.4),
           count=st.integers(1, 25))
    def test_semantics_hold_for_random_loss_property(self, seed, loss,
                                                     count):
        sim, kit = build_kit(loss_rate=loss, seed=seed)
        subscriber = kit.client("sub")
        publisher = kit.client("pub")
        got = []
        subscriber.subscribe(Filter.where("t"), got.append)
        sim.run_until_idle()
        for i in range(count):
            publisher.publish("t", {"n": i})
        sim.run(sim.now() + 600.0)
        assert [e.get("n") for e in got] == list(range(count))


class TestMembershipScoping:
    def test_events_before_subscription_not_delivered(self):
        sim, kit = build_kit()
        subscriber = kit.client("sub")
        publisher = kit.client("pub")
        publisher.publish("t", {"n": 0})
        sim.run_until_idle()
        got = []
        subscriber.subscribe(Filter.where("t"), got.append)
        sim.run_until_idle()
        publisher.publish("t", {"n": 1})
        sim.run_until_idle()
        assert [e.get("n") for e in got] == [1]

    def test_purged_subscriber_receives_nothing_further(self):
        sim, kit = build_kit()
        subscriber = kit.client("sub")
        publisher = kit.client("pub")
        got = []
        subscriber.subscribe(Filter.where("t"), got.append)
        sim.run_until_idle()
        publisher.publish("t", {"n": 0})
        sim.run_until_idle()
        kit.purge(subscriber.service_id)
        publisher.publish("t", {"n": 1})
        sim.run(sim.now() + 30.0)
        assert [e.get("n") for e in got] == [0]

    def test_republish_after_purge_and_readmission(self):
        # Re-admission starts a new delivery session: a fresh seqno space
        # must be accepted (watermark cleared with the old proxy).
        sim, kit = build_kit()
        publisher = kit.client("pub")
        got = []
        kit.bus.subscribe_local(Filter.where("t"), got.append)
        publisher.publish("t", {"n": 0})
        sim.run_until_idle()

        kit.purge(publisher.service_id)
        kit.admit(publisher.endpoint, name="pub")
        publisher.endpoint.reset_channel_to("core")   # device-side reset
        # The client's seqno counter keeps rising; that is fine too.
        publisher.publish("t", {"n": 1})
        sim.run(sim.now() + 30.0)
        assert [e.get("n") for e in got] == [0, 1]


class TestOrderingAcrossTheBus:
    def test_management_and_application_events_share_fifo(self):
        sim, kit = build_kit()
        subscriber = kit.client("sub")
        got = []
        subscriber.subscribe([Filter.where("app.data"),
                              Filter.where("app.alarm")], got.append)
        sim.run_until_idle()
        publisher = kit.client("pub")
        publisher.publish("app.data", {"n": 1})
        publisher.publish("app.alarm", {"n": 2})
        publisher.publish("app.data", {"n": 3})
        sim.run_until_idle()
        assert [e.get("n") for e in got] == [1, 2, 3]

    def test_local_and_remote_subscribers_see_same_order(self):
        sim, kit = build_kit()
        remote = kit.client("remote")
        remote_got, local_got = [], []
        remote.subscribe(Filter.where("t"), remote_got.append)
        kit.bus.subscribe_local(Filter.where("t"), local_got.append)
        sim.run_until_idle()
        publisher = kit.client("pub")
        for i in range(10):
            publisher.publish("t", {"n": i})
        sim.run(sim.now() + 60.0)
        assert [e.get("n") for e in local_got] == list(range(10))
        assert [e.get("n") for e in remote_got] == list(range(10))
