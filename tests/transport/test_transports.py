"""Transport implementations: base contract, ideal network, sim transport."""

import pytest

from repro.errors import AddressError, ConfigurationError, TransportClosedError
from repro.ids import service_id_from_name
from repro.sim.radio import fixed_latency
from repro.transport.simnet import ideal_network


class TestBaseContract:
    def test_service_id_derived_from_name(self, net):
        transport = net.add_node("node-a")
        assert transport.service_id == service_id_from_name("node-a")

    def test_send_to_closed_transport_raises(self, sim, net):
        transport = net.add_node("a")
        net.add_node("b")
        transport.close()
        with pytest.raises(TransportClosedError):
            transport.send("b", b"x")
        assert transport.closed

    def test_close_is_idempotent(self, net):
        transport = net.add_node("a")
        transport.close()
        transport.close()

    def test_recv_pull_style(self, sim, net):
        a, b = net.add_node("a"), net.add_node("b")
        a.send("b", b"one")
        a.send("b", b"two")
        sim.run_until_idle()
        assert b.recv() == ("a", b"one")
        assert b.recv() == ("a", b"two")
        assert b.recv() is None

    def test_pending_counts_queued(self, sim, net):
        a, b = net.add_node("a"), net.add_node("b")
        a.send("b", b"x")
        sim.run_until_idle()
        assert b.pending() == 1

    def test_callback_receives_push_style(self, sim, net):
        a, b = net.add_node("a"), net.add_node("b")
        got = []
        b.set_receiver(lambda src, data: got.append((src, data)))
        a.send("b", b"x")
        sim.run_until_idle()
        assert got == [("a", b"x")]
        assert b.recv() is None        # nothing left in the pull queue

    def test_setting_receiver_flushes_backlog(self, sim, net):
        a, b = net.add_node("a"), net.add_node("b")
        a.send("b", b"early")
        sim.run_until_idle()
        got = []
        b.set_receiver(lambda src, data: got.append(data))
        assert got == [b"early"]

    def test_stats(self, sim, net):
        a, b = net.add_node("a"), net.add_node("b")
        b.set_receiver(lambda src, data: None)
        a.send("b", b"12345")
        a.broadcast(b"xy")
        sim.run_until_idle()
        assert a.stats.datagrams_sent == 1
        assert a.stats.broadcasts_sent == 1
        assert a.stats.bytes_sent == 7
        assert b.stats.datagrams_received == 2


class TestIdealNetwork:
    def test_duplicate_name_rejected(self, net):
        net.add_node("a")
        with pytest.raises(ConfigurationError):
            net.add_node("a")

    def test_unknown_destination_rejected(self, sim, net):
        a = net.add_node("a")
        with pytest.raises(AddressError):
            a.send("ghost", b"x")

    def test_non_string_address_rejected(self, sim, net):
        a = net.add_node("a")
        net.add_node("b")
        with pytest.raises(AddressError):
            a.send(("b", 1), b"x")

    def test_broadcast_reaches_everyone_but_sender(self, sim, net):
        a = net.add_node("a")
        got = {}
        for name in ("b", "c", "d"):
            transport = net.add_node(name)
            got[name] = []
            transport.set_receiver(
                lambda src, data, n=name: got[n].append(data))
        a.set_receiver(lambda src, data: pytest.fail("echoed to sender"))
        a.broadcast(b"hello")
        sim.run_until_idle()
        assert all(messages == [b"hello"] for messages in got.values())

    def test_delivery_is_never_synchronous(self, sim, net):
        a, b = net.add_node("a"), net.add_node("b")
        got = []
        b.set_receiver(lambda src, data: got.append(data))
        a.send("b", b"x")
        assert got == []          # not delivered inside send()
        sim.run_until_idle()
        assert got == [b"x"]

    def test_one_scheduler_event_per_datagram_in_send_order(self, sim, net):
        a, b, c = net.add_node("a"), net.add_node("b"), net.add_node("c")
        got = []
        b.set_receiver(lambda src, data: got.append(data))
        c.set_receiver(lambda src, data: got.append(data))
        before = sim.events_processed
        a.send("b", b"1")
        a.send("c", b"2")
        a.send("b", b"3")
        sim.run_until_idle()
        assert got == [b"1", b"2", b"3"]
        assert sim.events_processed - before == 3
        assert sim.now() == 0.0

    def test_tap_drops_what_it_refuses(self, sim, net):
        a, b = net.add_node("a"), net.add_node("b")
        got = []
        b.set_receiver(lambda src, data: got.append(data))
        net.tap = lambda src, dest, data: data != b"drop-me"
        a.send("b", b"drop-me")
        a.send("b", b"keep-me")
        sim.run_until_idle()
        assert got == [b"keep-me"]
        assert net.datagrams_dropped == 1

    def test_fixed_latency(self, sim):
        network = ideal_network(sim, fixed_latency(0.5))
        a, b = network.add_node("a"), network.add_node("b")
        moments = []
        b.set_receiver(lambda src, data: moments.append(sim.now()))
        a.send("b", b"x")
        sim.run_until_idle()
        assert moments == [0.5]

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            fixed_latency(-1.0)

    def test_closed_destination_drops_silently(self, sim, net):
        a, b = net.add_node("a"), net.add_node("b")
        b.close()
        a.send("b", b"x")
        sim.run_until_idle()   # no exception, datagram vanishes


class TestSimTransport:
    def test_send_over_sim_network(self, sim, simnet):
        ta = simnet.add_node("a")
        tb = simnet.add_node("b")
        got = []
        tb.set_receiver(lambda src, data: got.append((src, data)))
        ta.send("b", b"hello")
        sim.run_until_idle()
        assert got == [("a", b"hello")]

    def test_broadcast_over_sim_network(self, sim, simnet):
        ta = simnet.add_node("a")
        tb = simnet.add_node("b")
        got = []
        tb.set_receiver(lambda src, data: got.append(data))
        ta.broadcast(b"beacon")
        sim.run_until_idle()
        assert got == [b"beacon"]

    def test_host_accessor(self, sim, simnet):
        ta = simnet.add_node("a")
        assert ta.host.name == "a"

    def test_tuple_address_rejected(self, sim, simnet):
        ta = simnet.add_node("a")
        simnet.add_node("b")
        with pytest.raises(AddressError):
            ta.send(("b", 1), b"x")
