"""The reliable channel: ordering, dedup, retransmission until closed.

These are the paper's Section II-C guarantees at the hop level, tested
against a hub that can drop and reorder traffic on demand, plus the
sliding-window machinery: selective acks, per-packet retransmit
deadlines, fast retransmit, serial-number wraparound, and a differential
suite over the simulated network's loss/reorder/duplication.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, PacketError
from repro.ids import service_id_from_name
from repro.sim.hosts import LAPTOP_PROFILE, SimHost
from repro.sim.kernel import Simulator
from repro.sim.radio import LinkProfile, SimNetwork
from repro.sim.rng import RngRegistry
from repro.transport import reliability
from repro.transport.inmem import InMemoryHub
from repro.transport.packets import Packet, PacketType
from repro.transport.reliability import (
    ReliableChannel,
    serial_leq,
    serial_lt,
    serial_succ,
)
from repro.transport.simnet import SimTransport


def make_pair(sim, hub, *, window=1, rto_initial=0.05, initial_seq=1):
    """Two endpoints with channels wired to each other through raw packets."""
    ta, tb = hub.create("a"), hub.create("b")
    delivered_a, delivered_b = [], []
    rto_max = max(2.0, 2.0 * rto_initial)
    chan_a = ReliableChannel(ta, sim, "b", lambda s, p: delivered_a.append(p),
                             window=window, rto_initial=rto_initial,
                             rto_max=rto_max, initial_seq=initial_seq)
    chan_b = ReliableChannel(tb, sim, "a", lambda s, p: delivered_b.append(p),
                             window=window, rto_initial=rto_initial,
                             rto_max=rto_max, initial_seq=initial_seq)
    ta.set_receiver(lambda src, data: chan_a.handle_packet(Packet.decode(data)))
    tb.set_receiver(lambda src, data: chan_b.handle_packet(Packet.decode(data)))
    return chan_a, chan_b, delivered_a, delivered_b


def drop_data_seq_once(hub, seq):
    """Install a filter dropping the first DATA transmission of ``seq``."""
    dropped = [0]

    def drop(src, dest, data):
        packet = Packet.decode(data)
        if packet.type == PacketType.DATA and packet.seq == seq and not dropped[0]:
            dropped[0] += 1
            return False
        return True

    hub.drop_filter = drop
    return dropped


class TestBasics:
    def test_send_delivers(self, sim, hub):
        chan_a, chan_b, _, delivered_b = make_pair(sim, hub)
        chan_a.send(b"hello")
        sim.run_until_idle()
        assert delivered_b == [b"hello"]

    def test_many_messages_in_order(self, sim, hub):
        chan_a, _, _, delivered_b = make_pair(sim, hub)
        for i in range(50):
            chan_a.send(f"msg-{i}".encode())
        sim.run_until_idle()
        assert delivered_b == [f"msg-{i}".encode() for i in range(50)]

    def test_bidirectional(self, sim, hub):
        chan_a, chan_b, delivered_a, delivered_b = make_pair(sim, hub)
        chan_a.send(b"ping")
        chan_b.send(b"pong")
        sim.run_until_idle()
        assert delivered_b == [b"ping"]
        assert delivered_a == [b"pong"]

    def test_peer_id_learned(self, sim, hub):
        chan_a, chan_b, _, _ = make_pair(sim, hub)
        chan_a.send(b"x")
        sim.run_until_idle()
        assert chan_b.peer_id == service_id_from_name("a")

    def test_unreliable_send_has_no_seq_state(self, sim, hub):
        chan_a, _, _, delivered_b = make_pair(sim, hub)
        chan_a.send(b"raw", unreliable=True)
        sim.run_until_idle()
        assert delivered_b == [b"raw"]
        assert chan_a.unacked_count() == 0

    def test_window_must_be_positive(self, sim, hub):
        ta = hub.create("a")
        with pytest.raises(ConfigurationError):
            ReliableChannel(ta, sim, "b", lambda s, p: None, window=0)

    def test_bad_rto_bounds_rejected(self, sim, hub):
        ta = hub.create("a")
        with pytest.raises(ConfigurationError):
            ReliableChannel(ta, sim, "b", lambda s, p: None,
                            rto_initial=1.0, rto_max=0.5)


class TestLossRecovery:
    def test_retransmits_until_delivered(self, sim, hub):
        chan_a, _, _, delivered_b = make_pair(sim, hub)
        drops = [0]

        def drop_first_three(src, dest, data):
            packet = Packet.decode(data)
            if packet.type == PacketType.DATA and drops[0] < 3:
                drops[0] += 1
                return False
            return True

        hub.drop_filter = drop_first_three
        chan_a.send(b"persistent")
        sim.run(10.0)
        assert delivered_b == [b"persistent"]
        assert chan_a.stats.retransmissions >= 3

    def test_lost_ack_causes_duplicate_which_is_suppressed(self, sim, hub):
        chan_a, chan_b, _, delivered_b = make_pair(sim, hub)
        dropped = [0]

        def drop_first_ack(src, dest, data):
            packet = Packet.decode(data)
            if packet.type == PacketType.ACK and dropped[0] == 0:
                dropped[0] += 1
                return False
            return True

        hub.drop_filter = drop_first_ack
        chan_a.send(b"once")
        sim.run(10.0)
        assert delivered_b == [b"once"]              # exactly once
        assert chan_b.stats.duplicates >= 1

    def test_order_preserved_under_heavy_loss(self, sim, hub):
        import random
        rng = random.Random(7)
        hub.drop_filter = lambda src, dest, data: rng.random() > 0.3
        chan_a, _, _, delivered_b = make_pair(sim, hub)
        messages = [f"m{i}".encode() for i in range(40)]
        for message in messages:
            chan_a.send(message)
        sim.run(120.0)
        assert delivered_b == messages

    def test_rto_backs_off_and_resets(self, sim, hub):
        chan_a, _, _, delivered_b = make_pair(sim, hub, rto_initial=0.05)
        hub.drop_filter = lambda src, dest, data: False   # black hole
        chan_a.send(b"x")
        sim.run(2.0)
        retries_in_two_seconds = chan_a.stats.retransmissions
        # Exponential backoff: far fewer than 2.0/0.05 = 40 attempts.
        assert 3 <= retries_in_two_seconds < 12
        hub.drop_filter = None
        sim.run(6.0)
        assert delivered_b == [b"x"]


class TestWindowing:
    def test_stop_and_wait_has_one_in_flight(self, sim, hub):
        chan_a, _, _, _ = make_pair(sim, hub)
        hub.drop_filter = lambda src, dest, data: False
        for i in range(5):
            chan_a.send(bytes([i]))
        assert chan_a.unacked_count() == 5
        # Only one DATA packet actually left (window=1).
        assert chan_a.stats.sent == 1

    def test_larger_window_pipelines(self, sim, hub):
        chan_a, _, _, delivered_b = make_pair(sim, hub, window=4)
        hub.drop_filter = lambda src, dest, data: False
        for i in range(10):
            chan_a.send(bytes([i]))
        assert chan_a.stats.sent == 4
        hub.drop_filter = None
        sim.run(30.0)
        assert delivered_b == [bytes([i]) for i in range(10)]

    def test_out_of_order_arrival_reordered(self, sim, hub):
        # Window 4 with selective drops forces out-of-order arrivals.
        import random
        rng = random.Random(3)
        chan_a, chan_b, _, delivered_b = make_pair(sim, hub, window=4)
        hub.drop_filter = lambda src, dest, data: rng.random() > 0.25
        messages = [f"seq-{i}".encode() for i in range(30)]
        for message in messages:
            chan_a.send(message)
        sim.run(120.0)
        assert delivered_b == messages
        assert chan_b.stats.out_of_order > 0


class TestRetriesUntilClosed:
    def test_retries_until_closed(self, sim, hub):
        # Abandoning a dead peer's queue is the proxy's job (purge ->
        # close); the channel itself never gives up.
        chan_a, _, _, delivered_b = make_pair(sim, hub)
        hub.drop_filter = lambda src, dest, data: False
        chan_a.send(b"eternal")
        sim.run(30.0)
        assert not chan_a.closed
        assert chan_a.unacked_count() == 1
        hub.drop_filter = None
        sim.run(40.0)
        assert delivered_b == [b"eternal"]
        hub.drop_filter = lambda src, dest, data: False
        chan_a.send(b"purged")
        sim.run(50.0)
        chan_a.close()
        resent = chan_a.stats.retransmissions
        sim.run(90.0)
        assert chan_a.stats.retransmissions == resent
        assert chan_a.unacked_count() == 0


class TestRetransmitStarvation:
    """Regression: the RTO timer must never be reset by new transmissions.

    The stop-and-wait implementation re-armed the timer in every
    ``_pump()``, so a steady send stream perpetually postponed the oldest
    unacked packet's retransmission — the stream stalled for as long as
    new sends kept arriving.
    """

    def test_steady_stream_does_not_starve_oldest(self, sim, hub):
        chan_a, _, _, delivered_b = make_pair(sim, hub, window=2,
                                              rto_initial=0.05)
        dropped = drop_data_seq_once(hub, 1)
        messages = [f"s{i}".encode() for i in range(100)]
        # Sends arrive faster than one RTO apart for four full seconds.
        for index, message in enumerate(messages):
            sim.call_later(0.04 * index, chan_a.send, message)
        sim.run(2.0)
        # The lost head of the line was retransmitted from its original
        # deadline (~0.05s), mid-stream — not after the stream went quiet.
        assert delivered_b[:1] == [messages[0]]
        assert chan_a.stats.retransmissions >= 1
        assert dropped[0] == 1
        sim.run(30.0)
        assert delivered_b == messages


class TestSerialArithmetic:
    def test_serial_comparisons_across_wrap(self):
        top = 2**32 - 1
        assert serial_lt(top, 1)          # 1 follows 2**32-1
        assert not serial_lt(1, top)
        assert serial_lt(2**32 - 4, 3)
        assert serial_leq(top, top)
        assert serial_leq(top, 2)
        assert not serial_lt(5, 5)

    def test_serial_succ_skips_zero(self):
        assert serial_succ(2**32 - 1) == 1
        assert serial_succ(1) == 2


class TestWraparound:
    """Regression: raw seq/ack comparisons broke at the 2**32 wrap."""

    def test_stream_crosses_wrap_without_loss(self, sim, hub):
        start = 2**32 - 4
        chan_a, chan_b, _, delivered_b = make_pair(sim, hub, window=4,
                                                   initial_seq=start)
        messages = [f"w{i}".encode() for i in range(12)]
        for message in messages:
            chan_a.send(message)
        sim.run(10.0)
        assert delivered_b == messages
        assert chan_a.unacked_count() == 0
        assert chan_b.stats.duplicates == 0

    def test_stream_crosses_wrap_under_loss(self, sim, hub):
        import random
        start = 2**32 - 4
        chan_a, _, _, delivered_b = make_pair(sim, hub, window=4,
                                              initial_seq=start)
        rng = random.Random(11)
        hub.drop_filter = lambda src, dest, data: rng.random() > 0.25
        messages = [f"w{i}".encode() for i in range(20)]
        for message in messages:
            chan_a.send(message)
        sim.run(120.0)
        assert delivered_b == messages
        assert chan_a.unacked_count() == 0

    def test_retransmission_spanning_wrap_is_not_misclassified(self, sim, hub):
        # Drop the packet just before the wrap; its retransmission arrives
        # after later (post-wrap) sequences were buffered.
        start = 2**32 - 2
        chan_a, chan_b, _, delivered_b = make_pair(sim, hub, window=6,
                                                   initial_seq=start)
        drop_data_seq_once(hub, start)
        messages = [f"w{i}".encode() for i in range(6)]
        for message in messages:
            chan_a.send(message)
        sim.run(10.0)
        assert delivered_b == messages
        assert chan_b.stats.out_of_order > 0


class TestSelectiveAcks:
    def test_single_loss_retransmits_only_the_hole(self, sim, hub):
        # Window of 8 with the third packet lost: SACKed packets 4-8 must
        # never be retransmitted (no go-back-N burst), and the dup-ack
        # fast retransmit must recover without waiting out the RTO.
        chan_a, chan_b, _, delivered_b = make_pair(sim, hub, window=8,
                                                   rto_initial=5.0)
        drop_data_seq_once(hub, 3)
        messages = [bytes([i]) for i in range(8)]
        for message in messages:
            chan_a.send(message)
        sim.run_until_idle(max_time=1.0)
        assert delivered_b == messages
        assert chan_a.stats.retransmissions == 1      # the hole, nothing else
        assert chan_a.stats.fast_retransmits == 1     # and before the RTO
        assert sim.now() < 1.0
        assert chan_b.stats.out_of_order == 5         # 4..8 buffered

    def test_sack_ranges_reported(self, sim, hub):
        chan_a, chan_b, _, _ = make_pair(sim, hub, window=8, rto_initial=5.0)
        acks_with_sack = []
        real_filter = drop_data_seq_once(hub, 2)
        original = hub.drop_filter

        def spy(src, dest, data):
            packet = Packet.decode(data)
            if packet.type == PacketType.ACK and packet.sack:
                acks_with_sack.append(packet.sack)
            return original(src, dest, data)

        hub.drop_filter = spy
        for i in range(5):
            chan_a.send(bytes([i]))
        sim.run_until_idle(max_time=1.0)
        # While 2 was the hole, acks advertised the 3..5 run.
        assert any((3, 5) == r for ranges in acks_with_sack for r in ranges)
        assert real_filter[0] == 1

    def test_reorder_buffer_sized_from_window(self, sim, hub, monkeypatch):
        # A window of out-of-order arrivals always fits, even when the
        # buffer constant is smaller than the window.
        monkeypatch.setattr(reliability, "REORDER_BUFFER", 2)
        chan_a, chan_b, _, delivered_b = make_pair(sim, hub, window=8,
                                                   rto_initial=5.0)
        drop_data_seq_once(hub, 1)
        messages = [bytes([i]) for i in range(8)]
        for message in messages:
            chan_a.send(message)
        sim.run_until_idle(max_time=20.0)
        assert delivered_b == messages
        assert chan_b.stats.reorder_drops == 0        # max(window, buffer)

    def test_reorder_overrun_counted_and_recovered(self, sim, hub,
                                                   monkeypatch):
        # A sender windowed past the receiver's buffer: drops are counted
        # in ChannelStats (not silent) and the stream still completes via
        # retransmission once the buffer drains.
        monkeypatch.setattr(reliability, "REORDER_BUFFER", 2)
        ta, tb = hub.create("a"), hub.create("b")
        delivered_b = []
        chan_a = ReliableChannel(ta, sim, "b", lambda s, p: None,
                                 window=8, rto_initial=0.05)
        chan_b = ReliableChannel(tb, sim, "a",
                                 lambda s, p: delivered_b.append(p),
                                 window=1, rto_initial=0.05)
        ta.set_receiver(
            lambda src, data: chan_a.handle_packet(Packet.decode(data)))
        tb.set_receiver(
            lambda src, data: chan_b.handle_packet(Packet.decode(data)))
        drop_data_seq_once(hub, 1)
        messages = [bytes([i]) for i in range(8)]
        for message in messages:
            chan_a.send(message)
        sim.run(30.0)
        assert delivered_b == messages
        assert chan_b.stats.reorder_drops > 0


def spy_acks(hub):
    """Record every ACK packet crossing the hub as (src, ack, sack),
    chaining any filter already installed."""
    seen = []
    inner = hub.drop_filter

    def spy(src, dest, data):
        packet = Packet.decode(data)
        if packet.type == PacketType.ACK:
            seen.append((src, packet.ack, packet.sack))
        return inner(src, dest, data) if inner is not None else True

    hub.drop_filter = spy
    return seen


class TestAckCoalescing:
    """One cumulative ACK per receive turn; loss signals never deferred.

    On the in-memory hub a receive turn is one scheduler instant, so a
    burst sent from one callback arrives in one turn.
    """

    def test_in_order_burst_is_acked_once(self, sim, hub):
        chan_a, chan_b, _, delivered_b = make_pair(sim, hub, window=8)
        acks = spy_acks(hub)
        messages = [bytes([i]) for i in range(8)]
        for message in messages:
            chan_a.send(message)
        sim.run_until_idle()
        assert delivered_b == messages
        assert chan_b.stats.acks_sent == 1
        assert acks == [("b", 8, ())]               # the last of the burst
        assert chan_a.unacked_count() == 0
        assert chan_a.stats.retransmissions == 0

    def test_isolated_arrivals_are_each_acked_in_their_turn(self, sim):
        hub = InMemoryHub(sim, delay_s=0.010)
        chan_a, chan_b, _, delivered_b = make_pair(sim, hub, window=8)
        acked_at = []

        def note_acks(src, dest, data):
            if src == "b":
                acked_at.append(sim.now())
            return True

        hub.drop_filter = note_acks
        for i in range(5):
            sim.call_at(0.1 * i, chan_a.send, bytes([i]))
        sim.run_until_idle()
        assert chan_b.stats.delivered == 5
        assert chan_b.stats.acks_sent == 5
        # Zero added delay: each ACK leaves at its DATA's arrival instant.
        assert acked_at == pytest.approx([0.1 * i + 0.010 for i in range(5)])
        assert chan_a.stats.rtt_samples == 5
        assert chan_a.stats.srtt == pytest.approx(0.020)

    def test_reverse_data_carries_the_ack(self, sim, hub):
        # b answers every payload from inside the upcall: the reply's
        # piggy-backed ack is the acknowledgement, no ACK datagram at all.
        chan_a, chan_b, delivered_a, _ = make_pair(sim, hub, window=8)
        chan_b._deliver = lambda sender, payload: chan_b.send(b"re:" + payload)
        for i in range(4):
            chan_a.send(bytes([i]))
        sim.run_until_idle()
        assert delivered_a == [b"re:" + bytes([i]) for i in range(4)]
        assert chan_b.stats.delivered == 4
        assert chan_b.stats.acks_sent == 0
        assert chan_a.unacked_count() == 0
        assert chan_a.stats.retransmissions == 0
        # a's side replies to nothing, so it acks b's burst once.
        assert chan_a.stats.acks_sent == 1

    def test_queued_reverse_data_does_not_cancel_the_ack(self, sim, hub):
        # b's window is full, so its reply only queues: the ACK still goes.
        chan_a, chan_b, _, _ = make_pair(sim, hub, window=1)
        hub.drop_filter = lambda src, dest, data: src != "b"
        chan_b.send(b"fills-the-window")
        chan_b._deliver = lambda sender, payload: chan_b.send(b"queued")
        hub.drop_filter = None
        chan_a.send(b"x")
        sim.run(0.01)
        assert chan_b.pending_count() == 1
        assert chan_b.stats.acks_sent == 1
        assert chan_a.unacked_count() == 0

    def test_hole_in_burst_recovered_by_fast_retransmit(self, sim, hub):
        # Same-instant burst 1..8 with 3 lost.  The ACK due for 1-2 must
        # leave as its own datagram *before* the first duplicate ack, or
        # the sender is one dup-ack short and falls back to the 5 s RTO.
        chan_a, chan_b, _, delivered_b = make_pair(sim, hub, window=8,
                                                   rto_initial=5.0)
        drop_data_seq_once(hub, 3)
        acks = spy_acks(hub)
        messages = [bytes([i]) for i in range(8)]
        for message in messages:
            chan_a.send(message)
        sim.run_until_idle(max_time=1.0)
        assert delivered_b == messages
        assert sim.now() < 1.0                        # never the RTO
        assert chan_a.stats.fast_retransmits == 1
        assert chan_a.stats.retransmissions == 1
        assert acks == [
            ("b", 2, ()),                             # the due ACK, flushed
            ("b", 2, ((4, 4),)), ("b", 2, ((4, 5),)), ("b", 2, ((4, 6),)),
            ("b", 2, ((4, 7),)), ("b", 2, ((4, 8),)),  # five duplicate acks
            ("b", 8, ()),                             # after the hole filled
        ]

    def test_duplicate_flushes_then_reacks(self, sim, hub):
        # A duplicate DATA in the same turn as fresh in-order DATA: the
        # due cumulative ACK goes first, then the duplicate's re-ack.
        chan_a, chan_b, _, delivered_b = make_pair(sim, hub, window=4)
        acks = spy_acks(hub)
        first = Packet(type=PacketType.DATA, sender=service_id_from_name("a"),
                       seq=1, payload=b"one").encode()
        hub.inject("a", "b", first)
        hub.inject("a", "b", first)
        sim.run_until_idle()
        assert delivered_b == [b"one"]
        assert chan_b.stats.duplicates == 1
        assert acks == [("b", 1, ()), ("b", 1, ())]

    def test_close_with_ack_due_sends_nothing(self, sim, hub):
        chan_a, chan_b, _, delivered_b = make_pair(sim, hub, window=4)
        acks = spy_acks(hub)

        def deliver_then_close(sender, payload):
            delivered_b.append(payload)
            chan_b.close()

        chan_b._deliver = deliver_then_close
        chan_a.send(b"last words")
        sim.run(0.01)
        assert delivered_b == [b"last words"]
        assert chan_b.closed
        assert chan_b.stats.acks_sent == 0 and acks == []

    def test_move_to_with_ack_due_acks_at_new_address(self, sim, hub):
        chan_a, chan_b, _, delivered_b = make_pair(sim, hub, window=4)
        hub.create("a-roamed")
        sent_to = []
        hub.drop_filter = (lambda src, dest, data:
                           sent_to.append((src, dest)) or True)
        chan_a.send(b"x")
        sim.call_soon(chan_b.move_to, "a-roamed")   # same instant, mid-turn
        sim.run(0.01)
        assert delivered_b == [b"x"]
        assert chan_b.stats.acks_sent == 1
        assert sent_to == [("a", "b"), ("b", "a-roamed")]

    def test_move_to_resends_in_flight_and_keeps_the_sequence(self, sim,
                                                              hub):
        # The queue and both sequence spaces carry on; what was in flight
        # toward the old address is resent to the new one at once.
        chan_a, chan_b, _, delivered_b = make_pair(sim, hub, window=2)
        tb = chan_b._transport
        hub.drop_filter = lambda src, dest, data: False     # all lost
        for payload in (b"1", b"2", b"3"):
            chan_a.send(payload)
        hub.drop_filter = None
        del hub._transports["b"]                # b's stack moves
        tb._local_address = "b-roamed"
        hub._transports["b-roamed"] = tb
        chan_a.move_to("b-roamed")
        assert chan_a.stats.retransmissions == 2
        sim.run(0.001)                          # well inside the RTO
        assert delivered_b == [b"1", b"2", b"3"]
        assert chan_a.unacked_count() == 0
        assert chan_b.stats.duplicates == 0

    def test_transport_closed_mid_turn_sends_nothing(self, sim, hub):
        chan_a, chan_b, _, delivered_b = make_pair(sim, hub, window=4)
        chan_a.send(b"x")
        sim.call_soon(chan_b._transport.close)
        sim.run(0.01)                              # must not raise
        assert delivered_b == [b"x"]
        assert chan_b._transport.stats.datagrams_sent == 0

    def test_oversized_payload_rejected_before_queueing(self, sim, hub):
        chan_a, _, _, _ = make_pair(sim, hub, window=4)
        with pytest.raises(PacketError):
            chan_a.send(b"x" * 70000)
        assert chan_a.unacked_count() == 0
        assert chan_a.stats.sent == 0


_CHAOS_LINK = LinkProfile(name="chaos", latency_mean_s=5e-3,
                          latency_min_s=1e-3, latency_max_s=30e-3,
                          bandwidth_bps=1_000_000.0, loss_rate=0.15,
                          duplicate_rate=0.10, mtu=1472)


class TestRttSampling:
    """Karn-filtered RFC-6298 measurement surfaced in ChannelStats."""

    def test_samples_accumulate_on_clean_link(self, sim):
        hub = InMemoryHub(sim, delay_s=0.010)         # 20 ms RTT
        chan_a, _, _, delivered_b = make_pair(sim, hub, window=4,
                                              rto_initial=0.5)
        for i in range(20):
            sim.call_at(i * 0.05, chan_a.send, f"m{i}".encode())
        sim.run_until_idle()
        stats = chan_a.stats
        assert len(delivered_b) == 20
        assert stats.retransmissions == 0
        assert stats.rtt_samples == 20
        # Fixed link delay: the estimate converges on the true RTT and
        # the deviation decays.
        assert stats.srtt == pytest.approx(0.020, rel=0.05)
        assert stats.rttvar < stats.srtt / 2

    def test_retransmitted_packets_are_never_sampled(self, sim, hub):
        """Karn's algorithm: an ack for a retransmitted packet is
        ambiguous, so it must not feed the estimator."""
        chan_a, _, _, delivered_b = make_pair(sim, hub, rto_initial=0.05)
        drop_data_seq_once(hub, 1)
        chan_a.send(b"lost-once")
        sim.run_until_idle()
        assert delivered_b == [b"lost-once"]
        assert chan_a.stats.retransmissions == 1
        assert chan_a.stats.rtt_samples == 0          # Karn excluded it
        chan_a.send(b"clean")
        sim.run_until_idle()
        assert chan_a.stats.rtt_samples == 1          # fresh packet samples

    def test_sack_acknowledgement_samples(self, sim, hub):
        """A packet first acknowledged via a SACK range (cumulative ack
        held back by an earlier hole) still yields its RTT sample — and
        only once, not again at the later cumulative ack."""
        chan_a, _, _, delivered_b = make_pair(sim, hub, window=4,
                                              rto_initial=0.2)
        drop_data_seq_once(hub, 1)
        for i in range(4):
            chan_a.send(f"m{i}".encode())
        sim.run_until_idle()
        assert delivered_b == [f"m{i}".encode() for i in range(4)]
        # seq 1 was retransmitted (no sample); 2..4 were SACKed fresh.
        assert chan_a.stats.rtt_samples == 3

    def test_set_rto_actuator(self, sim, hub):
        chan_a, _, _, _ = make_pair(sim, hub, rto_initial=0.05)
        assert chan_a.rto_initial == 0.05
        chan_a.set_rto(0.2)
        assert chan_a.rto_initial == 0.2
        chan_a.set_rto(5.0)                  # above the old max: cap follows
        assert chan_a.rto_max >= 5.0
        with pytest.raises(ConfigurationError):
            chan_a.set_rto(0.0)
        with pytest.raises(ConfigurationError):
            chan_a.set_rto(0.2, rto_max=0.1)

    def test_set_rto_applies_to_new_packets(self, sim):
        hub = InMemoryHub(sim, delay_s=0.050)         # 100 ms RTT
        chan_a, _, _, delivered_b = make_pair(sim, hub, rto_initial=0.5)
        chan_a.set_rto(0.150)
        chan_a.send(b"x")
        sim.run_until_idle()
        # RTO above the RTT: delivered without a spurious retransmission.
        assert delivered_b == [b"x"]
        assert chan_a.stats.retransmissions == 0


class TestDifferential:
    """Random loss + reordering + duplication over the simulated network.

    Whatever the link does, the delivered stream must equal the sent
    stream — exactly once, in order — at every window setting.
    """

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16), window=st.sampled_from([1, 4, 32]))
    def test_delivered_equals_sent(self, seed, window):
        sim = Simulator()
        network = SimNetwork(sim, RngRegistry(seed))
        medium = network.add_medium("chaos", _CHAOS_LINK)
        network.attach("a", SimHost(sim, LAPTOP_PROFILE, "a"), medium)
        network.attach("b", SimHost(sim, LAPTOP_PROFILE, "b"), medium)
        ta, tb = SimTransport(network, "a"), SimTransport(network, "b")
        delivered = []
        chan_a = ReliableChannel(ta, sim, "b", lambda s, p: None,
                                 window=window, rto_initial=0.1)
        chan_b = ReliableChannel(tb, sim, "a",
                                 lambda s, p: delivered.append(p),
                                 window=window, rto_initial=0.1)
        ta.set_receiver(
            lambda src, data: chan_a.handle_packet(Packet.decode(data)))
        tb.set_receiver(
            lambda src, data: chan_b.handle_packet(Packet.decode(data)))

        messages = [f"m{i:04d}".encode() for i in range(80)]
        for index, message in enumerate(messages):
            sim.call_later(0.002 * index, chan_a.send, message)
        while len(delivered) < len(messages) and sim.now() < 600.0:
            sim.run(sim.now() + 1.0)
        assert delivered == messages
        # Let the tail of lost acks re-resolve (retransmit -> dup -> re-ack).
        sim.run(sim.now() + 60.0)
        assert delivered == messages
        assert chan_a.unacked_count() == 0


    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), window=st.sampled_from([1, 4, 32]),
           burst=st.sampled_from([1, 3, 8, 32]))
    def test_same_instant_bursts_delivered_equals_sent(self, seed, window,
                                                       burst):
        """Bursts sent from one callback arrive in one receive turn; lost,
        duplicated and late copies land *in the same instants* as later
        bursts (every delay is a whole number of hub ticks), so one turn
        mixes in-order, duplicate and out-of-order arrivals."""
        import random
        rng = random.Random(seed)
        tick = 0.005
        sim = Simulator()
        hub = InMemoryHub(sim, delay_s=tick)

        def chaos(src, dest, data):
            roll = rng.random()
            if roll < 0.15:
                return False                                   # lost
            if roll < 0.25:
                hub.inject(src, dest, data)                    # duplicated
            elif roll < 0.40:                                  # reordered
                sim.call_later(tick * rng.randint(1, 4), hub.inject,
                               src, dest, data)
                return False
            return True

        hub.drop_filter = chaos
        chan_a, chan_b, _, delivered = make_pair(sim, hub, window=window,
                                                 rto_initial=0.1)
        messages = [f"m{i:04d}".encode() for i in range(96)]

        def send_burst(start):
            for message in messages[start:start + burst]:
                chan_a.send(message)

        for index, start in enumerate(range(0, len(messages), burst)):
            sim.call_at(tick * index, send_burst, start)
        while len(delivered) < len(messages) and sim.now() < 600.0:
            sim.run(sim.now() + 1.0)
        assert delivered == messages
        hub.drop_filter = None          # let the tail of lost acks resolve
        sim.run(sim.now() + 60.0)
        assert delivered == messages
        assert chan_a.unacked_count() == 0
        # Coalescing only ever removes ACKs: never more than one per
        # arrival (in-order, duplicate or out-of-order).
        stats = chan_b.stats
        assert stats.acks_sent <= (stats.delivered + stats.duplicates
                                   + stats.out_of_order)


class TestClose:
    def test_close_drops_queue(self, sim, hub):
        chan_a, _, _, delivered_b = make_pair(sim, hub)
        hub.drop_filter = lambda src, dest, data: False
        chan_a.send(b"queued")
        chan_a.close()
        hub.drop_filter = None
        sim.run(10.0)
        assert delivered_b == []
        assert chan_a.unacked_count() == 0

    def test_send_after_close_is_dropped(self, sim, hub):
        chan_a, _, _, delivered_b = make_pair(sim, hub)
        chan_a.close()
        chan_a.send(b"late")
        sim.run_until_idle()
        assert delivered_b == []
