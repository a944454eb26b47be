"""An event is serialised once: the core forwards the bytes it validated.

``decode_event`` keeps the extent it parsed on the event and
``write_event`` emits it, so a DELIVER of a member-published event is
the opcode plus the publisher's own bytes.  Pinned here:

* **differential** — for generated events and *non-canonical but valid*
  publisher encodings (shuffled attribute order, padded varints) the
  subscriber decodes the event the parent's re-encode would have
  delivered, the DELIVER body is byte-identical to the PUBLISH body, and
  for canonical publishers the whole payload is byte-identical to the
  parent's (the reference encoders of ``test_zero_copy.py``).  Same over
  a BATCH, a capacity-split slice and a translating proxy;
* **the extent** — what is forwarded is ``[offset:pos]`` of the buffer
  the event was decoded from, nothing beyond it;
* **trailing bytes** — ``PUBLISH || event || garbage`` is malformed at
  the proxy (bare and inside a BATCH) and at the client, and so are
  SUBSCRIBE and ADVERTISE bodies with anything after them;
* **the count gate** — N member-published events fanned out to S remote
  subscribers cost exactly N ``wire.write_attr_map`` calls in the whole
  process (the publishers'), none at the core; a core-built event costs
  one per dispatch.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import protocol
from repro.core.events import Event, decode_event, encode_event
from repro.core.protocol import BusOp
from repro.core.quench import QuenchController
from repro.devices.protocols import HeartRateProtocol
from repro.ids import service_id_from_name
from repro.matching.filters import (
    Filter,
    Subscription,
    encode_filter,
    encode_subscription,
)
from repro.sim.kernel import Simulator
from repro.transport import wire
from repro.transport.inmem import InMemoryHub

from tests.core.conftest import CoreKit
from tests.transport.test_zero_copy import (
    ref_chunk_frames,
    ref_encode_event,
    ref_encode_value,
    ref_encode_varint,
    ref_frame,
)

EVENT_TYPE = "fwd.reading"

names = st.text(min_size=1, max_size=8).filter(lambda s: s != "type")
values = st.one_of(
    st.booleans(), st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.floats(allow_nan=False), st.text(max_size=20), st.binary(max_size=40))
attr_maps = st.dictionaries(names, values, max_size=6)
seqnos = st.integers(min_value=1, max_value=2 ** 40)
timestamps = st.floats(allow_nan=False, allow_infinity=False)


# -- a publisher that does not encode canonically ------------------------------

def padded_varint(value: int, pad: int) -> bytes:
    """``value`` as LEB128 with ``pad`` redundant continuation groups —
    longer than canonical, and every ``decode_varint`` accepts it (up to
    the 11 bytes past which a varint is "too long")."""
    raw = bytearray(ref_encode_varint(value))
    for _ in range(min(pad, 11 - len(raw))):
        raw[-1] |= 0x80
        raw.append(0)
    return bytes(raw)


def padded_value(value, pad: int) -> bytes:
    if isinstance(value, (bool, float)):
        return ref_encode_value(value)
    if isinstance(value, int):
        zigzag = wire.zigzag_encode(value)
        return bytes((2,)) + padded_varint(zigzag, pad)
    raw = value.encode("utf-8") if isinstance(value, str) else value
    tag = 4 if isinstance(value, str) else 5
    return bytes((tag,)) + padded_varint(len(raw), pad) + raw


def sloppy_encode_event(event_type, attributes, order, sender, seqno,
                        timestamp, pad) -> bytes:
    """A valid encoding no canonical writer produces: attributes in
    ``order`` instead of sorted, every varint padded by ``pad`` groups."""
    raw_type = event_type.encode("utf-8")
    parts = [padded_varint(len(raw_type), pad), raw_type,
             sender.to_bytes48(), padded_varint(seqno, pad),
             struct.pack("!d", timestamp),
             padded_varint(len(attributes), pad)]
    for name in order:
        raw_name = name.encode("utf-8")
        parts += [padded_varint(len(raw_name), pad), raw_name,
                  padded_value(attributes[name], pad)]
    return b"".join(parts)


@st.composite
def sloppy_events(draw):
    """(attributes, seqno, timestamp, varint padding, attribute order)
    of one sloppy event; the sender is the cell's to fill in."""
    attributes = draw(attr_maps)
    order = draw(st.permutations(sorted(attributes)))
    seqno, timestamp = draw(seqnos), draw(timestamps)
    pad = draw(st.integers(min_value=0, max_value=3))
    return attributes, seqno, timestamp, pad, order


# -- the cell under test ---------------------------------------------------------

class Cell:
    """A CoreKit with one raw publisher hop, one subscribed BusClient and
    a record of every payload the core hands to a member's hop."""

    def __init__(self, subscribers=1):
        self.sim = Simulator()
        self.kit = CoreKit(self.sim, InMemoryHub(self.sim))
        self.publisher = self.kit.device_endpoint("pub")
        self.kit.admit(self.publisher)
        self.clients, self.inboxes = [], []
        for index in range(subscribers):
            client = self.kit.client(f"sub-{index}")
            inbox = []
            client.subscribe(Filter.for_type_prefix("fwd."), inbox.append)
            self.clients.append(client)
            self.inboxes.append(inbox)
        self.sim.run_until_idle()
        self.sent = {}
        real = self.kit.core_endpoint.send_reliable

        def recording(address, payload):
            self.sent.setdefault(address, []).append(payload)
            real(address, payload)

        self.kit.core_endpoint.send_reliable = recording

    @property
    def sender(self):
        return self.publisher.service_id

    def send(self, payload: bytes) -> None:
        self.publisher.send_reliable("core", payload)
        self.sim.run_until_idle()

    def proxy(self, name):
        return self.kit.bus.proxy_of(service_id_from_name(name))


def parent_delivers(event: Event) -> bytes:
    """The DELIVER payload the parent commit built for ``event``: a fresh
    canonical encode of the decoded fields."""
    return ref_frame(BusOp.DELIVER, ref_encode_event(event))


def same_event(left: Event, right: Event) -> bool:
    return (left == right and left.timestamp == right.timestamp
            and dict(left.attributes) == dict(right.attributes))


class TestForwardingDifferential:
    @settings(max_examples=60, deadline=None)
    @given(sloppy_events())
    def test_sloppy_publisher_single_event(self, drawn):
        attributes, seqno, timestamp, pad, order = drawn
        cell = Cell()
        body = sloppy_encode_event(EVENT_TYPE, attributes, order,
                                   cell.sender, seqno, timestamp, pad)
        cell.send(protocol.frame(BusOp.PUBLISH, body))
        (payload,) = cell.sent["sub-0"]
        op, delivered_body = protocol.unframe(payload)
        assert op == BusOp.DELIVER
        assert delivered_body == body             # the publisher's bytes
        # What the subscriber decoded is what the parent's re-encode of
        # the core's decoded event would have given it.
        at_core, _ = decode_event(body)
        expected, _ = decode_event(ref_encode_event(at_core))
        (got,) = cell.inboxes[0]
        assert same_event(got, expected)
        assert same_event(got, Event(EVENT_TYPE, attributes, cell.sender,
                                     seqno, timestamp))

    @settings(max_examples=40, deadline=None)
    @given(attr_maps, seqnos, timestamps)
    def test_canonical_publisher_payload_is_the_parents(self, attributes,
                                                        seqno, timestamp):
        cell = Cell()
        event = Event(EVENT_TYPE, attributes, cell.sender, seqno, timestamp)
        published = b"".join(protocol.publish_parts(event))
        assert published == ref_frame(BusOp.PUBLISH, ref_encode_event(event))
        cell.send(published)
        assert cell.sent["sub-0"] == [parent_delivers(event)]
        assert same_event(cell.inboxes[0][0], event)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(sloppy_events(), min_size=2, max_size=7),
           st.integers(min_value=0, max_value=3))
    def test_batch_and_capacity_split(self, drawn, capacity):
        cell = Cell(subscribers=2)
        cell.proxy("sub-1").capacity = capacity
        bodies = []
        for seqno, (attributes, _, timestamp, pad, order) in enumerate(
                drawn, start=1):
            bodies.append(sloppy_encode_event(
                EVENT_TYPE, attributes, order, cell.sender, seqno,
                timestamp, pad))
        cell.send(protocol.frame_batch(
            [protocol.frame(BusOp.PUBLISH, body) for body in bodies]))
        frames = [ref_frame(BusOp.DELIVER, body) for body in bodies]
        limit = protocol.flush_limit(cell.kit.core_endpoint.window)
        # One receive turn, one dispatch: the whole run in one flush.
        assert cell.sent["sub-0"] == ref_chunk_frames(frames, limit)
        # The capacity-bounded member gets the same frames, a run at a
        # time.
        runs = ([frames] if not 0 < capacity < len(frames) else
                [frames[i:i + capacity]
                 for i in range(0, len(frames), capacity)])
        assert cell.sent["sub-1"] == [
            payload for run in runs
            for payload in ref_chunk_frames(run, limit)]
        expected = [decode_event(ref_encode_event(decode_event(body)[0]))[0]
                    for body in bodies]
        for inbox in cell.inboxes:
            assert len(inbox) == len(expected)
            assert all(map(same_event, inbox, expected))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(attr_maps, min_size=2, max_size=6), timestamps)
    def test_canonical_batch_payloads_are_the_parents(self, maps, timestamp):
        cell = Cell()
        events = [Event(EVENT_TYPE, attributes, cell.sender, seqno, timestamp)
                  for seqno, attributes in enumerate(maps, start=1)]
        for payload in protocol.chunk_frames(
                [protocol.publish_parts(event) for event in events]):
            cell.publisher.send_reliable("core", payload)
        cell.sim.run_until_idle()
        limit = protocol.flush_limit(cell.kit.core_endpoint.window)
        assert cell.sent["sub-0"] == ref_chunk_frames(
            [parent_delivers(event) for event in events], limit)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=30, max_value=250),
           st.integers(min_value=0, max_value=3), st.booleans())
    def test_translating_proxy_still_translates(self, threshold, pad,
                                                reverse):
        cell = Cell(subscribers=0)
        translator = HeartRateProtocol("p-1")
        cell.kit.bootstrap.register_translator(translator)
        sensor = cell.kit.device_endpoint("hr-0")
        cell.kit.admit(sensor, device_type="sensor.hr")
        attributes = {"target": "monitor", "value": threshold}
        order = sorted(attributes, reverse=reverse)
        body = sloppy_encode_event("smc.cmd.set_threshold", attributes,
                                   order, cell.sender, 1, 0.5, pad)
        cell.send(protocol.frame(BusOp.PUBLISH, body))
        at_core, _ = decode_event(body)
        command = HeartRateProtocol("p-1").encode_command(
            decode_event(ref_encode_event(at_core))[0])
        assert command is not None
        assert cell.sent["hr-0"] == [protocol.frame(BusOp.DEVICE_CMD,
                                                    command)]
        assert cell.proxy("hr-0").stats.commands_translated == 1


class TestForwardedExtent:
    def test_mid_buffer_decode_forwards_only_its_extent(self):
        sender = service_id_from_name("mid")
        first = Event("fwd.a", {"n": 1, "s": "x"}, sender, 1, 0.25)
        second = Event("fwd.b", {"blob": b"\x00" * 9}, sender, 2, 0.5)
        buf = b"\xaa\xbb" + encode_event(first) + encode_event(second) \
            + b"\xcc"
        for form in (buf, bytearray(buf), memoryview(buf)):
            one, pos = decode_event(form, 2)
            two, end = decode_event(form, pos)
            assert end == len(buf) - 1
            assert encode_event(one) == encode_event(first)
            assert encode_event(two) == encode_event(second)
            assert protocol.deliver_frame(two) \
                == ref_frame(BusOp.DELIVER, ref_encode_event(second))

    def test_forwarded_bytes_do_not_alias_the_datagram(self):
        event = Event("fwd.a", {"n": 1}, service_id_from_name("mid"), 1, 0.0)
        buf = bytearray(encode_event(event))
        decoded, _ = decode_event(memoryview(buf))
        buf[:] = bytes(len(buf))
        assert encode_event(decoded) == encode_event(event)

    def test_built_events_encode_decoded_events_forward(self, monkeypatch):
        calls = []
        real = wire.write_attr_map
        monkeypatch.setattr(wire, "write_attr_map",
                            lambda out, attrs: calls.append(1)
                            or real(out, attrs))
        built = Event("fwd.a", {"n": 1}, service_id_from_name("mid"), 1, 0.0)
        encoded = encode_event(built)
        assert calls == [1]
        decoded, _ = decode_event(encoded)
        assert encode_event(decoded) == encoded
        assert calls == [1]


class TestTrailingBytes:
    def test_publish_with_trailing_bytes_is_malformed(self):
        cell = Cell()
        event = Event(EVENT_TYPE, {"n": 1}, cell.sender, 1, 0.0)
        cell.send(protocol.frame(BusOp.PUBLISH, encode_event(event) + b"\x00"))
        assert cell.proxy("pub").stats.malformed_payloads == 1
        assert cell.proxy("pub").stats.events_published == 0
        assert cell.inboxes[0] == [] and "sub-0" not in cell.sent

    def test_batched_publish_with_trailing_bytes_is_skipped(self):
        cell = Cell()
        good = [Event(EVENT_TYPE, {"n": n}, cell.sender, n, 0.0)
                for n in (1, 2, 3)]
        frames = [protocol.frame(BusOp.PUBLISH, encode_event(event))
                  for event in good]
        frames[1] += b"junk"
        cell.send(protocol.frame_batch(frames))
        assert cell.proxy("pub").stats.malformed_payloads == 1
        assert [event.seqno for event in cell.inboxes[0]] == [1, 3]

    def test_subscribe_with_trailing_bytes_is_malformed(self):
        """``SUBSCRIBE || subscription || garbage`` registers nothing,
        alone or inside a BATCH, and the frames around it still count."""
        cell = Cell()
        stats = cell.kit.bus.stats
        active = stats.subscriptions_active

        def subscribe(sub_id, junk=b""):
            return protocol.frame(BusOp.SUBSCRIBE, encode_subscription(
                Subscription(sub_id, cell.sender, [Filter.where("x")])) + junk)

        cell.send(subscribe(1, b"\x00"))
        assert cell.proxy("pub").stats.malformed_payloads == 1
        assert stats.subscriptions_active == active
        cell.send(protocol.frame_batch(
            [subscribe(2), subscribe(3, b"junk"), subscribe(4)]))
        assert cell.proxy("pub").stats.malformed_payloads == 2
        assert stats.subscriptions_active == active + 2

    def test_advertise_with_trailing_bytes_is_malformed(self):
        """``ADVERTISE || filter || garbage`` advertises nothing, alone or
        inside a BATCH."""
        cell = Cell()
        quench = QuenchController(cell.kit.bus)
        good = protocol.frame(BusOp.ADVERTISE,
                              encode_filter(Filter.where("x")))
        cell.send(good + b"\x00")
        assert cell.proxy("pub").stats.malformed_payloads == 1
        assert quench.stats.advertisements == 0
        cell.send(protocol.frame_batch([good + b"junk", good]))
        assert cell.proxy("pub").stats.malformed_payloads == 2
        assert quench.stats.advertisements == 1

    def test_deliver_with_trailing_bytes_is_malformed_at_the_client(self):
        cell = Cell()
        client = cell.clients[0]
        event = Event(EVENT_TYPE, {"n": 1}, cell.sender, 1, 0.0)
        good = protocol.deliver_frame(event)
        cell.kit.core_endpoint.send_reliable("sub-0", good + b"\x00")
        cell.sim.run_until_idle()
        assert client.stats.malformed == 1 and client.stats.delivered == 0
        assert cell.inboxes[0] == []
        # The watermark did not move: the well-formed event still arrives.
        cell.kit.core_endpoint.send_reliable("sub-0", good)
        cell.sim.run_until_idle()
        assert client.stats.delivered == 1 and cell.inboxes[0] == [event]


class TestEncodeCountGate:
    """A count, not a ratio: ``wire.write_attr_map`` runs once per event
    *built*, wherever it is then sent."""

    def count_attr_map_writes(self, monkeypatch):
        calls = []
        real = wire.write_attr_map
        monkeypatch.setattr(wire, "write_attr_map",
                            lambda out, attrs: calls.append(1)
                            or real(out, attrs))
        return calls

    def test_member_events_are_encoded_by_their_publishers_only(
            self, monkeypatch):
        events, subscribers = 12, 5
        cell = Cell(subscribers)
        publisher = cell.kit.client("member-pub")
        calls = self.count_attr_map_writes(monkeypatch)
        for n in range(events // 2):
            publisher.publish(EVENT_TYPE, {"n": n, "hr": 61.5})
        publisher.publish_batch([(EVENT_TYPE, {"n": n, "hr": 61.5})
                                 for n in range(events // 2, events)])
        assert len(calls) == events               # the publishers' encodes
        cell.sim.run_until_idle()
        assert len(calls) == events               # the core added none
        assert all(len(inbox) == events for inbox in cell.inboxes)
        assert cell.kit.bus.stats.delivered_remote == events * subscribers

    def test_core_built_event_costs_one_encode_per_dispatch(
            self, monkeypatch):
        subscribers = 5
        cell = Cell(subscribers)
        calls = self.count_attr_map_writes(monkeypatch)
        local = cell.kit.bus.local_publisher("svc")
        local.publish(EVENT_TYPE, {"n": 1})
        assert len(calls) == 1                    # DeliverMemo: once, not 5x
        local.publish_batch([(EVENT_TYPE, {"n": n}) for n in (2, 3, 4)])
        assert len(calls) == 4
        cell.sim.run_until_idle()
        assert len(calls) == 4
        assert all(len(inbox) == 4 for inbox in cell.inboxes)
