"""One BATCH walk: :func:`repro.core.protocol.walk` against the three
loops it replaced.

Before, ``Proxy._dispatch_batch``, ``BusClient._on_payload`` and
``RawSensorDevice._on_payload`` each unpacked a BATCH themselves.  Their
loops are kept here verbatim (the parent commit's, driving a real twin
object's opcode arms), and for generated payloads — valid BATCHes mixing
every opcode, nested BATCH, empty and unknown-opcode frames, truncated /
trailing / over-``MAX_FRAMES`` envelopes, from ``bytes`` and
``memoryview`` — the object fed through the one walk must end with the
same counters as its twin fed through the old loop, the walk must hand
over exactly the ``(op, body)`` sequence the old loop handled, and
``count_publications`` must equal the PUBLISH frames walked.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import protocol
from repro.core.events import Event, decode_event, encode_event
from repro.core.protocol import BusOp
from repro.devices.base import RawSensorDevice
from repro.discovery.agent import AgentConfig
from repro.errors import BusError, CodecError
from repro.ids import service_id_from_name
from repro.matching.filters import (
    Filter,
    Subscription,
    encode_filter,
    encode_subscription,
)
from repro.sim.kernel import Simulator
from repro.transport import wire
from repro.transport.endpoint import PacketEndpoint
from repro.transport.inmem import InMemoryHub

from tests.core.conftest import CoreKit

SENDER = service_id_from_name("pub")


# -- the parent's three loops, verbatim, over a twin's opcode arms -----------

def parent_proxy_on_payload(proxy, payload, handled):
    """``Proxy.on_payload`` + ``_dispatch`` + ``_dispatch_batch``."""
    if proxy._destroyed:
        return
    try:
        op, body = protocol.unframe(payload)
    except CodecError:
        proxy.stats.malformed_payloads += 1
        return
    try:
        parent_proxy_dispatch(proxy, op, body, handled)
    except (CodecError, BusError):
        proxy.stats.malformed_payloads += 1


def parent_proxy_dispatch(proxy, op, body, handled):
    if op == BusOp.PUBLISH:
        handled.append((op, bytes(body)))
        event, end = decode_event(body)
        if end != len(body):
            raise CodecError("trailing bytes after event")
        proxy._publish_events((event,))
    elif op == BusOp.BATCH:
        parent_proxy_dispatch_batch(proxy, body, handled)
    else:
        handled.append((op, bytes(body)))
        proxy._dispatch(op, body)           # the caller's own opcode arms


def parent_proxy_dispatch_batch(proxy, body, handled):
    frames = protocol.parse_batch(body)
    proxy.stats.batches_received += 1
    pending = []
    for framed in frames:
        try:
            sub_op, sub_body = protocol.unframe(framed)
            if sub_op == BusOp.BATCH:
                raise CodecError("nested BATCH frame")
            handled.append((sub_op, bytes(sub_body)))
            if sub_op == BusOp.PUBLISH:
                event, end = decode_event(sub_body)
                if end != len(sub_body):
                    raise CodecError("trailing bytes after event")
                pending.append(event)
                continue
            if pending:
                proxy._publish_events(pending)
                pending = []
            proxy._dispatch(sub_op, sub_body)
        except (CodecError, BusError):
            proxy.stats.malformed_payloads += 1
    if pending:
        proxy._publish_events(pending)


def parent_client_on_payload(client, peer, payload, handled):
    """``BusClient._on_payload``."""
    try:
        op, body = protocol.unframe(payload)
    except CodecError:
        client.stats.malformed += 1
        return
    if op != BusOp.BATCH:
        handled.append((op, bytes(body)))
    if op == BusOp.DELIVER:
        client._on_deliver(body)
    elif op == BusOp.BATCH:
        try:
            frames = protocol.parse_batch(body)
        except CodecError:
            client.stats.malformed += 1
            return
        client.stats.batches_received += 1
        for framed in frames:
            if len(framed) and framed[0] == BusOp.BATCH:
                client.stats.malformed += 1     # batches never nest
                continue
            parent_client_on_payload(client, peer, framed, handled)
    elif op == BusOp.QUENCH:
        try:
            state = protocol.parse_quench(body)
        except CodecError:
            client.stats.malformed += 1
            return
        client._set_quenched(state)
    elif op == BusOp.DEVICE_CMD:
        if client.on_command is not None:
            client.on_command(wire.as_bytes(body))
    else:
        client.stats.malformed += 1


def parent_device_on_payload(device, peer, payload, handled):
    """``RawSensorDevice._on_payload``."""
    try:
        op, body = protocol.unframe(payload)
    except CodecError:
        return
    if op != BusOp.BATCH:
        handled.append((op, bytes(body)))
    if op == BusOp.DEVICE_CMD:
        device.stats.commands_received += 1
        device.handle_command(wire.as_bytes(body))
    elif op == BusOp.BATCH:
        try:
            frames = protocol.parse_batch(body)
        except CodecError:
            return
        for framed in frames:
            if len(framed) and framed[0] == BusOp.BATCH:
                continue                # batches never nest
            parent_device_on_payload(device, peer, framed, handled)


# -- generated payloads --------------------------------------------------------

def event_body(seqno):
    return encode_event(Event("walk.reading", {"n": seqno}, SENDER, seqno, 0.0))


@st.composite
def frames(draw):
    """One frame: any opcode with a good, bad or garbage body, a nested
    BATCH, an empty frame, or an opcode no ``BusOp`` names."""
    kind = draw(st.sampled_from(
        ["publish", "publish", "publish-junk", "subscribe", "unsubscribe",
         "deliver", "device-data", "device-cmd", "advertise", "quench",
         "nested", "empty", "unknown", "garbage"]))
    small = st.integers(min_value=1, max_value=6)
    if kind == "publish":
        return protocol.frame(BusOp.PUBLISH, event_body(draw(small)))
    if kind == "publish-junk":
        return protocol.frame(BusOp.PUBLISH, event_body(draw(small)) + b"\x00")
    if kind == "subscribe":                 # ids collide on purpose: BusError
        return protocol.frame(BusOp.SUBSCRIBE, encode_subscription(
            Subscription(draw(small), SENDER, [Filter.where("walk.reading")])))
    if kind == "unsubscribe":
        return protocol.frame_unsubscribe(draw(small))
    if kind == "deliver":
        return protocol.frame(BusOp.DELIVER, event_body(draw(small)))
    if kind == "device-data":
        return protocol.frame(BusOp.DEVICE_DATA, draw(st.binary(max_size=8)))
    if kind == "device-cmd":
        return protocol.frame(BusOp.DEVICE_CMD, draw(st.binary(max_size=8)))
    if kind == "advertise":
        return protocol.frame(BusOp.ADVERTISE,
                              encode_filter(Filter.where("walk.reading")))
    if kind == "quench":
        return protocol.frame(BusOp.QUENCH, draw(st.sampled_from(
            [b"\x00", b"\x01", b"\x02", b""])))
    if kind == "nested":
        return protocol.frame_batch(
            [protocol.frame(BusOp.PUBLISH, event_body(draw(small)))])
    if kind == "empty":
        return b""
    if kind == "unknown":
        return bytes((draw(st.sampled_from([0, 10, 99, 255])),)) + b"x"
    return bytes((draw(st.integers(1, 8)),)) + draw(st.binary(max_size=12))


@st.composite
def payloads(draw):
    """A lone frame or a BATCH, possibly with a damaged envelope."""
    if draw(st.integers(0, 4)) == 0:
        payload = draw(frames())
    else:
        payload = protocol.frame_batch(draw(st.lists(frames(), max_size=10)))
    damage = draw(st.sampled_from(
        ["none", "none", "none", "truncated", "trailing", "too-many",
         "bad-varint"]))
    if damage == "truncated" and payload:
        payload = payload[:draw(st.integers(0, len(payload) - 1))]
    elif damage == "trailing":
        payload += draw(st.binary(min_size=1, max_size=4))
    elif damage == "too-many":
        payload = protocol.frame(
            BusOp.BATCH, wire.encode_varint(wire.MAX_FRAMES + 1) + payload)
    elif damage == "bad-varint":
        payload = protocol.frame(BusOp.BATCH, b"\xff" * 12)
    return memoryview(payload) if draw(st.booleans()) else payload


def walked(payload):
    """What the one walk hands over (nothing where it raises)."""
    try:
        _batched, walked_frames, _bad = protocol.walk(payload)
    except CodecError:
        return []
    return [(op, bytes(body)) for op, body in walked_frames]


# -- the differential ------------------------------------------------------------

class RecordingDevice(RawSensorDevice):
    def __init__(self, sim, hub, name):
        super().__init__(PacketEndpoint(hub.create(name), sim), sim,
                         AgentConfig(name=name, device_type="sensor.hr"))
        self.commands = []

    def handle_command(self, data):
        self.commands.append(data)


def proxy_pair():
    """(kit, proxy, inbox) twice: a core with the publisher admitted and a
    local subscriber recording what the proxy publishes."""
    sides = []
    for _ in range(2):
        sim = Simulator()
        kit = CoreKit(sim, InMemoryHub(sim))
        kit.admit(kit.device_endpoint("pub"))
        inbox = []
        kit.bus.subscribe_local(Filter.where("walk.reading"),
                                lambda e, inbox=inbox: inbox.append(e.seqno))
        sides.append((kit, kit.bus.proxy_of(SENDER), inbox))
    return sides


class TestOneWalk:
    @settings(max_examples=250, deadline=None)
    @given(payloads())
    def test_proxy_matches_the_parent_loop(self, payload):
        (kit, proxy, inbox), (twin_kit, twin, twin_inbox) = proxy_pair()
        handled = []
        proxy.on_payload(payload)
        parent_proxy_on_payload(twin, payload, handled)
        kit.sim.run_until_idle()
        twin_kit.sim.run_until_idle()
        assert asdict(proxy.stats) == asdict(twin.stats)
        assert asdict(kit.bus.stats) == asdict(twin_kit.bus.stats)
        assert inbox == twin_inbox
        assert walked(payload) == handled
        assert protocol.count_publications(payload) == sum(
            op is BusOp.PUBLISH for op, _body in handled)

    @settings(max_examples=250, deadline=None)
    @given(payloads())
    def test_client_matches_the_parent_loop(self, payload):
        sim = Simulator()
        kit = CoreKit(sim, InMemoryHub(sim))
        results = []
        for name in ("new", "twin"):
            client = kit.client(name)
            got, commands, quenches = [], [], []
            client.subscribe(Filter.where("walk.reading"),
                             lambda e, got=got: got.append(e.seqno))
            client.on_command = commands.append
            client.on_quench_change = quenches.append
            results.append((client, got, commands, quenches))
        handled = []
        results[0][0]._on_payload(SENDER, payload)
        parent_client_on_payload(results[1][0], SENDER, payload, handled)
        (client, *seen), (twin, *twin_seen) = results
        assert asdict(client.stats) == asdict(twin.stats)
        assert seen == twin_seen
        assert client.quenched == twin.quenched
        assert walked(payload) == handled

    @settings(max_examples=250, deadline=None)
    @given(payloads())
    def test_raw_device_matches_the_parent_loop(self, payload):
        sim = Simulator()
        hub = InMemoryHub(sim)
        device = RecordingDevice(sim, hub, "new")
        twin = RecordingDevice(sim, hub, "twin")
        handled = []
        device._on_payload(SENDER, payload)
        parent_device_on_payload(twin, SENDER, payload, handled)
        assert device.commands == twin.commands
        assert asdict(device.stats) == asdict(twin.stats)
        assert walked(payload) == handled

    def test_the_policy_in_one_example(self):
        """Undecodable envelope: CodecError.  Empty frame, unknown opcode,
        nested BATCH: one bad frame each, skipped.  The rest in order."""
        publish = protocol.frame(BusOp.PUBLISH, event_body(1))
        command = protocol.frame(BusOp.DEVICE_CMD, b"go")
        batch = protocol.frame_batch(
            [publish, b"", b"\x63junk", protocol.frame_batch([publish]),
             command])
        for form in (batch, memoryview(batch)):
            batched, walked_frames, bad = protocol.walk(form)
            assert batched and bad == 3
            assert [(op, bytes(body)) for op, body in walked_frames] == [
                (BusOp.PUBLISH, event_body(1)), (BusOp.DEVICE_CMD, b"go")]
        assert protocol.walk(publish) == (
            False, [(BusOp.PUBLISH, event_body(1))], 0)
        for broken in (b"", b"\x63", batch[:-1], batch + b"\x00"):
            try:
                protocol.walk(broken)
            except CodecError:
                continue
            raise AssertionError(f"walk accepted {broken!r}")
