"""Span tracing from the outside: wrappers around public entry points.

Nothing in ``src/`` knows it is being traced.  ``Tracer.install`` patches
the *public* methods and module-level functions listed in ``README.md``
at class / module level, before the stack under test is built, and wraps
registered callbacks by patching the public registration functions
(``Transport.set_receiver``, ``PacketEndpoint.set_payload_handler`` /
``set_control_handler``, ``EventBus.subscribe_local``,
``BusClient.subscribe``) — never a ``_private`` attribute.

A span is (label, start ns, end ns, parent index); the root of a span is
found by walking parents, so every span under one ``on_readable`` or
``publish`` root shares that root's index as its request id.  Spans go
into preallocated arrays and are only aggregated or written out after
the measured phase.  A label's *self time* is the sum of its spans'
durations minus the durations of their direct children, so self times
over all labels add up to the time covered by root spans.
"""

from __future__ import annotations

import collections
import json
import time
from array import array

#: Spans kept verbatim in a ``--trace-out`` file.
SPANS_WRITTEN = 2000


def _zeros(typecode: str, count: int) -> array:
    return array(typecode, bytes(array(typecode).itemsize * count))


def layer_of(callback) -> str:
    """The layer a registered callback belongs to: its defining module."""
    module = getattr(callback, "__module__", None) or type(callback).__module__
    return module[len("repro."):] if module.startswith("repro.") else "ledger"


class Tracer:
    """Records spans around wrapped callables; installs/removes patches."""

    def __init__(self, capacity: int = 1 << 20) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        #: Per label, the summed ``size(args)`` of its sized wrappers
        #: (events per ``publish_batch`` call and the like).
        self.sizes: list[int] = []
        self._chunk = capacity
        self.capacity = capacity
        self.label = _zeros("h", capacity)
        self.parent = _zeros("i", capacity)
        self.start = _zeros("q", capacity)
        self.end = _zeros("q", capacity)
        self.count = 0
        self.current = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _label_id(self, label: str) -> int:
        label_id = self._label_ids.get(label)
        if label_id is None:
            label_id = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
            self.sizes.append(0)
        return label_id

    def _grow(self) -> None:
        for name, typecode in (("label", "h"), ("parent", "i"),
                               ("start", "q"), ("end", "q")):
            getattr(self, name).extend(_zeros(typecode, self._chunk))
        self.capacity += self._chunk

    def wrap(self, function, label: str, size=None):
        """``function`` with a span recorded around every call.

        ``size(args)`` (optional) is added to ``sizes[label]`` per call,
        for entry points that take a batch.
        """
        label_id = self._label_id(label)
        tracer = self
        clock = time.perf_counter_ns
        sizes = self.sizes

        def traced(*args, **kwargs):
            index = tracer.count
            if index >= tracer.capacity:
                tracer._grow()
            tracer.count = index + 1
            parent = tracer.current
            tracer.current = index
            tracer.label[index] = label_id
            tracer.parent[index] = parent
            if size is not None:
                sizes[label_id] += size(args)
            tracer.start[index] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end[index] = clock()
                tracer.current = parent

        traced.__wrapped__ = function
        return traced

    # -- patching --------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _method(self, cls, name: str, label: str, size=None) -> None:
        self._set(cls, name, self.wrap(cls.__dict__[name], label, size))

    def _function(self, label: str, home, name: str, *importers) -> None:
        """Wrap module-level ``home.name`` and rebind it in every module
        that imported it by name."""
        traced = self.wrap(getattr(home, name), label)
        for module in (home, *importers):
            self._set(module, name, traced)

    def _registration(self, cls, name: str, position: int, label_of) -> None:
        """Patch a registration method so the callback it is handed (its
        ``position``-th argument) is wrapped before being stored."""
        original = cls.__dict__[name]
        tracer = self

        def register(self_, *args, **kwargs):
            callback = args[position]
            if callback is not None:
                args = (*args[:position],
                        tracer.wrap(callback, label_of(callback)),
                        *args[position + 1:])
            return original(self_, *args, **kwargs)

        self._set(cls, name, register)

    def install(self) -> None:
        """Patch every wrapped entry point (see README.md, per-layer table)."""
        from repro.core import (bus, client, events, protocol, proxies,
                                proxy, sharding, workers)
        from repro.deploy import harness
        from repro.matching import engine
        from repro.sim import kernel
        from repro.transport import base, endpoint, packets, reliability, udp

        def batch_size(args) -> int:
            return len(args[1])

        def one(_args) -> int:
            return 1

        method = self._method
        method(kernel.RealtimeScheduler, "run_for", "sim.kernel.run_for")
        method(kernel.Simulator, "run_until_idle",
               "sim.kernel.run_until_idle")
        method(udp.UdpTransport, "on_readable", "transport.udp.on_readable")
        method(base.Transport, "send", "transport.udp.send")
        method(endpoint.PacketEndpoint, "send_reliable",
               "transport.endpoint.send_reliable")
        self._set(packets.Packet, "decode", classmethod(self.wrap(
            packets.Packet.__dict__["decode"].__func__,
            "transport.packets.decode")))
        method(packets.Packet, "encode", "transport.packets.encode")
        method(reliability.ReliableChannel, "handle_packet",
               "transport.reliability.handle_packet")
        method(reliability.ReliableChannel, "send",
               "transport.reliability.send")
        method(proxy.Proxy, "on_payload", "core.proxy.on_payload")
        method(proxy.Proxy, "deliver", "core.proxy.deliver")
        method(proxy.Proxy, "deliver_batch", "core.proxy.deliver_batch")
        # Bound by name at import: patch the home module and every importer.
        self._function("core.events.decode_event", events, "decode_event",
                       proxy, client)
        self._function("core.events.write_event", events, "write_event",
                       protocol)
        self._function("core.protocol.chunk_frames", protocol, "chunk_frames")
        self._function("core.protocol.parse_batch", protocol, "parse_batch")
        self._function("core.protocol.deliver_frame", protocol,
                       "deliver_frame", proxy, proxies)
        method(bus.EventBus, "publish", "core.bus.publish", one)
        method(bus.EventBus, "publish_batch", "core.bus.publish_batch",
               batch_size)
        method(bus.LocalPublisher, "publish_batch",
               "core.bus.local_publish_batch")
        method(bus.DeliverMemo, "deliver_frame", "core.bus.memo_frame")
        method(engine.MatchingEngine, "match", "matching.match", one)
        method(engine.MatchingEngine, "match_batch_ids",
               "matching.match_batch_ids", batch_size)
        method(engine.MatchingEngine, "subscribe", "matching.subscribe")
        method(engine.MatchingEngine, "unsubscribe", "matching.unsubscribe")
        method(sharding.ShardedMatcher, "build_plans",
               "core.sharding.build_plans")
        method(sharding.ShardedMatcher, "merge_plan_results",
               "core.sharding.merge_plan_results")
        method(workers.WorkerPoolExecutor, "execute", "core.workers.execute")
        method(client.BusClient, "publish", "core.client.publish", one)
        method(client.BusClient, "publish_batch", "core.client.publish_batch",
               batch_size)
        method(harness.LoopbackDevice, "publish", "deploy.harness.publish")
        method(harness.LoopbackDevice, "flush", "deploy.harness.flush")

        registration = self._registration
        registration(base.Transport, "set_receiver", 0,
                     lambda _cb: "transport.endpoint.on_datagram")
        registration(endpoint.PacketEndpoint, "set_payload_handler", 0,
                     lambda cb: f"{layer_of(cb)}.on_payload")
        registration(endpoint.PacketEndpoint, "set_control_handler", 0,
                     lambda cb: f"{layer_of(cb)}.on_control")
        registration(bus.EventBus, "subscribe_local", 1,
                     lambda cb: f"{layer_of(cb)}.callback")
        registration(client.BusClient, "subscribe", 1,
                     lambda cb: f"{layer_of(cb)}.callback")

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- aggregation -----------------------------------------------------------

    def calls(self) -> dict[str, int]:
        """Spans recorded so far, per label."""
        counted = collections.Counter(self.label[:self.count])
        return {self.labels[label_id]: calls
                for label_id, calls in counted.items()}

    def sized(self, label: str) -> int:
        label_id = self._label_ids.get(label)
        return self.sizes[label_id] if label_id is not None else 0

    def budget(self, first: int = 0, last: int | None = None
               ) -> dict[str, tuple[int, int, int]]:
        """label -> (calls, self ns, total ns) over spans [first, last).

        The range must start and end outside any span (phases do).
        """
        last = self.count if last is None else last
        width = len(self.labels)
        calls, self_ns, total_ns = [0] * width, [0] * width, [0] * width
        label, parent, start, end = (self.label, self.parent, self.start,
                                     self.end)
        for index in range(first, last):
            duration = end[index] - start[index]
            own = label[index]
            calls[own] += 1
            self_ns[own] += duration
            total_ns[own] += duration
            above = parent[index]
            if above >= 0:
                self_ns[label[above]] -= duration
        return {self.labels[label_id]: (calls[label_id], self_ns[label_id],
                                        total_ns[label_id])
                for label_id in range(width) if calls[label_id]}

    def write(self, path: str, table: dict[str, tuple[int, int, int]]
              ) -> None:
        """First SPANS_WRITTEN spans verbatim plus a ``budget()`` table."""
        spans = []
        roots: list[int] = []
        for index in range(min(self.count, SPANS_WRITTEN)):
            above = self.parent[index]
            roots.append(index if above < 0 else roots[above])
            spans.append({"id": index,
                          "name": self.labels[self.label[index]],
                          "start_ns": self.start[index],
                          "end_ns": self.end[index],
                          "parent": above, "root": roots[index]})
        self_time = [{"name": label, "layer": label.rsplit(".", 1)[0],
                      "calls": calls, "self_us": self_ns / 1e3,
                      "total_us": total_ns / 1e3}
                     for label, (calls, self_ns, total_ns)
                     in sorted(table.items(), key=lambda item: -item[1][1])]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"span_count": self.count, "spans": spans,
                       "closed_phase_self_time": self_time}, handle, indent=1)
