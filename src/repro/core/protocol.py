"""Opcodes the bus speaks inside reliable payloads.

The reliability layer (:mod:`repro.transport.reliability`) gives each hop
an ordered, acknowledged byte-message stream; this module defines what
those messages *are*.  Every payload starts with a one-byte opcode followed
by an opcode-specific body:

===============  =======================================================
opcode           body
===============  =======================================================
PUBLISH          encoded event (service → its proxy → bus)
SUBSCRIBE        encoded subscription (service → bus)
UNSUBSCRIBE      varint subscription id
DELIVER          encoded event (bus → subscriber, via its proxy)
DEVICE_DATA      raw device protocol bytes (simple sensor → its proxy)
DEVICE_CMD       raw device protocol bytes (proxy → simple device)
ADVERTISE        encoded filter describing what a publisher emits
QUENCH           1 byte: 1 = stop publishing (nobody subscribed), 0 = go
BATCH            length-prefixed list of framed payloads (batch pipeline)
===============  =======================================================

A BATCH payload amortises per-packet overhead: a publisher coalesces many
PUBLISH frames into one reliable payload, and a proxy flushes one DELIVER
batch per scheduling round instead of one packet per event.

Every receiver — proxy, client, dumb device — reads a payload through
:func:`walk`, the only code that turns one into ``(op, body)`` frames, so
the BATCH policy is stated once, here.  An undecodable envelope (empty
payload, unknown opcode, truncated / trailing / oversized frame list)
raises :class:`~repro.errors.CodecError`: one malformed payload.  Inside
a BATCH an empty frame, an unknown opcode or a nested BATCH (batches never
nest) is one bad frame, counted for the caller and skipped — the channel
acknowledged the whole payload, so the good frames around it must not be
lost.  Every other frame is handed over in arrival order.

Zero-copy framing: the ``*_parts`` builders return chunk lists instead of
joined bytes, so the encode → frame → batch stack copies nothing until
:func:`chunk_frames` joins each reliable payload exactly once.  The
``parse``/``count`` side accepts any buffer and slices ``memoryview``\\ s
instead of materialising per-frame copies.

An event is serialised once, by whoever built it.  A frame around an
event that came off the wire is the opcode chunk plus the bytes
:func:`~repro.core.events.decode_event` validated
(:func:`~repro.core.events.write_event` forwards them), so the DELIVER
body a subscriber receives is byte for byte the PUBLISH body the
publisher sent; only events built at the core are encoded here.  A body
that carries anything after its event is malformed, as trailing bytes
are for every other opcode.
"""

from __future__ import annotations

import enum

from typing import Sequence

from repro.errors import CodecError
from repro.transport import wire

from repro.core.events import Event, write_event


class BusOp(enum.IntEnum):
    PUBLISH = 1
    SUBSCRIBE = 2
    UNSUBSCRIBE = 3
    DELIVER = 4
    DEVICE_DATA = 5
    DEVICE_CMD = 6
    ADVERTISE = 7
    QUENCH = 8
    BATCH = 9


#: One-byte opcode chunks, pre-built so framing never allocates for them.
_OP_CHUNKS = {op: bytes((int(op),)) for op in BusOp}
#: Wire byte -> opcode, so unframe skips enum construction per payload.
_OP_FROM_BYTE = {int(op): op for op in BusOp}

#: A frame handed to :func:`chunk_frames`: either already-joined bytes or
#: a scatter-gather chunk list.
Frame = bytes | list[bytes]


def frame(op: BusOp, body: bytes = b"") -> bytes:
    """Prepend the opcode byte to a body."""
    return _OP_CHUNKS[op] + body


def unframe(payload: wire.Buffer) -> tuple[BusOp, wire.Buffer]:
    """Split a payload into (opcode, body).

    The body is a slice of ``payload`` — zero-copy for ``memoryview``
    input, which is what the packet layer hands up.
    """
    if not len(payload):
        raise CodecError("empty bus payload")
    op = _OP_FROM_BYTE.get(payload[0])
    if op is None:
        raise CodecError(f"unknown bus opcode: {payload[0]}")
    return op, payload[1:]


def event_frame_parts(op: BusOp, event: Event) -> list[bytes]:
    """Chunk list for an event framed under ``op`` (PUBLISH/DELIVER)."""
    out = [_OP_CHUNKS[op]]
    write_event(out, event)
    return out


def publish_parts(event: Event) -> list[bytes]:
    """Chunk list for one PUBLISH frame (joined once per reliable payload)."""
    return event_frame_parts(BusOp.PUBLISH, event)


def deliver_parts(event: Event) -> list[bytes]:
    """Chunk list for one DELIVER frame (joined once per reliable payload)."""
    return event_frame_parts(BusOp.DELIVER, event)


def deliver_frame(event: Event) -> bytes:
    """The standard DELIVER framing used by service-style proxies."""
    return b"".join(deliver_parts(event))


def frame_unsubscribe(sub_id: int) -> bytes:
    return frame(BusOp.UNSUBSCRIBE, wire.encode_varint(sub_id))


def parse_unsubscribe(body: wire.Buffer) -> int:
    sub_id, pos = wire.decode_varint(body)
    if pos != len(body):
        raise CodecError("trailing bytes after unsubscribe id")
    return sub_id


#: Soft cap on one batch payload.  Packets carry at most 64 KiB; the
#: simulated media fragment anything over their MTU, so a batch flush stays
#: comfortably under the hard packet limit while still amortising per-event
#: overhead across dozens of typical events.
BATCH_FLUSH_BYTES = 32 * 1024

#: Flush cap for hops whose reliable channel is pipelined (window > 1):
#: roughly three link MTUs, so a flush becomes several payloads that
#: stream concurrently in the window, and one lost fragment costs a
#: small retransmission instead of the whole flush.
STREAM_FLUSH_BYTES = 4 * 1024


def flush_limit(window: int) -> int:
    """Batch-flush byte cap appropriate for a hop with ``window``.

    A stop-and-wait hop (window <= 1) pays one round trip per reliable
    payload, so a flush must cram everything into one payload.  A
    pipelined hop streams many payloads per round trip, where smaller
    chunks bound fragmentation loss amplification and retransmit cost.
    """
    return BATCH_FLUSH_BYTES if window <= 1 else STREAM_FLUSH_BYTES


def frame_batch(frames: Sequence[bytes]) -> bytes:
    """Wrap framed payloads into one BATCH payload."""
    return frame(BusOp.BATCH, wire.encode_frames(frames))


def parse_batch(body: wire.Buffer) -> list[wire.Buffer]:
    """Split a BATCH body back into its framed payloads.

    Frames are slices of ``body`` (zero-copy for ``memoryview`` input);
    copy any frame that must outlive the underlying buffer.
    """
    frames, pos = wire.decode_frames(body)
    if pos != len(body):
        raise CodecError("trailing bytes after batch frames")
    return frames


def walk(payload: wire.Buffer
         ) -> tuple[bool, list[tuple[BusOp, wire.Buffer]], int]:
    """One ordered payload as ``(batched, frames, bad)``.

    ``frames`` are the ``(op, body)`` pairs to handle, in arrival order,
    with exactly one BATCH level flattened; ``bad`` counts the frames the
    module's BATCH policy skipped; ``batched`` says whether the payload
    was a BATCH.  Raises :class:`CodecError` for an undecodable envelope.
    Bodies are slices of ``payload`` (see :func:`unframe`).
    """
    op, body = unframe(payload)
    if op is not BusOp.BATCH:
        return False, [(op, body)], 0
    frames = []
    bad = 0
    for framed in parse_batch(body):
        op = _OP_FROM_BYTE.get(framed[0]) if len(framed) else None
        if op is None or op is BusOp.BATCH:
            bad += 1
        else:
            frames.append((op, framed[1:]))
    return True, frames, bad


def _frame_chunks(framed: Frame) -> tuple[list[bytes] | tuple[bytes, ...], int]:
    """Normalise one frame to (chunks, wire size)."""
    if isinstance(framed, (bytes, bytearray, memoryview)):
        return (framed,), len(framed)
    return framed, sum(map(len, framed))


def chunk_frames(frames: Sequence[Frame],
                 max_bytes: int = BATCH_FLUSH_BYTES) -> list[bytes]:
    """Coalesce framed payloads into as few reliable payloads as possible.

    Frames may be joined ``bytes`` or scatter-gather chunk lists
    (:func:`publish_parts` / :func:`deliver_parts`); either way each
    returned payload is joined exactly once, here, at the reliable-payload
    boundary — no per-layer concatenation.  Runs of small frames are
    wrapped into BATCH payloads of at most ``max_bytes``; a single frame
    (or one larger than ``max_bytes`` by itself) is passed through
    unwrapped.  A single pre-joined ``bytes`` frame passes through
    *unjoined* — the shared fan-out encoding is reused as-is — and a lone
    frame, which is what every single publish and delivery hands over,
    returns before any batching state is built.
    """
    if len(frames) == 1:
        lone = frames[0]
        if isinstance(lone, bytes):
            return [lone]
        return [b"".join(_frame_chunks(lone)[0])]
    payloads: list[bytes] = []
    pending: list[tuple[Sequence[bytes], int]] = []
    pending_size = 0

    def flush() -> None:
        nonlocal pending, pending_size
        if not pending:
            return
        if len(pending) == 1:
            chunks, _ = pending[0]
            if len(chunks) == 1 and isinstance(chunks[0], bytes):
                payloads.append(chunks[0])
            else:
                payloads.append(b"".join(chunks))
        else:
            if len(pending) > wire.MAX_FRAMES:
                raise CodecError(f"too many frames in batch: {len(pending)}")
            parts: list[bytes] = [_OP_CHUNKS[BusOp.BATCH],
                                  wire.encode_varint(len(pending))]
            for chunks, size in pending:
                parts.append(wire.encode_varint(size))
                parts.extend(chunks)
            payloads.append(b"".join(parts))
        pending = []
        pending_size = 0

    for framed in frames:
        chunks, size = _frame_chunks(framed)
        if pending and pending_size + size > max_bytes:
            flush()
        pending.append((chunks, size))
        pending_size += size
    flush()
    return payloads


def count_publications(payload: wire.Buffer) -> int:
    """Number of PUBLISH frames ``payload`` carries (0 for non-publish ops).

    Used for publication accounting on payloads that are dropped before
    they reach the bus (e.g. traffic from non-members): the bus counts
    every publication *attempt*, even rejected ones.  Equal to the number
    of PUBLISH frames :func:`walk` hands over (0 where it raises), but
    counted from a single varint walk over the batch body: this is the
    path anyone can reach without being a member, and on a hostile
    ``MAX_FRAMES``-frame batch a count over :func:`walk`, which slices
    two views per frame, measured 3.4x slower (82 ms against 24 ms).
    """
    if not len(payload):
        return 0
    if payload[0] == BusOp.PUBLISH:
        return 1
    if payload[0] != BusOp.BATCH:
        return 0
    end = len(payload)
    try:
        count, pos = wire.decode_varint(payload, 1)
    except CodecError:
        return 0
    if count > wire.MAX_FRAMES:
        return 0
    publications = 0
    for _ in range(count):
        try:
            length, pos = wire.decode_varint(payload, pos)
        except CodecError:
            return 0
        if pos + length > end:
            return 0                    # truncated frame: malformed batch
        if length and payload[pos] == BusOp.PUBLISH:
            publications += 1
        pos += length
    if pos != end:
        return 0                        # trailing bytes: malformed batch
    return publications


def frame_quench(quench_on: bool) -> bytes:
    return frame(BusOp.QUENCH, b"\x01" if quench_on else b"\x00")


def parse_quench(body: wire.Buffer) -> bool:
    if len(body) != 1 or body[0] not in (0, 1):
        raise CodecError(f"bad quench body: {bytes(body)!r}")
    return bool(body[0])
