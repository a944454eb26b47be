"""Match plans: one shard's matching work as an explicit, shippable value.

The sharded matcher (:mod:`repro.core.sharding`) already split the batch
match phase into a pure function of (shard subscription table, per-shard
event projections).  This module names that function's *input*: a
:class:`MatchPlan` — the shard id, the projected event slices and the
registration epoch they were built against — and the boundary that
executes it, :class:`PlanExecutor`.

Making the plan explicit is what lets the same match phase run anywhere:

* :class:`InlineExecutor` runs each plan on the host's own shard engines
  — the default, and the fallback when a worker dies;
* :class:`repro.core.workers.WorkerPoolExecutor` packs plans and ships
  them to worker *processes*, which is what finally takes the match
  phase past one CPython core — the plan is a value, not a closure.

A plan is both picklable (plain ints, lists and attribute dicts) and
serialisable (:func:`write_plan` / :func:`decode_plan`: a table of
columns, see the grammar above them; scatter-gather chunks riding the
PR-5 ``write_*`` discipline: nothing is joined until the IPC message
boundary).  Events cross the worker boundary as wire bytes, never as
pickled objects — the same rule the network path follows.

The *epoch* stamps which version of the subscription table a plan assumes.
Every registration mutation of the sharded matcher bumps its epoch and
(when a sink is attached) emits a per-shard delta; an executor must apply
every delta up to ``plan.epoch`` before running the plan, or its replica
table would be stale and the match set wrong.  Inline execution trivially
satisfies this (host tables are always current); the worker pool replays
delta logs to workers in epoch order ahead of their plans.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import Collection, Mapping, Protocol, Sequence

from repro.errors import CodecError
from repro.transport import wire
from repro.transport.wire import Value


@dataclass
class MatchPlan:
    """One shard's slice of a batch match: execute anywhere.

    ``indexes[i]`` is the position in the original batch of the event
    whose projection is ``projections[i]`` — the executor returns one
    match-id collection per projection, and the matcher merges them back
    by index.  ``epoch`` is the registration epoch of the table the plan
    was built against (see module docstring).
    """

    shard: int
    epoch: int
    indexes: list[int] = field(default_factory=list)
    projections: list[Mapping[str, Value]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.indexes)


#: One executed plan: a match-id collection per projected event, aligned
#: with ``plan.indexes``.  Sets from inline engines, lists decoded off a
#: worker's reply — the merge step only iterates them.
PlanResult = Sequence[Collection[int]]


class PlanExecutor(Protocol):
    """The executable-plan boundary of the match phase.

    ``execute`` returns one :data:`PlanResult` per plan, in plan order.
    Implementations must be synchronous and exact: the differential suite
    pins every executor's results against the brute-force oracle.
    """

    def execute(self, plans: Sequence[MatchPlan]) -> list[PlanResult]:
        ...


class _ShardEngineHost(Protocol):
    """What an inline executor needs from the sharded matcher."""

    def shard_engines(self) -> Sequence:
        ...


class InlineExecutor:
    """Execute plans on the host's own shard engines, synchronously.

    One ``_match_ids_batch`` call per plan against the engine instance
    the plan's shard names.  It is also the crash fallback: host engines
    stay fully registered whatever executor is installed, so any plan can
    always run here.
    """

    def __init__(self, host: _ShardEngineHost) -> None:
        self._host = host

    def execute(self, plans: Sequence[MatchPlan]) -> list[PlanResult]:
        engines = self._host.shard_engines()
        return [engines[plan.shard]._match_ids_batch(plan.projections)
                for plan in plans]


# -- wire codec --------------------------------------------------------------
#
# plan   := varint shard, varint epoch, varint n_rows, u32[n_rows] index,
#           varint n_groups, n_groups x group
# group  := varint n_names, n_names x name (varint length, UTF-8),
#           varint n_members, u32[n_members] row, n_names x column
# column := 0x00, n_members x value (wire.write_value, tag and body)
#         | 0x01, f64[n_members]     every value an exact float
#         | 0x02, i64[n_members]     every value an exact int that fits
#
# A vitals plan is a table: most rows carry the same names, and under a
# name nearly every value is a float (or an int).  So the rows are grouped
# by their name tuple, each name is written once per group, and a column
# crosses as one ``array`` image — one C call to pack it and one to unpack
# it, where the TLV attribute map paid a chunk per name and per value on
# each side.  The u32 / f64 / i64 blocks are ``array('I' / 'd' / 'q')``
# images in native byte order, like the RESULTS reply's (both ends of the
# pipe are this machine).  ``row`` is a position in the plan (0 <=
# row < n_rows); every row belongs to exactly one group.

_COLUMN_VALUES = b"\x00"
_COLUMN_FLOATS = b"\x01"
_COLUMN_INTS = b"\x02"
_COLUMN_TYPECODES = {_COLUMN_FLOATS[0]: "d", _COLUMN_INTS[0]: "q"}


def write_plan(out: list[bytes], plan: MatchPlan) -> None:
    """Append ``plan``'s wire chunks to ``out`` without joining."""
    rows = len(plan.indexes)
    if len(plan.projections) != rows:
        raise CodecError(f"plan of {rows} indexes carries "
                         f"{len(plan.projections)} projections")
    groups: dict[tuple[str, ...], tuple[list[int], list]] = {}
    for row, projection in enumerate(plan.projections):
        names = tuple(projection)
        group = groups.get(names)
        if group is None:
            group = groups[names] = ([], [])
        group[0].append(row)
        group[1].append(projection.values())
    append = out.append
    append(wire.encode_varint(plan.shard))
    append(wire.encode_varint(plan.epoch))
    append(wire.encode_varint(rows))
    try:
        append(array("I", plan.indexes).tobytes())
    except OverflowError as exc:
        raise CodecError(f"plan index does not fit 32 bits: {exc}") from exc
    append(wire.encode_varint(len(groups)))
    for names, (members, value_rows) in groups.items():
        append(wire.encode_varint(len(names)))
        for name in names:
            append(wire.name_chunk(name))
        append(wire.encode_varint(len(members)))
        append(array("I", members).tobytes())
        for column in zip(*value_rows):
            _write_column(out, column)


def _write_column(out: list[bytes], column: tuple[Value, ...]) -> None:
    kinds = set(map(type, column))
    if kinds == {float}:
        out.append(_COLUMN_FLOATS)
        out.append(array("d", column).tobytes())
        return
    if kinds == {int}:
        try:
            image = array("q", column).tobytes()
        except OverflowError:
            pass                        # past 64 bits: value by value
        else:
            out.append(_COLUMN_INTS)
            out.append(image)
            return
    out.append(_COLUMN_VALUES)
    for value in column:
        wire.write_value(out, value)


#: Joined form; IPC framing normally joins a whole message instead.
encode_plan = wire.encoder(write_plan)


def _read_block(buf: wire.Buffer, pos: int, typecode: str, count: int
                ) -> tuple[array, int]:
    """``count`` items of an array image at ``pos``; (array, new offset).
    The length is checked against the buffer before anything is
    allocated."""
    block = array(typecode)
    end = pos + count * block.itemsize
    if end > len(buf):
        raise CodecError(f"truncated plan: block of {count} x "
                         f"'{typecode}' runs past the buffer")
    block.frombytes(buf[pos:end])
    return block, end


def _read_column(buf: wire.Buffer, pos: int, count: int
                 ) -> tuple[Sequence[Value], int]:
    if pos >= len(buf):
        raise CodecError("truncated plan: missing column form")
    form = buf[pos]
    pos += 1
    if form == _COLUMN_VALUES[0]:
        values: list[Value] = []
        for _ in range(count):
            value, pos = wire.decode_value(buf, pos)
            values.append(value)
        return values, pos
    typecode = _COLUMN_TYPECODES.get(form)
    if typecode is None:
        raise CodecError(f"unknown plan column form: {form}")
    block, pos = _read_block(buf, pos, typecode, count)
    return block.tolist(), pos


def decode_plan(buf: wire.Buffer, offset: int = 0) -> tuple[MatchPlan, int]:
    """Parse one plan from any wire buffer; returns (plan, new offset).

    Whatever the bytes, the outcome is this or a :class:`CodecError`, and
    nothing is allocated beyond the buffer's own length.
    """
    shard, pos = wire.decode_varint(buf, offset)
    epoch, pos = wire.decode_varint(buf, pos)
    rows, pos = wire.decode_varint(buf, pos)
    indexes, pos = _read_block(buf, pos, "I", rows)
    group_count, pos = wire.decode_varint(buf, pos)
    projections: list = [None] * rows
    assigned = 0
    for _ in range(group_count):
        name_count, pos = wire.decode_varint(buf, pos)
        names: list[str] = []
        for _ in range(name_count):
            name, pos = wire.decode_str(buf, pos)
            names.append(name)
        member_count, pos = wire.decode_varint(buf, pos)
        members, pos = _read_block(buf, pos, "I", member_count)
        if member_count and max(members) >= rows:
            raise CodecError(f"plan group names row {max(members)} "
                             f"of {rows}")
        columns = []
        for _ in names:
            column, pos = _read_column(buf, pos, member_count)
            columns.append(column)
        assigned += member_count
        value_rows = zip(*columns) if columns else repeat(())
        for row, values in zip(members, value_rows):
            projections[row] = dict(zip(names, values))
    # n assignments that leave none of n rows empty gave each row one.
    if assigned != rows or None in projections:
        raise CodecError("plan rows are not each in exactly one group")
    return MatchPlan(shard, epoch, indexes.tolist(), projections), pos
