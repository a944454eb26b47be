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
* :class:`repro.core.workers.WorkerPoolExecutor` TLV-encodes plans and
  ships them to worker *processes*, which is what finally takes the match
  phase past one CPython core — the plan is a value, not a closure.

A plan is both picklable (plain ints, lists and attribute dicts) and
TLV-serialisable (:func:`write_plan` / :func:`decode_plan`, scatter-gather
chunks riding the PR-5 ``write_*`` discipline: nothing is joined until the
IPC message boundary).  Events cross the worker boundary as wire bytes,
never as pickled objects — the same rule the network path follows.

The *epoch* stamps which version of the subscription table a plan assumes.
Every registration mutation of the sharded matcher bumps its epoch and
(when a sink is attached) emits a per-shard delta; an executor must apply
every delta up to ``plan.epoch`` before running the plan, or its replica
table would be stale and the match set wrong.  Inline execution trivially
satisfies this (host tables are always current); the worker pool replays
delta logs to workers in epoch order ahead of their plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
# plan := varint shard, varint epoch, varint n,
#         n x varint index, n x attr_map
#
# Projections ride the same TLV attribute-map encoding events use on the
# network (wire.write_attr_map), so a worker decodes them with the stock
# zero-copy readers and the bytes are pinned by the wire test suite.

def write_plan(out: list[bytes], plan: MatchPlan) -> None:
    """Append ``plan``'s wire chunks to ``out`` without joining."""
    out.append(wire.encode_varint(plan.shard))
    out.append(wire.encode_varint(plan.epoch))
    out.append(wire.encode_varint(len(plan.indexes)))
    for index in plan.indexes:
        out.append(wire.encode_varint(index))
    for projection in plan.projections:
        wire.write_attr_map(out, projection)


#: Joined form; IPC framing normally joins a whole message instead.
encode_plan = wire.encoder(write_plan)


def decode_plan(buf: wire.Buffer, offset: int = 0) -> tuple[MatchPlan, int]:
    """Parse one plan from any wire buffer; returns (plan, new offset)."""
    shard, pos = wire.decode_varint(buf, offset)
    epoch, pos = wire.decode_varint(buf, pos)
    count, pos = wire.decode_varint(buf, pos)
    indexes: list[int] = []
    for _ in range(count):
        index, pos = wire.decode_varint(buf, pos)
        indexes.append(index)
    projections: list[Mapping[str, Value]] = []
    for _ in range(count):
        attrs, pos = wire.decode_attr_map(buf, pos)
        projections.append(attrs)
    if len(projections) != count:          # pragma: no cover - loop invariant
        raise CodecError("plan projection count mismatch")
    return MatchPlan(shard, epoch, indexes, projections), pos
