"""Content filters and subscriptions.

A :class:`Filter` is a conjunction of attribute :class:`Constraint` s, the
Siena filter model: an event matches when every constraint is satisfied by
the event's attribute values.  A :class:`Subscription` groups one or more
filters (a disjunction) under a subscription id and the subscriber's
service id.

Type discipline follows Siena: a constraint is satisfied only by a value of
a *compatible kind* (numbers with numbers, strings with strings, bytes with
bytes, booleans with booleans).  A constraint on an absent attribute, or on
a value of the wrong kind, is simply unsatisfied — never an error — because
publishers and subscribers evolve independently.

The event *type* is matched as an ordinary reserved attribute named
``"type"``, so content filters can select on it with EQ/PREFIX like any
other attribute.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Mapping

from repro.errors import CodecError, FilterError
from repro.ids import ServiceId
from repro.transport import wire
from repro.transport.wire import Value

#: Reserved attribute name under which an event's type is matched.
TYPE_ATTR = "type"

#: Sentinel distinguishing "attribute absent" from any real value.
_MISSING = object()


class Op(enum.IntEnum):
    """Constraint operators (the Siena operator set)."""

    EQ = 1
    NE = 2
    LT = 3
    LE = 4
    GT = 5
    GE = 6
    PREFIX = 7
    SUFFIX = 8
    CONTAINS = 9
    EXISTS = 10


_OP_SYMBOLS = {
    "=": Op.EQ, "==": Op.EQ, "!=": Op.NE, "<": Op.LT, "<=": Op.LE,
    ">": Op.GT, ">=": Op.GE, "prefix": Op.PREFIX, "suffix": Op.SUFFIX,
    "contains": Op.CONTAINS, "exists": Op.EXISTS,
}

_ORDER_OPS = frozenset({Op.LT, Op.LE, Op.GT, Op.GE})
_STRING_OPS = frozenset({Op.PREFIX, Op.SUFFIX, Op.CONTAINS})


class Kind(enum.IntEnum):
    """Value kind lattice used for type-compatibility checks."""

    BOOL = 1
    NUMBER = 2
    STRING = 3
    BYTES = 4


def kind_of(value: Value) -> Kind:
    """Classify a wire value.  ``bool`` is its own kind, not a number."""
    if isinstance(value, bool):
        return Kind.BOOL
    if isinstance(value, (int, float)):
        return Kind.NUMBER
    if isinstance(value, str):
        return Kind.STRING
    if isinstance(value, bytes):
        return Kind.BYTES
    raise FilterError(f"unsupported value type: {type(value).__name__}")


class Constraint:
    """One attribute constraint: ``name op value``.

    Immutable and hashable so constraints can key the forwarding engine's
    indexes.
    """

    __slots__ = ("name", "op", "value", "_kind")

    def __init__(self, name: str, op: Op | str, value: Value | None = None) -> None:
        if not name:
            raise FilterError("constraint attribute name must be non-empty")
        if isinstance(op, str):
            try:
                op = _OP_SYMBOLS[op]
            except KeyError:
                raise FilterError(f"unknown operator: {op!r}") from None
        if op == Op.EXISTS:
            if value is not None:
                raise FilterError("EXISTS takes no operand")
            object.__setattr__(self, "_kind", None)
        else:
            if value is None:
                raise FilterError(f"{op.name} requires an operand")
            value_kind = kind_of(value)
            if op in _ORDER_OPS and value_kind not in (Kind.NUMBER, Kind.STRING):
                raise FilterError(
                    f"{op.name} requires a number or string operand, "
                    f"got {type(value).__name__}")
            if op in _STRING_OPS and value_kind not in (Kind.STRING, Kind.BYTES):
                raise FilterError(
                    f"{op.name} requires a string or bytes operand, "
                    f"got {type(value).__name__}")
            object.__setattr__(self, "_kind", value_kind)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "value", value)

    def __setattr__(self, key: str, _value) -> None:
        raise AttributeError(f"Constraint is immutable (tried to set {key!r})")

    @property
    def kind(self) -> Kind | None:
        """Kind of value this constraint can be satisfied by (None = any)."""
        return self._kind

    def compatible(self, actual: Value) -> bool:
        """True when ``actual`` is of a kind this constraint can test."""
        if self.op == Op.EXISTS:
            return True
        return kind_of(actual) == self._kind

    def matches(self, actual: Value) -> bool:
        """Evaluate this constraint against one attribute value."""
        if self.op == Op.EXISTS:
            return True
        if not self.compatible(actual):
            return False
        operand = self.value
        if self.op == Op.EQ:
            return actual == operand
        if self.op == Op.NE:
            return actual != operand
        if self.op == Op.LT:
            return actual < operand
        if self.op == Op.LE:
            return actual <= operand
        if self.op == Op.GT:
            return actual > operand
        if self.op == Op.GE:
            return actual >= operand
        if self.op == Op.PREFIX:
            return actual.startswith(operand)
        if self.op == Op.SUFFIX:
            return actual.endswith(operand)
        if self.op == Op.CONTAINS:
            return operand in actual
        raise FilterError(f"unhandled operator: {self.op}")   # pragma: no cover

    def __eq__(self, other) -> bool:
        return (isinstance(other, Constraint)
                and self.name == other.name and self.op == other.op
                and self.value == other.value
                and type(self.value) is type(other.value))

    def __hash__(self) -> int:
        return hash((self.name, self.op, self.value, type(self.value)))

    def __repr__(self) -> str:
        if self.op == Op.EXISTS:
            return f"Constraint({self.name!r} exists)"
        return f"Constraint({self.name!r} {self.op.name} {self.value!r})"


class Filter:
    """A conjunction of constraints.

    An empty filter matches every event (subscribe-to-all); multiple
    constraints on the same attribute express ranges.
    """

    __slots__ = ("constraints",)

    def __init__(self, constraints: Iterable[Constraint] = ()) -> None:
        constraint_tuple = tuple(constraints)
        for constraint in constraint_tuple:
            if not isinstance(constraint, Constraint):
                raise FilterError(
                    f"Filter takes Constraints, got {type(constraint).__name__}")
        object.__setattr__(self, "constraints", constraint_tuple)

    def __setattr__(self, key: str, _value) -> None:
        raise AttributeError(f"Filter is immutable (tried to set {key!r})")

    @classmethod
    def where(cls, event_type: str | None = None,
              **constraints) -> "Filter":
        """Convenience constructor.

        ``Filter.where("health.hr", hr=(">", 120), patient="p1")`` builds a
        filter on event type ``health.hr`` with ``hr > 120`` and
        ``patient = "p1"``.  Plain values mean equality; a ``(op, operand)``
        tuple selects the operator; the string ``"exists"`` tests presence.
        """
        parts: list[Constraint] = []
        if event_type is not None:
            parts.append(Constraint(TYPE_ATTR, Op.EQ, event_type))
        for name, spec in constraints.items():
            if spec == "exists":
                parts.append(Constraint(name, Op.EXISTS))
            elif isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], str):
                parts.append(Constraint(name, spec[0], spec[1]))
            else:
                parts.append(Constraint(name, Op.EQ, spec))
        return cls(parts)

    @classmethod
    def for_type_prefix(cls, prefix: str) -> "Filter":
        """Filter matching every event whose type starts with ``prefix``."""
        return cls([Constraint(TYPE_ATTR, Op.PREFIX, prefix)])

    def matches(self, attributes: Mapping[str, Value]) -> bool:
        """True when every constraint is satisfied by ``attributes``."""
        for constraint in self.constraints:
            actual = attributes.get(constraint.name, _MISSING)
            if actual is _MISSING or not constraint.matches(actual):
                return False
        return True

    def names(self) -> set[str]:
        """Attribute names this filter constrains."""
        return {constraint.name for constraint in self.constraints}

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self.constraints)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Filter)
                and sorted(map(hash, self.constraints))
                == sorted(map(hash, other.constraints))
                and set(self.constraints) == set(other.constraints))

    def __hash__(self) -> int:
        return hash(frozenset(self.constraints))

    def __repr__(self) -> str:
        inner = " AND ".join(repr(c) for c in self.constraints) or "TRUE"
        return f"Filter({inner})"


class Subscription:
    """One or more filters registered under a subscription id.

    An event matches the subscription when it matches *any* of the filters.
    """

    __slots__ = ("sub_id", "subscriber", "filters")

    def __init__(self, sub_id: int, subscriber: ServiceId,
                 filters: Iterable[Filter]) -> None:
        filter_tuple = tuple(filters)
        if not filter_tuple:
            raise FilterError("subscription needs at least one filter")
        if sub_id < 0:
            raise FilterError(f"subscription id must be >= 0, got {sub_id}")
        object.__setattr__(self, "sub_id", sub_id)
        object.__setattr__(self, "subscriber", subscriber)
        object.__setattr__(self, "filters", filter_tuple)

    def __setattr__(self, key: str, _value) -> None:
        raise AttributeError(f"Subscription is immutable (tried to set {key!r})")

    def matches(self, attributes: Mapping[str, Value]) -> bool:
        return any(f.matches(attributes) for f in self.filters)

    def __repr__(self) -> str:
        return (f"Subscription(id={self.sub_id}, subscriber={self.subscriber}, "
                f"filters={len(self.filters)})")


# -- wire codec ------------------------------------------------------------
#
# Same discipline as repro.transport.wire: a format is a write_X that
# appends chunks to a caller-supplied list (the worker-pool delta path
# frames subscriptions inside larger pipe messages) with a decode_X
# inverse — repro-lint RL004 holds the pair in lockstep — and encode_X is
# derived from the writer.

#: Interned one-byte operator chunks, so the writers never allocate for them.
_OP_BYTES = {op: bytes((int(op),)) for op in Op}


def write_constraint(out: list[bytes], constraint: Constraint) -> None:
    """Append one constraint's wire chunks to ``out`` (no joining)."""
    wire.write_str(out, constraint.name)
    out.append(_OP_BYTES[constraint.op])
    if constraint.op != Op.EXISTS:
        wire.write_value(out, constraint.value)


encode_constraint = wire.encoder(write_constraint)


def decode_constraint(buf: bytes, offset: int = 0) -> tuple[Constraint, int]:
    name, pos = wire.decode_str(buf, offset)
    if pos >= len(buf):
        raise CodecError("truncated constraint: missing operator")
    try:
        op = Op(buf[pos])
    except ValueError:
        raise CodecError(f"unknown operator byte: {buf[pos]}") from None
    pos += 1
    if op == Op.EXISTS:
        return Constraint(name, op), pos
    value, pos = wire.decode_value(buf, pos)
    return Constraint(name, op, value), pos


def write_filter(out: list[bytes], filt: Filter) -> None:
    """Append one filter's wire chunks to ``out`` (no joining)."""
    wire.write_varint(out, len(filt))
    for constraint in filt:
        write_constraint(out, constraint)


encode_filter = wire.encoder(write_filter)


def decode_filter(buf: bytes, offset: int = 0) -> tuple[Filter, int]:
    count, pos = wire.decode_varint(buf, offset)
    constraints = []
    for _ in range(count):
        constraint, pos = decode_constraint(buf, pos)
        constraints.append(constraint)
    return Filter(constraints), pos


def write_subscription(out: list[bytes], subscription: Subscription) -> None:
    """Append one subscription's wire chunks to ``out`` (no joining)."""
    wire.write_varint(out, subscription.sub_id)
    out.append(subscription.subscriber.to_bytes48())
    wire.write_varint(out, len(subscription.filters))
    for filt in subscription.filters:
        write_filter(out, filt)


encode_subscription = wire.encoder(write_subscription)


def decode_subscription(buf: bytes, offset: int = 0) -> tuple[Subscription, int]:
    sub_id, pos = wire.decode_varint(buf, offset)
    if pos + 6 > len(buf):
        raise CodecError("truncated subscription: missing subscriber id")
    subscriber = ServiceId.from_bytes48(buf[pos:pos + 6])
    pos += 6
    count, pos = wire.decode_varint(buf, pos)
    if count == 0:
        raise CodecError("subscription with no filters on wire")
    filters = []
    for _ in range(count):
        filt, pos = decode_filter(buf, pos)
        filters.append(filt)
    return Subscription(sub_id, subscriber, filters), pos
