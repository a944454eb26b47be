"""Covering and overlap relations between filters.

*Covering* is Siena's central relation: filter ``f`` covers filter ``g``
when every event matching ``g`` also matches ``f``.  The Siena matcher uses
it to organise subscriptions into a partial order so whole subtrees can be
skipped during matching; quenching uses the companion *overlap* relation
to decide whether any subscriber could possibly be interested in what a
publisher advertises.

The implementations here are **sound but conservative**:

* :func:`constraint_covers` / :func:`filter_covers` never claim covering
  that does not hold, but may miss covering that requires reasoning across
  several constraints jointly (e.g. ``x >= 5 AND x <= 5`` covering
  ``x = 5``).
* :func:`constraints_contradict` / :func:`filters_overlap` never claim a
  contradiction that does not hold, so ``filters_overlap`` may answer True
  for a disjoint pair but never False for an overlapping one — the safe
  direction for quenching (a publisher is only silenced when provably
  nobody listens).

Property-based tests in ``tests/matching/test_covering_properties.py``
check both soundness directions against brute-force evaluation.
"""

from __future__ import annotations

from repro.matching.filters import Constraint, Filter, Op

_ORDER_OPS = frozenset({Op.LT, Op.LE, Op.GT, Op.GE})


def constraint_covers(general: Constraint, specific: Constraint) -> bool:
    """True when every value satisfying ``specific`` satisfies ``general``.

    Both constraints must name the same attribute; otherwise False.
    """
    if general.name != specific.name:
        return False
    if general.op == Op.EXISTS:
        return True
    if specific.op == Op.EXISTS:
        return False          # EXISTS admits values of any kind
    if general.kind != specific.kind:
        return False

    g_op, g_val = general.op, general.value
    s_op, s_val = specific.op, specific.value

    if g_op == Op.EQ:
        return s_op == Op.EQ and s_val == g_val
    if g_op == Op.NE:
        # NE v covers any same-kind constraint that v itself cannot satisfy.
        return not specific.matches(g_val)
    if g_op == Op.LT:
        if s_op == Op.EQ:
            return s_val < g_val
        if s_op == Op.LT:
            return s_val <= g_val
        if s_op == Op.LE:
            return s_val < g_val
        return False
    if g_op == Op.LE:
        if s_op == Op.EQ:
            return s_val <= g_val
        if s_op in (Op.LT, Op.LE):
            return s_val <= g_val
        return False
    if g_op == Op.GT:
        if s_op == Op.EQ:
            return s_val > g_val
        if s_op == Op.GT:
            return s_val >= g_val
        if s_op == Op.GE:
            return s_val > g_val
        return False
    if g_op == Op.GE:
        if s_op == Op.EQ:
            return s_val >= g_val
        if s_op in (Op.GT, Op.GE):
            return s_val >= g_val
        return False
    if g_op == Op.PREFIX:
        if s_op == Op.EQ:
            return s_val.startswith(g_val)
        if s_op == Op.PREFIX:
            return s_val.startswith(g_val)
        return False
    if g_op == Op.SUFFIX:
        if s_op == Op.EQ:
            return s_val.endswith(g_val)
        if s_op == Op.SUFFIX:
            return s_val.endswith(g_val)
        return False
    if g_op == Op.CONTAINS:
        if s_op in (Op.EQ, Op.PREFIX, Op.SUFFIX, Op.CONTAINS):
            return g_val in s_val
        return False
    return False


def filter_covers(general: Filter, specific: Filter) -> bool:
    """True when every event matching ``specific`` matches ``general``.

    Rule: each constraint of the general filter must be covered by at least
    one constraint of the specific filter.  (The empty filter covers
    everything.)
    """
    return all(
        any(constraint_covers(g, s) for s in specific.constraints)
        for g in general.constraints
    )


def constraints_contradict(a: Constraint, b: Constraint) -> bool:
    """True when no single value can satisfy both constraints.

    Sound: a True answer is a proof of disjointness.  Conservative: may
    answer False for exotic disjoint pairs.
    """
    if a.name != b.name:
        return False
    if a.op == Op.EXISTS or b.op == Op.EXISTS:
        return False
    if a.kind != b.kind:
        return True           # each op only accepts its own kind

    # Equality pins the value: contradiction iff the other side rejects it.
    if a.op == Op.EQ:
        return not b.matches(a.value)
    if b.op == Op.EQ:
        return not a.matches(b.value)

    # Disjoint numeric/string ranges.
    if a.op in _ORDER_OPS and b.op in _ORDER_OPS:
        return _ranges_disjoint(a, b) or _ranges_disjoint(b, a)

    # Incompatible string shapes.
    if a.op == Op.PREFIX and b.op == Op.PREFIX:
        return not (a.value.startswith(b.value) or b.value.startswith(a.value))
    if a.op == Op.SUFFIX and b.op == Op.SUFFIX:
        return not (a.value.endswith(b.value) or b.value.endswith(a.value))
    return False


def _ranges_disjoint(lower: Constraint, upper: Constraint) -> bool:
    """True when ``lower`` bounds from above and ``upper`` from below with
    an empty intersection (e.g. x < 3 vs x > 5)."""
    if lower.op in (Op.LT, Op.LE) and upper.op in (Op.GT, Op.GE):
        if lower.op == Op.LE and upper.op == Op.GE:
            return lower.value < upper.value
        return lower.value <= upper.value
    return False


def filters_overlap(a: Filter, b: Filter) -> bool:
    """Could some event match both filters?

    Returns False only when a pairwise contradiction proves disjointness;
    True otherwise (possibly a false positive — safe for quenching).
    """
    for ca in a.constraints:
        for cb in b.constraints:
            if constraints_contradict(ca, cb):
                return False
    return True
