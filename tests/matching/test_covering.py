"""Covering and overlap relations, including soundness properties.

The implementations are conservative; the properties assert exactly the
direction that must never be wrong:

* if ``filter_covers(f, g)`` then every attribute map matching ``g``
  matches ``f`` (covering claims are proofs);
* if ``filters_overlap(f, g)`` is False then no attribute map matches both
  (disjointness claims are proofs — the quench-safety direction).
"""

import pytest
from hypothesis import given, settings

from repro.matching.covering import (
    constraint_covers,
    constraints_contradict,
    filter_covers,
    filters_overlap,
)
from repro.matching.filters import Constraint, Filter, Op
from tests.matching.strategies import attribute_maps, filters


def c(name, op, value=None):
    return Constraint(name, op, value)


class TestConstraintCovers:
    @pytest.mark.parametrize("general,specific", [
        (c("x", Op.EXISTS), c("x", Op.EQ, 5)),
        (c("x", Op.EXISTS), c("x", Op.PREFIX, "a")),
        (c("x", Op.EQ, 5), c("x", Op.EQ, 5)),
        (c("x", Op.NE, 5), c("x", Op.EQ, 6)),
        (c("x", Op.NE, 5), c("x", Op.GT, 5)),
        (c("x", Op.LT, 10), c("x", Op.LT, 10)),
        (c("x", Op.LT, 10), c("x", Op.LT, 5)),
        (c("x", Op.LT, 10), c("x", Op.LE, 9)),
        (c("x", Op.LT, 10), c("x", Op.EQ, 9)),
        (c("x", Op.LE, 10), c("x", Op.EQ, 10)),
        (c("x", Op.GT, 10), c("x", Op.GE, 11)),
        (c("x", Op.GE, 10), c("x", Op.GT, 10)),
        (c("x", Op.PREFIX, "he"), c("x", Op.PREFIX, "hell")),
        (c("x", Op.PREFIX, "he"), c("x", Op.EQ, "hello")),
        (c("x", Op.SUFFIX, "lo"), c("x", Op.SUFFIX, "ello")),
        (c("x", Op.CONTAINS, "ell"), c("x", Op.EQ, "hello")),
        (c("x", Op.CONTAINS, "l"), c("x", Op.PREFIX, "hello")),
    ])
    def test_covering_pairs(self, general, specific):
        assert constraint_covers(general, specific)

    @pytest.mark.parametrize("general,specific", [
        (c("x", Op.EQ, 5), c("x", Op.EQ, 6)),
        (c("x", Op.EQ, 5), c("x", Op.EXISTS)),
        (c("x", Op.EQ, 5), c("x", Op.LE, 5)),
        (c("x", Op.LT, 10), c("x", Op.LT, 11)),
        (c("x", Op.LT, 10), c("x", Op.LE, 10)),
        (c("x", Op.GT, 10), c("x", Op.GE, 10)),
        (c("x", Op.NE, 5), c("x", Op.GE, 5)),
        (c("x", Op.PREFIX, "hell"), c("x", Op.PREFIX, "he")),
        (c("y", Op.EXISTS), c("x", Op.EQ, 5)),          # different attr
        (c("x", Op.EQ, 5), c("x", Op.EQ, "5")),          # different kind
        (c("x", Op.NE, 5), c("x", Op.EQ, "word")),       # kind differs
    ])
    def test_non_covering_pairs(self, general, specific):
        assert not constraint_covers(general, specific)


class TestFilterCovers:
    def test_empty_filter_covers_all(self):
        assert filter_covers(Filter(), Filter.where("t", x=1))

    def test_nothing_covers_empty_except_empty(self):
        assert not filter_covers(Filter.where("t"), Filter())
        assert filter_covers(Filter(), Filter())

    def test_fewer_constraints_cover_more(self):
        broad = Filter([c("hr", Op.GT, 100)])
        narrow = Filter([c("hr", Op.GT, 100), c("patient", Op.EQ, "p")])
        assert filter_covers(broad, narrow)
        assert not filter_covers(narrow, broad)

    @settings(max_examples=300)
    @given(filters(), filters(), attribute_maps())
    def test_covering_is_sound(self, general, specific, attrs):
        if filter_covers(general, specific) and specific.matches(attrs):
            assert general.matches(attrs)

    @settings(max_examples=200)
    @given(filters())
    def test_covering_is_reflexive(self, filt):
        assert filter_covers(filt, filt)

    @settings(max_examples=200)
    @given(filters(), filters(), filters())
    def test_covering_is_transitive(self, a, b, d):
        if filter_covers(a, b) and filter_covers(b, d):
            assert filter_covers(a, d)


class TestContradiction:
    @pytest.mark.parametrize("one,other", [
        (c("x", Op.EQ, 5), c("x", Op.EQ, 6)),
        (c("x", Op.EQ, 5), c("x", Op.GT, 7)),
        (c("x", Op.LT, 3), c("x", Op.GT, 5)),
        (c("x", Op.LE, 3), c("x", Op.GE, 5)),
        (c("x", Op.LT, 5), c("x", Op.GE, 5)),
        (c("x", Op.PREFIX, "abc"), c("x", Op.PREFIX, "xyz")),
        (c("x", Op.SUFFIX, "abc"), c("x", Op.SUFFIX, "xyz")),
        (c("x", Op.EQ, 5), c("x", Op.EQ, "five")),     # kind mismatch
        (c("x", Op.GT, 5), c("x", Op.PREFIX, "a")),    # kind mismatch
    ])
    def test_contradictory_pairs(self, one, other):
        assert constraints_contradict(one, other)
        assert constraints_contradict(other, one)

    @pytest.mark.parametrize("one,other", [
        (c("x", Op.EQ, 5), c("x", Op.EQ, 5)),
        (c("x", Op.LT, 5), c("x", Op.GT, 3)),
        (c("x", Op.LE, 5), c("x", Op.GE, 5)),
        (c("x", Op.EXISTS), c("x", Op.EQ, 5)),
        (c("x", Op.EQ, 5), c("y", Op.EQ, 6)),          # different attrs
        (c("x", Op.PREFIX, "ab"), c("x", Op.PREFIX, "abc")),
    ])
    def test_compatible_pairs(self, one, other):
        assert not constraints_contradict(one, other)


class TestOverlap:
    def test_disjoint_types_do_not_overlap(self):
        assert not filters_overlap(Filter.where("health.hr"),
                                   Filter.where("smc.member.new"))

    def test_overlapping_ranges_overlap(self):
        a = Filter([c("hr", Op.GT, 100)])
        b = Filter([c("hr", Op.LT, 200)])
        assert filters_overlap(a, b)

    def test_empty_filter_overlaps_everything(self):
        assert filters_overlap(Filter(), Filter.where("t", x=1))

    @settings(max_examples=300)
    @given(filters(), filters(), attribute_maps())
    def test_overlap_is_sound_for_quenching(self, one, other, attrs):
        # If the relation says "disjoint", no event may match both.
        if not filters_overlap(one, other):
            assert not (one.matches(attrs) and other.matches(attrs))

    @settings(max_examples=200)
    @given(filters(), filters())
    def test_overlap_is_symmetric(self, one, other):
        assert filters_overlap(one, other) == filters_overlap(other, one)
