"""Matching engines: common contract, cross-engine equivalence, stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, MatchingError, SubscriptionNotFoundError
from repro.ids import service_id_from_name
from repro.matching.engine import BruteForceMatcher, make_engine
from repro.matching.filters import Constraint, Filter, Op, Subscription
from repro.matching.forwarding import ForwardingMatcher
from repro.matching.siena import SienaMatcher, SienaTranslationBackend
from tests.matching.strategies import attribute_maps, filters

SID = service_id_from_name("s")
ENGINE_NAMES = ["brute", "siena-bare", "siena", "forwarding"]


def sub(sub_id, *filter_list):
    return Subscription(sub_id, SID, list(filter_list))


@pytest.fixture(params=ENGINE_NAMES)
def engine(request):
    return make_engine(request.param)


class TestCommonContract:
    def test_empty_engine_matches_nothing(self, engine):
        assert engine.match({"type": "x"}) == []

    def test_single_subscription(self, engine):
        engine.subscribe(sub(1, Filter.where("health.hr", hr=(">", 100))))
        assert [s.sub_id for s in engine.match(
            {"type": "health.hr", "hr": 120})] == [1]
        assert engine.match({"type": "health.hr", "hr": 80}) == []

    def test_results_in_id_order(self, engine):
        for sub_id in (3, 1, 2):
            engine.subscribe(sub(sub_id, Filter.where("t")))
        assert [s.sub_id for s in engine.match({"type": "t"})] == [1, 2, 3]

    def test_duplicate_id_rejected(self, engine):
        engine.subscribe(sub(1, Filter.where("t")))
        with pytest.raises(MatchingError):
            engine.subscribe(sub(1, Filter.where("u")))

    def test_unsubscribe(self, engine):
        engine.subscribe(sub(1, Filter.where("t")))
        engine.subscribe(sub(2, Filter.where("t")))
        engine.unsubscribe(1)
        assert [s.sub_id for s in engine.match({"type": "t"})] == [2]
        assert len(engine) == 1

    def test_unsubscribe_unknown_raises(self, engine):
        with pytest.raises(SubscriptionNotFoundError):
            engine.unsubscribe(99)

    def test_resubscribe_same_id_after_unsubscribe(self, engine):
        engine.subscribe(sub(1, Filter.where("t")))
        engine.unsubscribe(1)
        engine.subscribe(sub(1, Filter.where("u")))
        assert [s.sub_id for s in engine.match({"type": "u"})] == [1]

    def test_disjunction_matches_once(self, engine):
        engine.subscribe(sub(1, Filter.where("a"), Filter.where("b"),
                             Filter([Constraint("x", Op.EXISTS)])))
        matched = engine.match({"type": "a", "x": 1})
        assert [s.sub_id for s in matched] == [1]     # not three times

    def test_empty_filter_subscription_matches_all(self, engine):
        engine.subscribe(sub(1, Filter()))
        assert [s.sub_id for s in engine.match({"anything": 1})] == [1]
        assert [s.sub_id for s in engine.match({})] == [1]

    def test_range_filter(self, engine):
        engine.subscribe(sub(1, Filter([Constraint("hr", Op.GT, 60),
                                        Constraint("hr", Op.LT, 100)])))
        assert engine.match({"hr": 80})
        assert not engine.match({"hr": 50})
        assert not engine.match({"hr": 120})

    def test_subscriptions_listing(self, engine):
        engine.subscribe(sub(2, Filter.where("b")))
        engine.subscribe(sub(1, Filter.where("a")))
        assert [s.sub_id for s in engine.subscriptions()] == [1, 2]

    def test_get(self, engine):
        engine.subscribe(sub(5, Filter.where("x")))
        assert engine.get(5).sub_id == 5
        assert engine.get(6) is None

    def test_match_counter(self, engine):
        engine.subscribe(sub(1, Filter.where("t")))
        engine.match({"type": "t"})
        engine.match({"type": "u"})
        assert engine.events_matched == 2


class TestEquivalence:
    """Every engine must agree with the brute-force oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(filters(), min_size=1, max_size=6), attribute_maps())
    def test_engines_agree_with_oracle(self, filter_list, attrs):
        oracle = BruteForceMatcher()
        others = [make_engine(name) for name in
                  ("siena-bare", "siena", "forwarding")]
        for index, filt in enumerate(filter_list):
            subscription = sub(index + 1, filt)
            oracle.subscribe(subscription)
            for engine in others:
                engine.subscribe(subscription)
        expected = [s.sub_id for s in oracle.match(attrs)]
        for engine in others:
            actual = [s.sub_id for s in engine.match(attrs)]
            assert actual == expected, engine.name

    @settings(max_examples=100, deadline=None)
    @given(st.lists(filters(), min_size=2, max_size=6),
           st.data())
    def test_engines_agree_after_unsubscribes(self, filter_list, data):
        engines = {name: make_engine(name) for name in
                   ("brute", "siena-bare", "forwarding")}
        for index, filt in enumerate(filter_list):
            subscription = sub(index + 1, filt)
            for engine in engines.values():
                engine.subscribe(subscription)
        # Remove a random subset.
        to_remove = data.draw(st.sets(
            st.integers(1, len(filter_list)),
            max_size=len(filter_list) - 1))
        for sub_id in sorted(to_remove):
            for engine in engines.values():
                engine.unsubscribe(sub_id)
        attrs = data.draw(attribute_maps())
        results = {name: [s.sub_id for s in engine.match(attrs)]
                   for name, engine in engines.items()}
        assert results["siena-bare"] == results["brute"]
        assert results["forwarding"] == results["brute"]


class TestMakeEngine:
    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_engine("rabbitmq")

    def test_names(self):
        assert make_engine("forwarding").name == "forwarding"
        assert make_engine("siena").name == "siena"
        assert make_engine("siena-bare").name == "siena-bare"
        assert make_engine("brute").name == "brute"

    def test_siena_is_translation_backend(self):
        engine = make_engine("siena")
        assert isinstance(engine, SienaTranslationBackend)
        assert isinstance(engine.inner, SienaMatcher)

    def test_forwarding_type(self):
        assert isinstance(make_engine("forwarding"), ForwardingMatcher)
