"""Content-based publish/subscribe matching engines.

The paper's bus places an "EventBus" interface around the matching
mechanism precisely so the mechanism can be swapped — it was prototyped on
Siena and then replaced with a dedicated lightweight matcher based on the
Siena fast-forwarding algorithm.  This package reproduces both generations
behind one :class:`~repro.matching.engine.MatchingEngine` interface:

* :class:`~repro.matching.siena.SienaMatcher` — a subscription-poset
  matcher with Siena's filter semantics and covering relations, plus
  :class:`~repro.matching.siena.SienaTranslationBackend` which reproduces
  the data-translation overhead of embedding a foreign pub/sub engine
  ("translation to or from our own data types", Section V);
* :class:`~repro.matching.forwarding.ForwardingMatcher` — the
  Carzaniga–Wolf counting algorithm the authors' C engine was based on,
  operating natively on our types with zero translation.
"""

from repro.matching.covering import (
    constraint_covers,
    constraints_contradict,
    filter_covers,
    filters_overlap,
)
from repro.matching.engine import MatchingEngine, make_engine
from repro.matching.filters import Constraint, Filter, Op, Subscription
from repro.matching.forwarding import ForwardingMatcher
from repro.matching.siena import SienaMatcher, SienaTranslationBackend

__all__ = [
    "Op",
    "Constraint",
    "Filter",
    "Subscription",
    "MatchingEngine",
    "make_engine",
    "SienaMatcher",
    "SienaTranslationBackend",
    "ForwardingMatcher",
    "constraint_covers",
    "constraints_contradict",
    "filter_covers",
    "filters_overlap",
]
