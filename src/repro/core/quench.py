"""Elvin-style quenching (paper Section VI).

"It is possible that we would see power-saving benefits from quenching
techniques such as those demonstrated in the Elvin publish/subscribe
system."  Quenching tells a publisher to stop generating events nobody is
subscribed to — on a battery-powered body sensor, every suppressed radio
transmission is battery life.

Publishers declare what they emit with an *advertisement* filter.  The
controller compares each advertisement against the live subscription set
using the conservative overlap relation from
:mod:`repro.matching.covering`: a publisher is quenched only when *no*
subscription could possibly match anything it advertises (false "overlap"
positives keep publishers running — safe), and is woken the moment an
overlapping subscription appears.

The member's proxy owns its quench bit and sends the advisories
(:meth:`~repro.core.proxy.Proxy.set_quench`); this controller states and
withdraws one reason, ``"unsubscribed"``, and counts what that caused.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ids import ServiceId
from repro.matching.covering import filters_overlap
from repro.matching.filters import Filter

from repro.core.bus import EventBus


@dataclass
class QuenchStats:
    advertisements: int = 0
    quench_messages_sent: int = 0
    wake_messages_sent: int = 0
    currently_quenched: int = 0


class QuenchController:
    """Tracks advertisements and pushes quench/wake advisories to members."""

    def __init__(self, bus: EventBus) -> None:
        self.bus = bus
        self.stats = QuenchStats()
        self._advertisements: dict[ServiceId, Filter] = {}
        bus.attach_quench(self)

    # -- advertisement lifecycle ------------------------------------------

    def register_advertisement(self, member: ServiceId, filt: Filter) -> None:
        """Record (or replace) what ``member`` publishes; re-evaluate it."""
        self._advertisements[member] = filt
        self.stats.advertisements += 1
        self._evaluate(member)

    def withdraw_advertisement(self, member: ServiceId) -> None:
        """Remove ``member``'s advertisement, waking it if it was quenched.

        Without an advertisement on record the controller can no longer
        justify muting the publisher, and nothing else will: a withdrawn
        member is skipped by every subsequent re-evaluation, so a member
        that re-advertises (a proxy re-registering, a device switching
        streams) would otherwise stay muted forever while
        ``currently_quenched`` reported nobody quenched.  A member that is
        already purged has no proxy to send through — it starts its next
        membership session unquenched anyway.
        """
        self._advertisements.pop(member, None)
        if (self.bus.is_member(member) and self.bus.proxy_of(member)
                .set_quench("unsubscribed", False)):
            self.stats.wake_messages_sent += 1
        self._recount()

    # -- subscription-change hook (called by the bus) ----------------------

    def on_subscriptions_changed(self) -> None:
        for member in list(self._advertisements):
            self._evaluate(member)

    def is_quenched(self, member: ServiceId) -> bool:
        """Whether this controller holds ``member`` quenched."""
        return (self.bus.is_member(member)
                and "unsubscribed" in self.bus.proxy_of(member).quench_reasons)

    # -- internals ---------------------------------------------------------

    def _evaluate(self, member: ServiceId) -> None:
        if not self.bus.is_member(member):
            self.withdraw_advertisement(member)
            return
        proxy = self.bus.proxy_of(member)
        should_quench = not self._anyone_interested(
            self._advertisements[member])
        if ("unsubscribed" in proxy.quench_reasons) == should_quench:
            return
        if proxy.set_quench("unsubscribed", should_quench):
            if should_quench:
                self.stats.quench_messages_sent += 1
            else:
                self.stats.wake_messages_sent += 1
        self._recount()

    def _anyone_interested(self, advertisement: Filter) -> bool:
        # Straight off the table: an ``any`` needs no id order, and this
        # runs once per advertisement on every subscription change.
        return any(filters_overlap(advertisement, filt)
                   for subscription in self.bus.all_subscriptions()
                   for filt in subscription.filters)

    def _recount(self) -> None:
        self.stats.currently_quenched = sum(
            map(self.is_quenched, self._advertisements))
