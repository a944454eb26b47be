"""The one member state machine, checked two ways.

* Exhaustively over the transition table (``lifecycle._ALLOWED``): the
  shape every other suite leans on.
* Against a reference model: Hypothesis generates what one member can do
  to a cell — announce, heartbeat, fall silent for a while, LEAVE_INTENT,
  LEAVE — interleaved with sweeps and queued deliveries, and after every
  step the real :class:`DiscoveryService` must be where the ~20-line
  model below says, having published exactly one ``smc.member.state``
  event per transition (carrying ``previous``), every transition legal,
  and a purge exactly when the model purges, for the model's reason.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bus import EventBus
from repro.core.events import MEMBER_STATE_TYPE, PURGE_MEMBER_TYPE
from repro.discovery import lifecycle
from repro.discovery.lifecycle import LifecycleState as S
from repro.discovery.messages import AnnounceBody, LeaveBody, LeaveIntentBody
from repro.discovery.service import DiscoveryConfig, DiscoveryService
from repro.errors import DiscoveryError
from repro.ids import service_id_from_name
from repro.matching.filters import Filter
from repro.sim.kernel import Simulator
from repro.transport.endpoint import PacketEndpoint
from repro.transport.inmem import InMemoryHub
from repro.transport.packets import Packet, PacketType


# -- (a) the table, exhaustively ----------------------------------------------

def reachable(start):
    seen, frontier = set(), [start]
    while frontier:
        for target in lifecycle._ALLOWED[frontier.pop()]:
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


class TestTransitionTable:
    def test_table_covers_every_state_and_nothing_else(self):
        assert set(lifecycle._ALLOWED) == set(S)
        assert all(targets <= set(S)
                   for targets in lifecycle._ALLOWED.values())
        assert all(state not in targets          # no self-loops
                   for state, targets in lifecycle._ALLOWED.items())

    def test_gone_is_terminal_and_draining_only_ends(self):
        assert lifecycle._ALLOWED[S.GONE] == frozenset()
        assert lifecycle._ALLOWED[S.DRAINING] == {S.GONE}

    def test_every_state_reaches_gone(self):
        for state in set(S) - {S.GONE}:
            assert S.GONE in reachable(state), state

    def test_healthy_is_reachable_from_joining_and_degraded_only(self):
        assert {state for state in S if S.HEALTHY in reachable(state)} == \
            {S.JOINING, S.HEALTHY, S.DEGRADED}
        assert S.JOINING not in set().union(*lifecycle._ALLOWED.values())

    def test_advance_enforces_exactly_the_table(self):
        for current, target in itertools.product(S, S):
            allowed = target in lifecycle._ALLOWED[current]
            assert lifecycle.can_advance(current, target) is allowed
            if allowed:
                assert lifecycle.advance(current, target) is target
            else:
                with pytest.raises(DiscoveryError):
                    lifecycle.advance(current, target)


# -- (b) the service against a reference model --------------------------------

SILENT_AFTER, PURGE_AFTER, DRAIN_DEADLINE = 1.5, 4.0, 2.0
MEMBER = service_id_from_name("dev")


class Model:
    """What one member's state must be, and which moves a step makes."""

    def __init__(self):
        self.state = None               # None: not in the table
        self.last_heard = self.drain_started = 0.0
        self.backlog = False            # queued deliveries never drain here

    def move(self, target, reason=None):
        moves = [(self.state.value, target.value, reason)]
        self.state = None if target is S.GONE else target
        return moves

    def step(self, action, now):
        state = self.state
        if action == "queue":
            self.backlog = True
        elif state is None:
            if action == "announce":
                self.state, self.last_heard = S.JOINING, now
        elif action in ("announce", "heartbeat"):
            self.last_heard = now
            if state in (S.JOINING, S.DEGRADED):
                return self.move(S.HEALTHY)
        elif action == "leave":
            return self.move(S.GONE, "leave")
        elif action == "leave_intent" and state is not S.DRAINING:
            self.drain_started = now
            return self.move(S.DRAINING, "drain")
        elif action == "sweep" and state is S.DRAINING:
            if not self.backlog:
                return self.move(S.GONE, "drain")
            if now - self.drain_started > DRAIN_DEADLINE:
                return self.move(S.GONE, "drain-deadline")
        elif action == "sweep" and now - self.last_heard > PURGE_AFTER:
            return self.move(S.GONE, "timeout")
        elif (action == "sweep" and now - self.last_heard > SILENT_AFTER
                and state is not S.DEGRADED):
            return self.move(S.DEGRADED)
        return []


class Rig:
    """A started DiscoveryService whose timers never fire: the test is
    the only source of packets, of time and of sweeps."""

    BODIES = {
        "announce": (PacketType.ANNOUNCE,
                     AnnounceBody("dev", "service").encode()),
        "heartbeat": (PacketType.HEARTBEAT, b""),
        "leave_intent": (PacketType.LEAVE_INTENT,
                         LeaveIntentBody("drain").encode()),
        "leave": (PacketType.LEAVE, LeaveBody("leave").encode()),
    }

    def __init__(self):
        self.sim = Simulator()
        hub = InMemoryHub(self.sim)
        hub.create("dev").set_receiver(lambda src, data: None)
        hub.drop_filter = lambda src, dest, data: False     # nothing acks
        self.endpoint = PacketEndpoint(hub.create("core"), self.sim)
        bus = EventBus(self.sim)
        self.service = DiscoveryService(bus, self.endpoint, self.sim,
                                        DiscoveryConfig(
            cell_name="model", beacon_period_s=1e9, sweep_period_s=1e9,
            heartbeat_period_s=0.5, silent_after_s=SILENT_AFTER,
            purge_after_s=PURGE_AFTER, drain_deadline_s=DRAIN_DEADLINE))
        self.moves, self.purges = [], []
        bus.subscribe_local(
            Filter.where(MEMBER_STATE_TYPE),
            lambda e: self.moves.append((e.get("previous"), e.get("state"),
                                         e.get("reason"))))
        bus.subscribe_local(Filter.where(PURGE_MEMBER_TYPE),
                            lambda e: self.purges.append(e.get("reason")))
        self.service.start()

    def step(self, action):
        if action == "sweep":
            self.service._sweep()
        elif action == "queue":
            self.endpoint.send_reliable("dev", b"queued")
        elif isinstance(action, float):
            self.sim.run(self.sim.now() + action)
            return
        else:
            packet_type, body = self.BODIES[action]
            self.service._on_control(
                Packet(type=packet_type, sender=MEMBER, payload=body), "dev")
        self.sim.run(self.sim.now())        # deliver the step's events


actions = st.one_of(
    st.sampled_from(["announce", "heartbeat", "sweep", "sweep",
                     "leave_intent", "leave", "queue"]),
    st.floats(min_value=0.0, max_value=3.0))


def run_in_lockstep(script):
    """Drive service and model through ``script``, checking after every
    step; returns the set of ``(previous, state)`` transitions made."""
    rig, model = Rig(), Model()
    seen = set()
    for action in script:
        rig.moves.clear()
        rig.purges.clear()
        rig.step(action)
        # Time alone moves nothing: only a sweep acts on silence.
        expected = ([] if isinstance(action, float)
                    else model.step(action, rig.sim.now()))
        record = rig.service.table.get(MEMBER)
        if model.state is None:
            assert record is None, (action, record)
        else:
            assert record.lifecycle is model.state, action
        # One state event per transition, carrying ``previous``; a purge
        # exactly when the model purges, for its reason.
        assert rig.moves == expected, action
        assert rig.purges == [reason for _prev, state, reason in expected
                              if state == "gone"], action
        for previous, state, _reason in rig.moves:
            assert S(state) in lifecycle._ALLOWED[S(previous)]
            seen.add((S(previous), S(state)))
    return seen


class TestAgainstTheModel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(actions, max_size=40))
    def test_service_follows_the_model(self, script):
        run_in_lockstep(script)

    def test_a_fixed_script_makes_every_transition_in_the_table(self):
        """So the property above is known to reach all eleven edges —
        among them HEALTHY -> GONE by a late sweep, with no DEGRADED in
        between, and the drain deadline."""
        seen = run_in_lockstep([
            "announce", "heartbeat", 2.0, "sweep", "heartbeat",   # J-H-D-H
            2.0, "sweep", 3.0, "sweep",                     # H-D, D-G timeout
            "announce", "leave_intent", "sweep",            # J-DR, DR-G
            "announce", "heartbeat", "queue", "leave_intent",     # H-DR
            "sweep", 2.5, "sweep",                          # ... deadline
            "announce", "heartbeat", 2.0, "sweep", "leave_intent",  # D-DR
            "leave",
            "announce", "leave",                            # J-G
            "announce", "heartbeat", "leave",               # H-G
            "announce", 2.0, "sweep", 3.0, "sweep",         # J-D, D-G
            "announce", "heartbeat", 5.0, "sweep",          # H-G, late sweep
        ])
        assert seen == {(state, target)
                        for state, targets in lifecycle._ALLOWED.items()
                        for target in targets}
