"""Read routing over the kept replica list against per-read re-derivation.

A Hypothesis state machine drives a stock ``Scheduler`` and the oracle of
``tests/oracles/routing.py`` (sorted replica dict, ``placement_of`` +
``is_current`` + ``is_up`` per replica per read) through the same replica-set
changes, placements, health beliefs, lagging writes and catch-ups.  After
every step both must name the same replicas, and every read must go to the
same target, leave the same round-robin cursors and count the same
fail-overs.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from oracles.routing import PerReadRouting
from repro.cluster.replica import Replica
from repro.cluster.scheduler import Scheduler
from repro.cluster.server import PhysicalServer
from repro.engine.access import AccessPattern, ExecutionAccess
from repro.engine.query import QueryClass
from repro.obs import Observability

NAMES = ["r3", "r0", "r5", "r1", "r4", "r2"]  # attach order is not name order
KEYS = ["app/q1", "app/q2", "app/q3"]


class _OnePage(AccessPattern):
    def pages_for_execution(self):
        return ExecutionAccess(demand=[1])


def make_class(name, write=False):
    return QueryClass(name, "app", 1, f"sql {name}", _OnePage(), is_write=write)


READS = {key: make_class(key.split("/")[1]) for key in KEYS}
WRITE = make_class("w", write=True)


class RoutingMachine(RuleBasedStateMachine):
    @initialize(
        policy=st.sampled_from(Scheduler.READ_POLICIES),
        async_mode=st.booleans(),
        first=st.sampled_from(NAMES),
    )
    def build(self, policy, async_mode, first):
        self.now = 0.0
        self.pair = []
        for kind in (Scheduler, PerReadRouting):
            scheduler = kind(
                "app",
                async_replication=async_mode,
                propagation_delay=0.5,
                read_policy=policy,
            )
            scheduler.obs = Observability()
            self.pair.append(scheduler)
        self._both(lambda s: s.add_replica(self._replica(first)))

    # -- helpers -------------------------------------------------------- #

    @property
    def attached(self):
        return self.pair[0].replica_names()

    @staticmethod
    def _replica(name):
        return Replica.create(name, "app", PhysicalServer(f"s-{name}"), pool_pages=16)

    def _both(self, operation):
        """Run ``operation`` on both schedulers; same result or same error."""
        outcomes = []
        for scheduler in self.pair:
            try:
                outcomes.append(("ok", operation(scheduler)))
            except (KeyError, ValueError, RuntimeError) as error:
                outcomes.append((type(error).__name__, str(error)))
        assert outcomes[0] == outcomes[1]
        return outcomes[0][1]

    # -- replica set ---------------------------------------------------- #

    @precondition(lambda self: len(self.attached) < len(NAMES))
    @rule(data=st.data(), synced=st.booleans())
    def add_replica(self, data, synced):
        name = data.draw(st.sampled_from([n for n in NAMES if n not in self.attached]))
        self._both(lambda s: s.add_replica(self._replica(name), synced=synced))

    @precondition(lambda self: len(self.attached) > 1)
    @rule(data=st.data())
    def remove_replica(self, data):
        name = data.draw(st.sampled_from(self.attached))
        self._both(lambda s: s.remove_replica(name).name)

    @rule(data=st.data(), key=st.sampled_from(KEYS))
    def place_class(self, data, key):
        targets = data.draw(
            st.lists(st.sampled_from(self.attached), min_size=1, unique=True)
        )
        self._both(lambda s: s.place_class(key, targets))

    @rule()
    def the_returned_name_list_is_a_copy(self):
        for scheduler in self.pair:
            names = scheduler.replica_names()
            names.append("intruder")
            names.reverse()
            del names[1:]

    # -- health and replication ----------------------------------------- #

    @rule(data=st.data())
    def mark_down(self, data):
        name = data.draw(st.sampled_from(self.attached))
        self._both(lambda s: s.mark_down(name, self.now, reason="test"))

    @rule(data=st.data())
    def mark_up(self, data):
        name = data.draw(st.sampled_from(self.attached))
        self._both(lambda s: s.mark_up(name, self.now, reason="test"))

    @rule()
    def write(self):
        # Asynchronous mode leaves every replica but the primary lagging
        # until the propagation delay has passed.
        self._both(lambda s: s.submit(WRITE, self.now).latency)

    @rule(gap=st.sampled_from([0.0, 0.1, 0.6, 2.0]))
    def let_time_pass(self, gap):
        self.now += gap
        self._both(lambda s: s.drain_pending(self.now))

    @rule(data=st.data())
    def catch_up(self, data):
        name = data.draw(st.sampled_from(self.attached))
        self._both(lambda s: s.catch_up(name, self.now))

    # -- reads ---------------------------------------------------------- #

    @rule(key=st.sampled_from(KEYS))
    def route(self, key):
        self._both(lambda s: s._route_read(key))

    @rule(key=st.sampled_from(KEYS))
    def read(self, key):
        self._both(lambda s: s.submit(READS[key], self.now).latency)

    # -- what must agree after every step ------------------------------- #

    @invariant()
    def same_names_cursors_and_failovers(self):
        if not hasattr(self, "pair"):
            return
        served, oracle = self.pair
        assert served.replica_names() == oracle.replica_names() == sorted(served.replicas)
        assert served._round_robin == oracle._round_robin
        assert served.pinned_contexts() == oracle.pinned_contexts()
        for key in KEYS:
            assert served.placement_of(key) == oracle.placement_of(key)
            assert served.obs.registry.value(
                "scheduler.failovers", app="app", context=key
            ) == oracle.obs.registry.value(
                "scheduler.failovers", app="app", context=key
            )


TestRouting = RoutingMachine.TestCase
TestRouting.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
