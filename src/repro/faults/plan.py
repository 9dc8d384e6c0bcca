"""Deterministic fault plans: what breaks, when, and how badly.

A :class:`FaultPlan` is a timestamp-ordered list of :class:`FaultEvent`
records describing everything that will go wrong during a run — replica
crashes and recoveries, I/O and CPU slowdown ramps on hosts, statistics-log
gaps and metric corruption on engines, and write-propagation stalls on
schedulers.  Plans are plain data: building one performs no side effects,
so the same plan can drive any number of runs and two runs under the same
plan are bit-for-bit identical (the determinism property suite pins this).

Seeded plans come from :meth:`FaultPlan.random`, which draws every event
from a :class:`~repro.sim.rng.RandomStream` derived from one seed — the
fault subsystem obeys the same reproducibility discipline as the workload
generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..sim.rng import RandomStream

__all__ = ["FaultKind", "FaultEvent", "FaultPlan"]


class FaultKind(str, Enum):
    """Everything the injector knows how to break."""

    REPLICA_CRASH = "replica_crash"
    REPLICA_RECOVER = "replica_recover"
    IO_SLOWDOWN = "io_slowdown"
    CPU_SLOWDOWN = "cpu_slowdown"
    STATS_GAP = "stats_gap"
    METRIC_CORRUPTION = "metric_corruption"
    WRITE_STALL = "write_stall"
    CONTROLLER_CRASH = "controller_crash"
    CONTROLLER_RESTART = "controller_restart"
    CHECKPOINT_CORRUPTION = "checkpoint_corruption"


_TARGETED_AT_REPLICAS = (FaultKind.REPLICA_CRASH, FaultKind.REPLICA_RECOVER)
_TARGETED_AT_HOSTS = (FaultKind.IO_SLOWDOWN, FaultKind.CPU_SLOWDOWN)
_TARGETED_AT_ENGINES = (FaultKind.STATS_GAP, FaultKind.METRIC_CORRUPTION)
_TARGETED_AT_APPS = (FaultKind.WRITE_STALL,)
_TARGETED_AT_CONTROLLER = (
    FaultKind.CONTROLLER_CRASH,
    FaultKind.CONTROLLER_RESTART,
    FaultKind.CHECKPOINT_CORRUPTION,
)
# Recovery-style events and the crash kind each must be paired with: a
# recovery without a preceding unmatched crash of the same target is a
# plan bug, rejected at build time.
_RECOVERY_PAIRS = {
    FaultKind.REPLICA_RECOVER: FaultKind.REPLICA_CRASH,
    FaultKind.CONTROLLER_RESTART: FaultKind.CONTROLLER_CRASH,
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` names a replica (crash/recover), a host (slowdowns), an
    engine (stats faults) or an application (write stalls).  Slowdowns
    carry a peak ``factor`` reached over ``ramp_steps`` equal increments
    spread across ``duration`` simulated seconds, after which the host
    returns to nominal speed; ``ramp_steps=1`` is a step function.
    """

    at: float
    kind: FaultKind
    target: str
    duration: float = 0.0
    factor: float = 1.0
    ramp_steps: int = 1

    def __post_init__(self) -> None:
        # Written ``not x >= bound`` (or ``>``) so that NaN fails each check.
        if not self.at >= 0:
            raise ValueError(f"fault time must be non-negative: {self.at}")
        if not self.target:
            raise ValueError("fault target must be a non-empty name")
        if self.kind in _TARGETED_AT_HOSTS:
            if not self.factor > 1.0:
                raise ValueError(
                    f"slowdown factor must exceed 1.0: {self.factor}"
                )
            if not self.duration > 0:
                raise ValueError(
                    f"slowdown duration must be positive: {self.duration}"
                )
            if self.ramp_steps < 1:
                raise ValueError(
                    f"ramp steps must be at least 1: {self.ramp_steps}"
                )
        if self.kind in _TARGETED_AT_APPS and not self.duration > 0:
            raise ValueError(
                f"write stall duration must be positive: {self.duration}"
            )


@dataclass
class FaultPlan:
    """A timestamp-ordered collection of fault events (pure data)."""

    events: list[FaultEvent] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Builders (each returns self, so plans chain fluently)              #
    # ------------------------------------------------------------------ #

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        if event.kind in _RECOVERY_PAIRS:
            # Build-time validation: a recovery must follow its crash.
            # Checking on every recovery-event append (rather than only at
            # replay time) surfaces the mistake at the line that made it.
            try:
                self._check_pairing(_RECOVERY_PAIRS[event.kind], event.kind,
                                    event.target)
            except ValueError:
                self.events.pop()  # a rejected append must not pollute the plan
                raise
        return self

    def crash(self, at: float, replica: str) -> "FaultPlan":
        return self.add(FaultEvent(at, FaultKind.REPLICA_CRASH, replica))

    def recover(self, at: float, replica: str) -> "FaultPlan":
        return self.add(FaultEvent(at, FaultKind.REPLICA_RECOVER, replica))

    def controller_crash(
        self, at: float, duration: float = 0.0, target: str = "controller"
    ) -> "FaultPlan":
        """Crash the control plane; ``duration`` (when positive) overrides
        the supervisor's watchdog delay for this outage."""
        return self.add(FaultEvent(
            at, FaultKind.CONTROLLER_CRASH, target, duration=duration
        ))

    def controller_restart(
        self, at: float, target: str = "controller"
    ) -> "FaultPlan":
        """Explicitly restart a crashed controller (ahead of the watchdog)."""
        return self.add(FaultEvent(at, FaultKind.CONTROLLER_RESTART, target))

    def checkpoint_corruption(
        self, at: float, target: str = "controller"
    ) -> "FaultPlan":
        """Corrupt the newest control-plane checkpoint in place."""
        return self.add(FaultEvent(
            at, FaultKind.CHECKPOINT_CORRUPTION, target
        ))

    def io_slowdown(
        self, at: float, host: str, factor: float, duration: float,
        ramp_steps: int = 1,
    ) -> "FaultPlan":
        return self.add(FaultEvent(
            at, FaultKind.IO_SLOWDOWN, host,
            duration=duration, factor=factor, ramp_steps=ramp_steps,
        ))

    def cpu_slowdown(
        self, at: float, host: str, factor: float, duration: float,
        ramp_steps: int = 1,
    ) -> "FaultPlan":
        return self.add(FaultEvent(
            at, FaultKind.CPU_SLOWDOWN, host,
            duration=duration, factor=factor, ramp_steps=ramp_steps,
        ))

    def stats_gap(self, at: float, engine: str) -> "FaultPlan":
        return self.add(FaultEvent(at, FaultKind.STATS_GAP, engine))

    def metric_corruption(self, at: float, engine: str) -> "FaultPlan":
        return self.add(FaultEvent(at, FaultKind.METRIC_CORRUPTION, engine))

    def write_stall(self, at: float, app: str, duration: float) -> "FaultPlan":
        return self.add(FaultEvent(
            at, FaultKind.WRITE_STALL, app, duration=duration
        ))

    # ------------------------------------------------------------------ #
    # Validation                                                         #
    # ------------------------------------------------------------------ #

    def _check_pairing(
        self, crash_kind: FaultKind, recover_kind: FaultKind, target: str
    ) -> None:
        """Every recovery of ``target`` must follow an unmatched crash.

        Walks the target's crash/recovery events in replay order (time,
        then insertion for ties) keeping the outstanding-crash depth; a
        recovery that would drive the depth negative precedes its paired
        crash — replay would try to revive something that never died.
        """
        family = [
            event for event in self.events
            if event.target == target
            and event.kind in (crash_kind, recover_kind)
        ]
        depth = 0
        for event in sorted(family, key=lambda e: e.at):
            depth += 1 if event.kind is crash_kind else -1
            if depth < 0:
                raise ValueError(
                    f"{event.kind.value} of {target!r} at t={event.at} "
                    f"precedes its paired {crash_kind.value}: nothing is "
                    "down at that point"
                )

    def validate(self) -> "FaultPlan":
        """Re-check the whole plan's crash/recovery pairing; returns self.

        The fluent builders validate on every append, but plans can also be
        assembled from raw event lists (``FaultPlan(events=[...])``); the
        injector calls this before scheduling as the backstop.  Negative timestamps are impossible by construction —
        :class:`FaultEvent` rejects them.
        """
        for recover_kind, crash_kind in _RECOVERY_PAIRS.items():
            targets = {
                event.target for event in self.events
                if event.kind in (crash_kind, recover_kind)
            }
            for target in sorted(targets):
                self._check_pairing(crash_kind, recover_kind, target)
        return self

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    def ordered(self) -> list[FaultEvent]:
        """Events sorted by time; equal timestamps keep insertion order."""
        return sorted(
            self.events, key=lambda e: e.at
        )  # Python's sort is stable, so ties preserve insertion order.

    # ------------------------------------------------------------------ #
    # Seeded generation                                                  #
    # ------------------------------------------------------------------ #

    @classmethod
    def random(
        cls,
        seed: int,
        replicas: list[str],
        hosts: list[str] | None = None,
        engines: list[str] | None = None,
        apps: list[str] | None = None,
        horizon: float = 300.0,
        events: int = 6,
        min_outage: float = 10.0,
        max_outage: float = 60.0,
        controller: bool = False,
    ) -> "FaultPlan":
        """A seeded plan: same seed and targets, same plan — always.

        Crash events always schedule a matching recovery ``min_outage`` to
        ``max_outage`` seconds later (clipped to the horizon), so random
        plans never strand a replica offline forever; the other kinds draw
        uniformly over their target lists.  With ``controller=True`` the
        draw pool also includes control-plane crashes (each paired with an
        explicit restart, same outage bounds) — the run must then have
        recovery enabled or the events fall through as unmatched.  Every
        draw comes from a single named :class:`RandomStream`, so plan
        generation is insulated from any other stream the simulation
        consumes.
        """
        if not replicas:
            raise ValueError("a random plan needs at least one replica name")
        if events < 0:
            raise ValueError(f"event count must be non-negative: {events}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive: {horizon}")
        stream = RandomStream(seed, "fault-plan")
        plan = cls()
        kinds = [FaultKind.REPLICA_CRASH]
        if hosts:
            kinds += [FaultKind.IO_SLOWDOWN, FaultKind.CPU_SLOWDOWN]
        if engines:
            kinds += [FaultKind.STATS_GAP, FaultKind.METRIC_CORRUPTION]
        if apps:
            kinds += [FaultKind.WRITE_STALL]
        if controller:
            kinds += [FaultKind.CONTROLLER_CRASH]
        for _ in range(events):
            kind = stream.choice(kinds)
            at = stream.uniform(0.0, horizon)
            if kind is FaultKind.REPLICA_CRASH:
                replica = stream.choice(replicas)
                back = min(
                    at + stream.uniform(min_outage, max_outage), horizon
                )
                plan.crash(at, replica)
                plan.recover(back, replica)
            elif kind is FaultKind.CONTROLLER_CRASH:
                back = min(
                    at + stream.uniform(min_outage, max_outage), horizon
                )
                plan.controller_crash(at)
                plan.controller_restart(back)
            elif kind in _TARGETED_AT_HOSTS:
                host = stream.choice(hosts)
                factor = 1.0 + stream.uniform(0.25, 3.0)
                duration = stream.uniform(min_outage, max_outage)
                steps = stream.integers(1, 4)
                if kind is FaultKind.IO_SLOWDOWN:
                    plan.io_slowdown(at, host, factor, duration, steps)
                else:
                    plan.cpu_slowdown(at, host, factor, duration, steps)
            elif kind is FaultKind.STATS_GAP:
                plan.stats_gap(at, stream.choice(engines))
            elif kind is FaultKind.METRIC_CORRUPTION:
                plan.metric_corruption(at, stream.choice(engines))
            else:
                plan.write_stall(
                    at, stream.choice(apps),
                    stream.uniform(min_outage, max_outage),
                )
        return plan
