"""Deterministic fault injection for the sweep-serving layer.

eQASM's runtime guards (timing violations, the ``FMR`` deadlock, the
shot time budget) are reached by real programs and tested on them;
the machine carries no injection hook.  What a real program cannot
produce is a dying *process*, so a :class:`FaultPlan` arms named
failures of the :class:`~repro.serving.service.SweepService`'s worker
pool, firing deterministically by sweep point index and site so every
supervision guard has a test that proves detection, structured
reporting, and recovery.

Injection sites
---------------

The service consults the plan while dispatching sweep points to its
worker pool, and the matching directive rides along in the shard
message.  The plan's shot index is the **sweep point index**, so
chaos experiments pin failures to specific points.

``worker_crash``
    The worker process ``os._exit``\\ s mid-shard, after computing but
    before reporting the pinned point — the supervisor must detect the
    death and re-dispatch every un-journaled point of the shard.
``worker_hang``
    The worker stops heartbeating and sleeps — the supervisor's
    heartbeat watchdog must SIGKILL and replace it.
``result_drop``
    The worker computes the pinned point but never reports it (a lost
    result message); the shard deadline must expire and the point be
    re-dispatched, with the journal deduplicating should the dropped
    result somehow surface later.

The plan is stateful and shared by reference: the dispatcher advances
:attr:`FaultPlan.current_shot` to each point it hands out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigurationError

#: Every site a :class:`FaultPlan` can arm, each fired by the serving
#: layer (the plan's shot index means *sweep point index*).
FAULT_SITES = (
    "worker_crash",
    "worker_hang",
    "result_drop",
)


@dataclass(frozen=True)
class FaultSpec:
    """One planned failure.

    ``shot`` pins the fault to a sweep point index (``None`` fires at
    the first opportunity regardless of point); ``count`` bounds how
    many times the spec fires in total, so a re-dispatched point does
    not re-inject an already-consumed fault.
    """

    site: str
    shot: int | None = None
    count: int = 1

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; "
                f"known sites: {', '.join(FAULT_SITES)}")
        if self.count < 1:
            raise ConfigurationError("fault count must be positive")


class FaultPlan:
    """A deterministic schedule of failures over a sweep.

    The plan is stateful: each spec's budget is consumed as it fires.
    """

    def __init__(self, specs):
        self.specs = tuple(specs)
        self._remaining = [spec.count for spec in self.specs]
        self.current_shot = 0

    def begin_shot(self, shot_index: int) -> None:
        self.current_shot = shot_index

    def fire(self, site: str) -> bool:
        """Consume one budget unit for ``site`` if a spec matches.

        Returns ``True`` when the caller should inject the failure.
        """
        for index, spec in enumerate(self.specs):
            if spec.site != site or self._remaining[index] <= 0:
                continue
            if spec.shot is not None and spec.shot != self.current_shot:
                continue
            self._remaining[index] -= 1
            return True
        return False
