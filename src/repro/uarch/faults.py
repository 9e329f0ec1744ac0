"""Deterministic fault injection for the engine x backend matrix.

eQASM defines runtime error conditions — timing violations, queue
overflows, comparison-flag hazards — that the reproduction models on
the happy path; this module makes the *unhappy* paths exercisable.  A
:class:`FaultPlan` arms named injection sites across the machine, the
measurement unit, and the plant, firing deterministically (by shot
index, site, and seed) so every runtime guard has a test that proves
detection, structured reporting, and recovery.

Injection sites
---------------

``backend_gate``
    The plant backend raises mid-gate
    (:class:`~repro.core.errors.BackendFaultError` from
    :meth:`QuantumPlant.apply_unitary`).
``measurement_stall``
    A started readout's result is lost on the analog link; the result
    event never arrives and an FMR waiting on it times out with a
    structured :class:`~repro.core.errors.ShotTimeoutError`.
``timing_overflow``
    The timing queue overflows at reserve time
    (:class:`~repro.core.errors.QueueOverflowError` with the
    instantiation's depth in context).
``tree_bitflip``
    A terminal node of the replay timeline tree is corrupted in place;
    the self-verifying audit detects the divergence, evicts the tree
    from both caches, and degrades the run.
``mock_exhaust``
    The measurement unit's mock-result queues are cleared mid-run
    (the UHFQC's fabricated-result program dying); subsequent
    measurements fall through to the real plant and the run recovers.

Process-level sites (the sweep-serving layer)
---------------------------------------------

The three remaining sites fire *outside* the machine: the
:class:`~repro.serving.service.SweepService` consults the plan while
dispatching sweep points to its worker pool, and the matching
directive rides along in the shard message.  For these sites the
plan's shot index is the **sweep point index**, so chaos experiments
pin failures to specific points exactly like shot-pinned machine
faults.

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

The plan is shared by reference: :meth:`QuMAv2.arm_faults` hands the
same object to the plant and the measurement unit, and the machine
advances :attr:`FaultPlan.current_shot` so all hooks agree on when to
fire.  (A service-held plan is advanced by the dispatcher instead.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import ConfigurationError

#: Every site a :class:`FaultPlan` can arm.
FAULT_SITES = (
    "backend_gate",
    "measurement_stall",
    "timing_overflow",
    "tree_bitflip",
    "mock_exhaust",
    "worker_crash",
    "worker_hang",
    "result_drop",
)

#: The subset of :data:`FAULT_SITES` fired by the serving layer (the
#: plan's shot index means *sweep point index* for these).
PROCESS_FAULT_SITES = (
    "worker_crash",
    "worker_hang",
    "result_drop",
)


@dataclass(frozen=True)
class FaultSpec:
    """One planned failure.

    ``shot`` pins the fault to a shot index (``None`` fires at the
    first opportunity regardless of shot); ``count`` bounds how many
    times the spec fires in total, so a retried or re-run plan does not
    re-inject an already-consumed fault.
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


@dataclass(frozen=True)
class FaultRecord:
    """One fired fault, for post-mortem inspection."""

    site: str
    shot: int
    context: tuple[tuple[str, object], ...] = ()

    def describe(self) -> str:
        extras = ", ".join(f"{k}={v!r}" for k, v in self.context)
        return f"{self.site}@shot{self.shot}" + (f" ({extras})"
                                                 if extras else "")


class FaultPlan:
    """A deterministic schedule of failures over a run.

    The plan is stateful: each spec's budget is consumed as it fires,
    and :attr:`records` accumulates every injection for assertions.
    """

    def __init__(self, specs, seed: int = 0):
        self.specs = tuple(specs)
        #: RNG for faults that need randomness (e.g. which tree node
        #: to corrupt) — seeded so runs reproduce exactly.
        self.rng = np.random.default_rng(seed)
        self._remaining = [spec.count for spec in self.specs]
        self.records: list[FaultRecord] = []
        self.current_shot = 0
        self._fired_this_run = 0

    # ------------------------------------------------------------------
    # Run lifecycle (driven by the machine)
    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        self.current_shot = 0
        self._fired_this_run = 0

    def begin_shot(self, shot_index: int) -> None:
        self.current_shot = shot_index

    @property
    def fired_this_run(self) -> bool:
        return self._fired_this_run > 0

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def _match(self, site: str) -> int | None:
        for index, spec in enumerate(self.specs):
            if spec.site != site or self._remaining[index] <= 0:
                continue
            if spec.shot is not None and spec.shot != self.current_shot:
                continue
            return index
        return None

    def armed(self, site: str) -> bool:
        """Whether any budget remains for ``site`` (at any shot)."""
        return any(spec.site == site and remaining > 0
                   for spec, remaining in zip(self.specs, self._remaining))

    def would_fire(self, site: str) -> bool:
        """Whether :meth:`fire` would trigger now, without consuming."""
        return self._match(site) is not None

    def fire(self, site: str, **context) -> bool:
        """Consume one budget unit for ``site`` if a spec matches.

        Returns ``True`` when the caller should inject the failure; the
        injection is recorded with its context for later inspection.
        """
        index = self._match(site)
        if index is None:
            return False
        self._remaining[index] -= 1
        self._fired_this_run += 1
        self.records.append(FaultRecord(
            site=site, shot=self.current_shot,
            context=tuple(sorted(context.items()))))
        return True
