"""Chaos-recovery identity: the acceptance gate of the serving layer.

With process-level faults armed — workers killed mid-shard, hung past
the heartbeat watchdog, results dropped in transit — a sharded sweep
must complete with :class:`ShotCounts` bit-identical to the fault-free
run, and a kill-9-then-resume-from-journal sweep must equal the
uninterrupted one.  Every supervision decision must be visible in
structured telemetry (:class:`ServiceStats.events`), never only in
logs.

The nightly CI job widens the sweep via environment knobs:

``EQASM_SERVICE_POINTS``  sweep points (default 6, max 16)
``EQASM_SERVICE_FAULTS``  chaos budget — fault specs cycled over the
                          three process sites (default 3)
"""

import os

import pytest

from repro.serving import ServiceConfig, SweepService
from repro.uarch.faults import FAULT_SITES, FaultPlan, FaultSpec

from serving_workload import (
    MAX_STEPS,
    counts_by_index,
    make_spec,
    run_points_inline,
)

NUM_POINTS = min(int(os.environ.get("EQASM_SERVICE_POINTS", "6")),
                 MAX_STEPS)
# One fault per point at most: each spec pins a distinct point, so
# every planned fault actually fires.
NUM_FAULTS = min(int(os.environ.get("EQASM_SERVICE_FAULTS", "3")),
                 NUM_POINTS)
SHOTS = 12


def chaos_config(**overrides) -> ServiceConfig:
    """Tight supervision so injected hangs recover in ~a second."""
    base = dict(num_workers=2,
                poll_interval_s=0.01, heartbeat_timeout_s=1.0,
                point_deadline_s=1.0, hang_sleep_s=30.0,
                max_restarts=4 + 2 * NUM_FAULTS,
                drain_timeout_s=10.0)
    base.update(overrides)
    return ServiceConfig(**base)


def chaos_plan() -> FaultPlan:
    """``NUM_FAULTS`` faults cycled over the three process sites, each
    pinned to a distinct sweep point."""
    specs = []
    for fault in range(NUM_FAULTS):
        site = FAULT_SITES[fault % len(FAULT_SITES)]
        point = (fault * NUM_POINTS) // max(NUM_FAULTS, 1)
        specs.append(FaultSpec(site, shot=point))
    return FaultPlan(specs)


@pytest.fixture(scope="module")
def reference(inline_setup):
    """Fault-free counts for the chaos sweep, computed in-process."""
    spec = make_spec("chaos", num_points=NUM_POINTS, shots=SHOTS,
                     seed=23)
    return spec, run_points_inline(inline_setup, spec)


class TestChaosIdentity:
    def test_crash_hang_drop_recovery_is_bit_identical(self,
                                                       reference):
        spec, expected = reference
        service = SweepService(chaos_config(),
                               fault_plan=chaos_plan())
        result = service.run_sweep(spec)

        assert counts_by_index(result) == expected
        stats = result.stats
        # Every planned fault was actually injected...
        assert len(stats.chaos_directives) == NUM_FAULTS
        sites = {directive.split("@")[0]
                 for directive in stats.chaos_directives}
        assert sites == set(FAULT_SITES[:NUM_FAULTS])
        # ...and supervision recovered from each: a crash shows up as
        # a worker death, a hang or a dropped result as a watchdog
        # kill (which of the two watchdogs fires first is timing).
        if "worker_crash" in sites:
            assert stats.worker_deaths >= 1
        if {"worker_hang", "result_drop"} & sites:
            assert (stats.heartbeat_timeouts
                    + stats.shard_deadline_hits) >= 1
        assert stats.worker_restarts >= 1
        assert stats.points_redispatched >= 1
        # Exactly-once accounting survives the chaos.
        assert stats.points_completed == NUM_POINTS
        assert stats.points_resumed == 0

    def test_supervision_is_structured_telemetry(self, reference):
        spec, expected = reference
        service = SweepService(chaos_config(),
                               fault_plan=chaos_plan())
        result = service.run_sweep(spec)
        assert counts_by_index(result) == expected

        events = result.stats.events
        kinds = {event.kind for event in events}
        assert "chaos" in kinds
        assert "redispatch" in kinds
        assert "worker_restart" in kinds
        assert kinds & {"worker_death", "heartbeat_timeout",
                        "shard_deadline"}
        for event in events:
            if event.kind == "redispatch":
                # Re-dispatches name the exact un-journaled points.
                assert event.indices
                assert all(0 <= index < NUM_POINTS
                           for index in event.indices)
            if event.kind in ("worker_death", "heartbeat_timeout",
                              "shard_deadline", "worker_restart"):
                assert event.worker is not None
            assert event.describe()

    def test_chaos_with_journal_still_identical(self, tmp_path,
                                                reference):
        spec, expected = reference
        path = tmp_path / "chaos.jsonl"
        service = SweepService(chaos_config(),
                               fault_plan=chaos_plan())
        result = service.run_sweep(spec, journal_path=path)
        assert counts_by_index(result) == expected
        # The journal now holds the full sweep: a resume-only service
        # serves every point without starting a single worker.
        resumed = SweepService(chaos_config()).run_sweep(
            spec, journal_path=path)
        assert counts_by_index(resumed) == expected
        assert resumed.stats.points_resumed == NUM_POINTS


class TestKillNineResume:
    def test_abandoned_service_resumes_bit_identical(self, tmp_path,
                                                     reference):
        """Simulate the service process dying mid-sweep: take a few
        results from the stream, then drop the generator — its worker
        processes are SIGKILLed with shards in flight.  A fresh
        service resuming from the journal must reproduce the
        uninterrupted sweep bit for bit, serving each point exactly
        once."""
        spec, expected = reference
        path = tmp_path / "killed.jsonl"
        service = SweepService(chaos_config())
        service.submit(spec, journal_path=path)
        stream = service.serve()
        observed = [next(stream) for _ in range(2)]
        stream.close()  # the "kill -9": workers die un-drained

        for result in observed:
            assert result.counts == expected[result.index]

        fresh = SweepService(chaos_config())
        recovered = fresh.run_sweep(spec, journal_path=path)
        assert counts_by_index(recovered) == expected
        stats = fresh.stats
        # Durable before observable: everything the first service
        # yielded had already hit the journal, so it resumes rather
        # than recomputes.
        assert stats.points_resumed >= len(observed)
        assert (stats.points_resumed + stats.points_completed
                == NUM_POINTS)
        resumed_indices = {result.index for result in observed}
        for index, result in recovered.results.items():
            if index in resumed_indices:
                assert result.resumed

    def test_kill_nine_under_chaos_then_resume(self, tmp_path,
                                               reference):
        """The compound case: chaos faults armed AND the service
        abandoned mid-recovery; the journal still carries the sweep to
        a bit-identical finish."""
        spec, expected = reference
        path = tmp_path / "killed-chaos.jsonl"
        service = SweepService(chaos_config(),
                               fault_plan=chaos_plan())
        service.submit(spec, journal_path=path)
        stream = service.serve()
        next(stream)
        stream.close()

        fresh = SweepService(chaos_config())
        recovered = fresh.run_sweep(spec, journal_path=path)
        assert counts_by_index(recovered) == expected
        assert (fresh.stats.points_resumed
                + fresh.stats.points_completed) == NUM_POINTS
