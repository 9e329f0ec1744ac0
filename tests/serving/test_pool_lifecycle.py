"""One worker pool per ``serve()`` drain.

Every sweep pending when ``serve()`` runs shares one supervised pool:
it is started once, keeps its workers (and their set-ups) warm across
sweeps, and is gone when the drain ends, however it ends.  Messages
carry the sweep's job number within the drain, so a straggler from an
earlier sweep can never be taken for a point of the current one.
"""

import pytest

from repro.core.errors import InvalidRequestError, WorkerPoolError
from repro.obs import Observability
from repro.serving import ServiceConfig, SweepService, SweepSpec
from repro.serving import supervisor
from repro.serving.sweep import execution_payload
from repro.uarch import EngineStats
from repro.uarch.faults import FaultPlan, FaultSpec

from serving_workload import (
    build_failing_setup,
    build_frame_program,
    build_frame_setup,
    build_program,
    make_spec,
    run_points_inline,
)

CONFIG = ServiceConfig(num_workers=2, poll_interval_s=0.01,
                       drain_timeout_s=10.0)


@pytest.fixture
def started_pools(monkeypatch):
    """Every pool ``WorkerPool.start`` starts, in order."""
    pools = []
    start = supervisor.WorkerPool.start

    def counting_start(pool, spec):
        pools.append(pool)
        start(pool, spec)

    monkeypatch.setattr(supervisor.WorkerPool, "start", counting_start)
    return pools


def assert_no_worker_alive(pools):
    for pool in pools:
        for handle in pool.handles:
            assert not handle.is_alive()


def by_sweep(results):
    counts = {}
    for result in results:
        counts.setdefault(result.sweep, {})[result.index] = result.counts
    return counts


class TestSharedPool:
    def test_two_sweeps_with_a_crash_share_one_pool(self, inline_setup,
                                                     started_pools):
        first = make_spec("first", num_points=6, shots=12, seed=3)
        second = make_spec("second", num_points=5, shots=12, seed=4)
        service = SweepService(
            CONFIG, fault_plan=FaultPlan([FaultSpec("worker_crash",
                                                    shot=2)]))
        service.submit(first)
        service.submit(second)
        served = by_sweep(service.serve())

        assert served == {
            "first": run_points_inline(inline_setup, first),
            "second": run_points_inline(inline_setup, second)}
        assert len(started_pools) == 1
        stats = service.stats
        assert stats.chaos_directives == ["worker_crash@point2"]
        assert stats.worker_deaths == 1
        assert stats.worker_restarts == 1
        assert stats.points_completed == 11
        assert stats.sweeps_completed == 2
        assert_no_worker_alive(started_pools)

    def test_straggler_of_the_previous_job_is_dropped(
            self, inline_setup, monkeypatch):
        first = make_spec("first", num_points=4, shots=12, seed=3)
        second = make_spec("second", num_points=4, shots=12, seed=4)
        service = SweepService(CONFIG)
        service.submit(first)
        service.submit(second)
        served = []
        forged = []
        receive = SweepService._drain_messages

        def receive_with_straggler(service, pool):
            messages = receive(service, pool)
            if len(served) == first.num_points and not forged:
                # A late result of job 1 for a point index the second
                # sweep has not served yet, from a live generation.
                handle = pool.handles[0]
                done = served[0]
                stats = EngineStats(
                    engine=done.engine, plant_backend=done.plant_backend,
                    interpreter_shots=done.interpreter_shots,
                    replay_shots=done.replay_shots,
                    frame_batched=done.frame_batched,
                    degradations=list(done.degradations))
                forged.append({
                    "kind": "point", "worker": handle.worker_id,
                    "generation": handle.generation, "job": 1,
                    "index": 0, "payload": execution_payload(
                        first.point(0), done.counts, stats,
                        done.latency_s)})
                messages = forged + messages
            return messages

        monkeypatch.setattr(SweepService, "_drain_messages",
                            receive_with_straggler)
        for result in service.serve():
            served.append(result)
        assert forged
        assert by_sweep(served)["second"] == run_points_inline(
            inline_setup, second)
        stale = [event for event in service.stats.events
                 if event.kind == "stale_message"]
        assert len(stale) == 1
        assert stale[0].indices == (0,)
        assert stale[0].detail == "point of job 1"
        assert service.stats.duplicate_results == 0

    def test_slot_busy_at_sweep_end_serves_the_next_sweep(
            self, inline_setup, started_pools):
        """A slot can end a sweep still assigned a point whose result
        came from a re-dispatched copy; it is only computing a
        duplicate, so the next sweep dispatches to it as to any idle
        slot."""
        first = make_spec("first", num_points=4, shots=12, seed=3)
        second = make_spec("second", num_points=4, shots=12, seed=4)
        service = SweepService(CONFIG)
        service.submit(first)
        service.submit(second)
        served = []
        for result in service.serve():
            served.append(result)
            if len(served) == first.num_points:
                started_pools[0].handles[0].assignment = {0}
        assert by_sweep(served)["second"] == run_points_inline(
            inline_setup, second)
        assert {result.worker for result in served
                if result.sweep == "second"} == {0, 1}

    def test_shards_split_pending_work_over_idle_workers(self):
        obs = Observability()
        service = SweepService(CONFIG, observability=obs)
        service.run_sweep(make_spec("gss", num_points=9, shots=8))
        dispatches = [event.attributes["indices"]
                      for event in obs.tracer.events()
                      if event.name == "service.dispatch"]
        # ceil(9 / 2) = 5 points, then the other 4 on the last idle
        # worker: the whole sweep in one shard per worker.
        assert dispatches == [[0, 1, 2, 3, 4], [5, 6, 7, 8]]


class TestSetupFactories:
    def test_different_factory_gets_a_fresh_setup(self, inline_setup):
        rabi = make_spec("rabi", num_points=3, shots=12)
        frame = SweepSpec.from_params(
            name="frame", shots=200, seed=11,
            params=[{"gate": "H"}, {"gate": "X90"}, {"gate": "Y"}],
            setup_factory=build_frame_setup,
            program_factory=build_frame_program)
        service = SweepService(CONFIG)
        service.submit(rabi)
        service.submit(frame)
        results = list(service.serve())
        assert by_sweep(results) == {
            "rabi": run_points_inline(inline_setup, rabi),
            "frame": run_points_inline(build_frame_setup(), frame)}
        # The frame points ran on the frame set-up's noise model, which
        # the Rabi set-up's calibrated T1/T2 noise would have kept off
        # the Pauli-frame engine.
        assert {result.engine for result in results
                if result.sweep == "frame"} == {"frame"}

    def test_failing_second_factory_raises_after_first_sweep(
            self, inline_setup, started_pools):
        good = make_spec("good", num_points=4, shots=12)
        bad = SweepSpec.from_params(
            name="bad", shots=12, seed=1, params=[{"step": 0}],
            setup_factory=build_failing_setup,
            program_factory=build_program)
        service = SweepService(CONFIG)
        service.submit(good)
        service.submit(bad)
        served = []
        with pytest.raises(WorkerPoolError, match="set-up factory"):
            for result in service.serve():
                served.append(result)
        assert by_sweep(served) == {
            "good": run_points_inline(inline_setup, good)}
        assert service.stats.sweeps_completed == 1
        assert_no_worker_alive(started_pools)

    def test_lambda_factory_is_rejected_at_submit(self):
        spec = SweepSpec.from_params(
            name="lambda", shots=4, seed=1, params=[{"step": 0}],
            setup_factory=lambda: build_frame_setup(),
            program_factory=build_program)
        service = SweepService(CONFIG)
        with pytest.raises(InvalidRequestError, match="pickle"):
            service.submit(spec)
        assert service.stats.sweeps_submitted == 0
        assert list(service.serve()) == []


class TestDrainEnd:
    def test_no_worker_outlives_a_finished_drain(self, started_pools):
        service = SweepService(CONFIG)
        service.run_sweep(make_spec("done", num_points=3, shots=8))
        assert len(started_pools) == 1
        assert_no_worker_alive(started_pools)

    def test_no_worker_outlives_a_closed_generator(self, started_pools):
        service = SweepService(CONFIG)
        service.submit(make_spec("closed", num_points=6, shots=8))
        stream = service.serve()
        next(stream)
        stream.close()
        assert len(started_pools) == 1
        assert_no_worker_alive(started_pools)
