"""SweepService behavior: happy path, journal resume, deadlines,
admission backpressure, failure budgets, and structured telemetry."""

import pytest

from repro.core.errors import (
    AdmissionRejectedError,
    ConfigurationError,
    ExperimentIntegrityError,
    GuardFault,
    InvalidRequestError,
    JobDeadlineError,
    WorkerPoolError,
)
from repro.serving import (
    CheckpointJournal,
    ServiceConfig,
    SweepService,
    SweepSpec,
    derive_point_seed,
    execute_point,
)

from serving_workload import (
    build_failing_program,
    build_frame_program,
    build_frame_setup,
    build_program,
    build_setup,
    counts_by_index,
    make_spec,
    run_points_inline,
)

FAST = dict(num_workers=2, poll_interval_s=0.01,
            drain_timeout_s=10.0)


class TestSweepSpec:
    def test_point_seeds_are_deterministic_and_distinct(self):
        spec = make_spec("seeds", num_points=6)
        seeds = [point.seed for point in spec.points()]
        assert seeds == [derive_point_seed(spec.seed, index)
                         for index in range(6)]
        assert len(set(seeds)) == 6

    def test_fingerprint_covers_points_shots_seed(self):
        base = make_spec("fp", num_points=3, shots=10, seed=1)
        assert base.fingerprint() == make_spec(
            "fp", num_points=3, shots=10, seed=1).fingerprint()
        for other in (make_spec("fp", num_points=2, shots=10, seed=1),
                      make_spec("fp", num_points=3, shots=11, seed=1),
                      make_spec("fp", num_points=3, shots=10, seed=2),
                      make_spec("fp2", num_points=3, shots=10,
                                seed=1)):
            assert other.fingerprint() != base.fingerprint()

    def test_fingerprint_ignores_factory_identity(self):
        with_a = make_spec("fp", program_factory=build_program)
        with_b = make_spec("fp",
                           program_factory=build_failing_program)
        assert with_a.fingerprint() == with_b.fingerprint()

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(InvalidRequestError):
            make_spec("bad", shots=0)
        with pytest.raises(InvalidRequestError):
            SweepSpec.from_params(name="empty", shots=1, seed=0,
                                  params=[],
                                  setup_factory=build_setup,
                                  program_factory=build_program)
        with pytest.raises(InvalidRequestError):
            make_spec("bounds", num_points=2).point(2)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(num_workers=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(heartbeat_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_pending_sweeps=0)

    @pytest.mark.parametrize("field, value", [
        ("point_deadline_s", 0.0),
        ("point_deadline_s", -1.0),
        ("sweep_deadline_s", 0.0),
        ("sweep_deadline_s", -1.0),
        ("max_point_failures", 0),
        ("drain_timeout_s", -0.5),
    ])
    def test_config_rejects_nonpositive_budgets(self, field, value):
        # A zero point deadline would make every supervise pass kill
        # each busy worker as a stalled shard, failing the sweep with a
        # misleading "restart budget exhausted".
        with pytest.raises(ConfigurationError, match=field):
            ServiceConfig(**{field: value})


class TestHappyPath:
    def test_sweep_matches_inline_execution(self, inline_setup):
        spec = make_spec("happy", num_points=4, shots=12)
        expected = run_points_inline(inline_setup, spec)
        service = SweepService(ServiceConfig(**FAST))
        result = service.run_sweep(spec)
        assert counts_by_index(result) == expected
        stats = result.stats
        assert stats.points_completed == 4
        assert stats.points_resumed == 0
        assert stats.points_total == 4
        assert stats.sweeps_completed == 1
        assert stats.worker_deaths == 0
        assert stats.worker_restarts == 0
        # Engine telemetry surfaces from inside the workers.
        assert stats.interpreter_shots + stats.replay_shots == 4 * 12
        workers = {r.worker for r in result.results.values()}
        assert workers <= {0, 1}

    def test_results_carry_engine_telemetry(self):
        spec = make_spec("telemetry", num_points=2, shots=8)
        result = SweepService(ServiceConfig(**FAST)).run_sweep(spec)
        for point in result.results.values():
            assert point.engine in ("interpreter", "replay")
            assert point.plant_backend in ("dense", "stabilizer")
            assert (point.interpreter_shots + point.replay_shots
                    == 8)
            assert point.latency_s > 0.0
            assert not point.resumed

    def test_stats_snapshot_is_isolated(self):
        spec = make_spec("snapshot", num_points=2, shots=6)
        service = SweepService(ServiceConfig(**FAST))
        service.run_sweep(spec)
        snapshot = service.stats_snapshot()
        snapshot.events.append("poison")
        snapshot.chaos_directives.append("poison")
        assert "poison" not in service.stats.events
        assert "poison" not in service.stats.chaos_directives


class TestFramePointPurity:
    def test_frame_point_is_identical_on_rerun(self):
        """The machine keeps the frame engine's reference recording
        across runs, but the purity reset drops it: a frame-eligible
        point executed twice on one set-up records its reference shot
        both times and gives bit-identical counts, also with another
        point run in between."""
        spec = SweepSpec.from_params(
            name="frame-purity", shots=500, seed=5,
            params=[{"gate": "H"}, {"gate": "X90"}],
            setup_factory=build_frame_setup,
            program_factory=build_frame_program)
        setup = build_frame_setup()
        runs = []
        for index in (0, 0, 1, 0):
            counts, stats, _ = execute_point(setup, spec, spec.point(index))
            assert stats.engine == "frame", stats.fallback_reason
            assert stats.frame_reference_shots == 1
            assert not stats.tree_reused
            runs.append(counts)
        assert runs[0] == runs[1] == runs[3]


class TestJournalResume:
    def test_completed_journal_serves_without_workers(self,
                                                     tmp_path,
                                                     inline_setup):
        spec = make_spec("resume-full", num_points=3, shots=10)
        path = tmp_path / "sweep.jsonl"
        expected = run_points_inline(inline_setup, spec)
        first = SweepService(ServiceConfig(**FAST)).run_sweep(
            spec, journal_path=path)
        assert counts_by_index(first) == expected

        second = SweepService(ServiceConfig(**FAST)).run_sweep(
            spec, journal_path=path)
        assert counts_by_index(second) == expected
        assert all(r.resumed for r in second.results.values())
        stats = second.stats
        assert stats.points_resumed == 3
        assert stats.points_completed == 0
        assert stats.sweeps_completed == 1

    def test_partial_journal_resumes_only_missing_points(
            self, tmp_path, inline_setup):
        spec = make_spec("resume-part", num_points=4, shots=10)
        path = tmp_path / "sweep.jsonl"
        expected = run_points_inline(inline_setup, spec)
        SweepService(ServiceConfig(**FAST)).run_sweep(
            spec, journal_path=path)

        # Keep header + 2 point records and tear the third mid-write,
        # as a crash would.
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:3]) + lines[3][:20])

        service = SweepService(ServiceConfig(**FAST))
        result = service.run_sweep(spec, journal_path=path)
        assert counts_by_index(result) == expected
        stats = result.stats
        assert stats.points_resumed == 2
        assert stats.points_completed == 2
        assert stats.journal_torn_records == 1
        assert any(event.kind == "journal_torn"
                   for event in stats.events)
        # Exactly-once accounting: resumed + executed == total.
        assert (stats.points_resumed + stats.points_completed
                == spec.num_points)

    def test_journal_for_other_sweep_is_refused(self, tmp_path):
        spec = make_spec("journal-a", num_points=2, seed=1)
        other = make_spec("journal-a", num_points=2, seed=2)
        path = tmp_path / "sweep.jsonl"
        with CheckpointJournal(path) as journal:
            journal.load(spec)
        service = SweepService(ServiceConfig(**FAST))
        with pytest.raises(ExperimentIntegrityError,
                           match="fingerprint"):
            service.run_sweep(other, journal_path=path)


class TestAdmissionAndDeadlines:
    def test_admission_rejects_past_bound(self):
        service = SweepService(ServiceConfig(max_pending_sweeps=1,
                                             **FAST))
        service.submit(make_spec("adm-0", num_points=2))
        with pytest.raises(AdmissionRejectedError) as info:
            service.submit(make_spec("adm-1", num_points=2))
        assert info.value.context["queue"] == "sweep-admission"
        assert info.value.context["depth"] == 1
        assert service.stats.admission_rejections == 1
        # The rejected sweep never entered the queue; the first still
        # serves to completion.
        results = list(service.serve())
        assert {r.sweep for r in results} == {"adm-0"}

    def test_sweep_deadline_raises_structured_guard_fault(self):
        service = SweepService(ServiceConfig(sweep_deadline_s=1e-9,
                                             **FAST))
        with pytest.raises(JobDeadlineError) as info:
            service.run_sweep(make_spec("deadline", num_points=2))
        context = info.value.context
        assert context["deadline_s"] == 1e-9
        assert context["completed_points"] == 0
        assert context["total_points"] == 2
        assert isinstance(info.value, GuardFault)
        assert service.stats.sweep_deadline_hits == 1
        assert any(event.kind == "sweep_deadline"
                   for event in service.stats.events)

    def test_deadline_hit_leaves_journal_resumable(self, tmp_path,
                                                   inline_setup):
        spec = make_spec("deadline-resume", num_points=3, shots=10)
        path = tmp_path / "sweep.jsonl"
        expected = run_points_inline(inline_setup, spec)
        strict = SweepService(ServiceConfig(sweep_deadline_s=1e-9,
                                            **FAST))
        with pytest.raises(JobDeadlineError):
            strict.run_sweep(spec, journal_path=path)
        # Whatever did not complete in time is simply re-run; the
        # journal (header at minimum) is intact and the final counts
        # are bit-identical.
        relaxed = SweepService(ServiceConfig(**FAST))
        result = relaxed.run_sweep(spec, journal_path=path)
        assert counts_by_index(result) == expected

    def test_deterministic_point_failure_exhausts_budget(self):
        poisoned = SweepSpec.from_params(
            name="poisoned", shots=10, seed=7,
            params=[{"step": -1}, {"step": 1}, {"step": 2}],
            setup_factory=build_setup,
            program_factory=build_failing_program)
        service = SweepService(ServiceConfig(max_point_failures=2,
                                             **FAST))
        with pytest.raises(WorkerPoolError, match="giving up"):
            service.run_sweep(poisoned)
        assert service.stats.points_failed >= 2
        assert any(event.kind == "point_error"
                   for event in service.stats.events)
