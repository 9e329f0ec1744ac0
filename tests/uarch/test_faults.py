"""Chaos suite: every fault-injection site, end to end.

For each site of :data:`repro.uarch.faults.FAULT_SITES` the suite
proves the full hardening contract:

1. **detection** — the injected failure surfaces as the documented
   structured error (or degradation) instead of silent corruption;
2. **context** — the error carries its machine-readable context keys;
3. **ladder** — :meth:`ExperimentSetup.run_resilient` degrades onto
   the next rung and still delivers every shot;
4. **recovery** — a clean re-run after disarming is healthy again.
"""

import numpy as np
import pytest

from repro.core import (
    Assembler,
    rotated_surface_instantiation,
    seven_qubit_instantiation,
    two_qubit_instantiation,
)
from repro.core.errors import (
    BackendFaultError,
    ConfigurationError,
    EQASMError,
    GuardFault,
    QueueOverflowError,
    ResourceError,
    RuntimeFault,
    ShotTimeoutError,
)
from repro.experiments.cfc import (
    CFC_SCRATCH_PROGRAM,
    CFC_TWO_ROUND_PROGRAM,
    FIG5_PROGRAM,
)
from repro.experiments.runner import ExperimentSetup, RetryPolicy
from repro.experiments.surface_code import looped_surface_code_program
from repro.quantum import NoiseModel, QuantumPlant
from repro.quantum.noise import DecoherenceModel, GateErrorModel
from repro.uarch import (
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    QuMAv2,
    ShotTrace,
    UarchConfig,
)
from repro.workloads.rotated_surface import rotated_surface_circuit

ACTIVE_RESET = """
SMIS S2, {2}
QWAIT 10000
X90 S2
MEASZ S2
QWAIT 50
C_X S2
MEASZ S2
STOP
"""

CFC_FMR = """
SMIS S2, {2}
X S2
MEASZ S2
FMR R1, Q2
STOP
"""


#: A CFC round whose result is deposited to data memory for the host:
#: a store no load observes, so the program replays.
DEAD_STORE = """
SMIS S0, {0}
SMIS S2, {2}
LDI R0, 1
QWAIT 10000
X90 S2
MEASZ S2
QWAIT 50
FMR R1, Q2
CMP R1, R0
BR EQ, eq
X S0
BR ALWAYS, join
eq:
Y S0
join:
LDI R2, 64
ST R1, R2(0)
QWAIT 50
STOP
"""

RABI = """
SMIS S2, {2}
QWAIT 10000
X90 S2
MEASZ S2
QWAIT 50
STOP
"""

ALLXY = """
SMIS S0, {0}
SMIS S2, {2}
SMIS S7, {0, 2}
QWAIT 10000
0, Y S7
1, X90 S0 | X S2
1, MEASZ S7
QWAIT 50
STOP
"""


def make_machine(text=ACTIVE_RESET, seed=0, config=None,
                 audit_fraction=0.0, isa=None, noise=None):
    isa = isa or two_qubit_instantiation()
    plant = QuantumPlant(isa.topology,
                         noise=noise if noise is not None else NoiseModel(),
                         rng=np.random.default_rng(seed))
    machine = QuMAv2(isa, plant, config=config,
                     audit_fraction=audit_fraction)
    machine.load(Assembler(isa).assemble_text(text))
    return machine


def make_setup(seed=0, **kwargs):
    return ExperimentSetup.create(noise=NoiseModel(), seed=seed,
                                  **kwargs)


class TestFaultPlan:
    """The deterministic schedule itself."""

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("warp_core_breach")

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("backend_gate", count=0)

    def test_shot_pinning_and_budget(self):
        plan = FaultPlan([FaultSpec("backend_gate", shot=2, count=1)])
        plan.begin_run()
        plan.begin_shot(0)
        assert not plan.fire("backend_gate")
        plan.begin_shot(2)
        assert plan.would_fire("backend_gate")
        assert plan.fire("backend_gate", qubit=2)
        # Budget consumed: the same site never fires again.
        assert not plan.fire("backend_gate")
        assert plan.fired_this_run
        [record] = plan.records
        assert record.site == "backend_gate" and record.shot == 2
        assert ("qubit", 2) in record.context
        assert "backend_gate@shot2" in record.describe()

    def test_every_site_is_armable(self):
        plan = FaultPlan([FaultSpec(site) for site in FAULT_SITES])
        for site in FAULT_SITES:
            assert plan.armed(site)


class TestBackendGateFault:
    def test_detection_and_context(self):
        machine = make_machine()
        machine.arm_faults(FaultPlan([FaultSpec("backend_gate",
                                                shot=0)]))
        with pytest.raises(BackendFaultError) as info:
            machine.run(5)
        error = info.value
        assert error.backend == "dense"
        assert error.site == "backend_gate"
        assert error.operation  # the faulting gate name
        assert isinstance(error, RuntimeFault)  # old catchers survive
        # The poisoned tree never reaches the cross-run cache.
        assert not machine._tree_cache
        assert machine.engine_stats.faults_injected

    def test_ladder_and_recovery(self):
        setup = make_setup()
        assembled = setup.assemble_text(ACTIVE_RESET)
        setup.machine.arm_faults(FaultPlan([FaultSpec("backend_gate",
                                                      shot=0)]))
        traces = setup.run_resilient(assembled, 20)
        assert len(traces) == 20
        assert setup.last_engine_stats.degradations
        assert setup.machine.plant_backend_policy == "auto"  # restored
        setup.machine.disarm_faults()
        clean = setup.run_resilient(assembled, 20)
        assert len(clean) == 20
        assert not setup.last_engine_stats.degradations


class TestMeasurementStallFault:
    def test_detection_and_context(self):
        machine = make_machine(CFC_FMR)
        machine.arm_faults(FaultPlan([FaultSpec("measurement_stall",
                                                shot=1)]))
        with pytest.raises(ShotTimeoutError) as info:
            machine.run(3, use_replay=False)
        error = info.value
        assert error.qubit == 2
        assert error.register == 1
        assert "waits forever" in str(error)

    def test_ladder_and_recovery(self):
        setup = make_setup()
        assembled = setup.assemble_text(CFC_FMR)
        # One stall, then healthy: the interpreter-only retry succeeds
        # because the fault budget is consumed on the first attempt.
        setup.machine.arm_faults(
            FaultPlan([FaultSpec("measurement_stall", shot=0)]))
        traces = setup.run_resilient(assembled, 10)
        assert len(traces) == 10
        assert any("ShotTimeoutError" in step for step in
                   setup.last_engine_stats.degradations)


class TestTimingOverflowFault:
    def test_detection_and_context(self):
        machine = make_machine()
        machine.arm_faults(FaultPlan([FaultSpec("timing_overflow",
                                                shot=0)]))
        with pytest.raises(QueueOverflowError) as info:
            machine.run(2)
        error = info.value
        assert error.queue == "timing"
        assert error.depth == machine.config.timing_queue_depth
        assert error.occupancy >= 0

    def test_ladder_and_recovery(self):
        setup = make_setup()
        assembled = setup.assemble_text(ACTIVE_RESET)
        setup.machine.arm_faults(
            FaultPlan([FaultSpec("timing_overflow", shot=0)]))
        traces = setup.run_resilient(assembled, 10)
        assert len(traces) == 10
        setup.machine.disarm_faults()
        assert len(setup.run_resilient(assembled, 10)) == 10


class TestTreeBitflipFault:
    def test_audit_detects_and_recovers(self):
        machine = make_machine(audit_fraction=1.0, seed=3)
        machine.run(50)  # grow + cache the tree
        machine.arm_faults(FaultPlan([FaultSpec("tree_bitflip")],
                                     seed=9))
        traces = machine.run(120)
        stats = machine.engine_stats
        # The sweep never crashes; the corruption is detected by the
        # shadow audit, reported, and the tree evicted from the
        # cross-run cache.
        assert len(traces) == 120
        assert stats.audit_divergences >= 1
        assert stats.last_audit is not None
        assert stats.last_audit.tree_evicted
        assert stats.last_audit.mismatched_fields
        assert stats.degradations
        assert any("tree_bitflip" in fault
                   for fault in stats.faults_injected)
        assert not machine._tree_cache
        # Clean recovery: disarm, re-run, audits all pass.
        machine.disarm_faults()
        machine.run(50)
        assert machine.engine_stats.audit_divergences == 0

    def test_unaudited_bitflip_still_evicts_cache(self):
        # Without auditing the corruption cannot be *detected*, but the
        # end-of-run hygiene still drops the tampered tree so it cannot
        # leak into later runs.
        machine = make_machine(seed=3)
        machine.run(50)
        machine.arm_faults(FaultPlan([FaultSpec("tree_bitflip")],
                                     seed=9))
        machine.run(20)
        assert not machine._tree_cache


class TestMockExhaustFault:
    def test_run_falls_through_to_plant_and_recovers(self):
        machine = make_machine()
        machine.measurement_unit.inject_mock_results(2, [1] * 6)
        machine.arm_faults(FaultPlan([FaultSpec("mock_exhaust",
                                                shot=1)]))
        traces = machine.run(6, use_replay=False)
        assert len(traces) == 6
        stats = machine.engine_stats
        assert any("mock_exhaust" in fault
                   for fault in stats.faults_injected)
        # The queue was wiped mid-run: everything queued is gone and
        # later measurements sampled the real plant.
        assert machine.measurement_unit.remaining_mock_results(2) == 0
        # Recovery: re-injection works and drains normally.
        machine.disarm_faults()
        machine.measurement_unit.inject_mock_results(2, [0, 1])
        machine.run(1, use_replay=False)
        assert machine.measurement_unit.remaining_mock_results(2) == 0


class TestAdmissionControl:
    def test_dense_request_past_budget_fails_fast(self):
        from repro.core.isa import rotated_surface_instantiation
        isa = rotated_surface_instantiation(3)
        plant = QuantumPlant(isa.topology,
                             noise=NoiseModel.noiseless(),
                             rng=np.random.default_rng(0))
        with pytest.raises(ResourceError) as info:
            plant.check_admission("dense")
        error = info.value
        assert error.requested_bytes == 16 * 4 ** 17
        assert error.limit_bytes == plant.memory_limit_bytes
        assert error.num_qubits == 17
        assert "stabilizer" in error.suggestion

    def test_surface17_dense_pin_raises_with_hint(self):
        from repro.experiments.surface_code import \
            run_rotated_surface_experiment
        with pytest.raises(ResourceError) as info:
            run_rotated_surface_experiment(3, rounds=1, shots=1,
                                           plant_backend="dense")
        assert "plant_backend='stabilizer'" in info.value.suggestion

    def test_ladder_degrades_resource_error_to_stabilizer(self):
        from repro.core.isa import rotated_surface_instantiation
        setup = ExperimentSetup.create(
            isa=rotated_surface_instantiation(3),
            noise=NoiseModel.noiseless(), seed=1,
            plant_backend="dense")
        assembled = setup.assemble_text("""
SMIS S0, {0}
X S0
MEASZ S0
QWAIT 50
STOP
""")
        traces = setup.run_resilient(assembled, 5)
        assert len(traces) == 5
        assert setup.last_plant_backend == "stabilizer"
        assert any("stabilizer" in step for step in
                   setup.last_engine_stats.degradations)
        # The caller's configured pin is restored afterwards.
        assert setup.machine.plant_backend_policy == "dense"


class TestShotTimeBudget:
    def test_watchdog_fires_with_context(self):
        machine = make_machine(
            config=UarchConfig(shot_time_budget_ns=40.0))
        with pytest.raises(ShotTimeoutError) as info:
            machine.run_shot()
        error = info.value
        assert error.budget_ns == 40.0
        assert error.elapsed_ns > 40.0

    def test_instruction_limit_is_structured(self):
        machine = make_machine()
        with pytest.raises(ShotTimeoutError) as info:
            machine.run_shot(max_instructions=3)
        assert info.value.limit == 3
        # Backward compatible with the old bare RuntimeFault catchers.
        assert isinstance(info.value, RuntimeFault)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            UarchConfig(shot_time_budget_ns=0.0)


def readout_only_noise():
    """Readout flips only: Clifford programs stay on the tableau and
    replay (no per-shot trajectory for the tree to miss)."""
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=0.0,
                                  two_qubit_error=0.0))


AUDIT_SHOTS = 100


def mock_cfc_machine(audit_fraction):
    machine = make_machine(FIG5_PROGRAM, seed=13,
                           audit_fraction=audit_fraction)
    machine.measurement_unit.inject_mock_results(
        2, [i % 2 for i in range(AUDIT_SHOTS)])
    return machine


def rotated_surface_machine(distance, rounds, audit_fraction):
    setup = ExperimentSetup.create(
        isa=rotated_surface_instantiation(distance),
        noise=readout_only_noise(), seed=13,
        audit_fraction=audit_fraction)
    setup.machine.load(setup.compile_circuit(
        rotated_surface_circuit(distance, rounds=rounds)))
    return setup.machine


#: Replayable scenarios: name -> (build(audit_fraction) -> loaded
#: machine, expected plant backend, run_counts calls on one machine).
REPLAY_SCENARIOS = {
    "rabi": (lambda f: make_machine(RABI, seed=13, audit_fraction=f),
             "dense", 1),
    "allxy": (lambda f: make_machine(ALLXY, seed=13, audit_fraction=f),
              "dense", 1),
    "active_reset": (lambda f: make_machine(seed=7, audit_fraction=f),
                     "dense", 1),
    "cfc": (lambda f: make_machine(CFC_TWO_ROUND_PROGRAM, seed=13,
                                   audit_fraction=f), "dense", 1),
    "mock_cfc": (mock_cfc_machine, "dense", 1),
    "dead_store_sweep": (lambda f: make_machine(DEAD_STORE, seed=13,
                                                audit_fraction=f),
                         "dense", 2),
    "looped_surface_code": (lambda f: make_machine(
        looped_surface_code_program(4), seed=13,
        isa=seven_qubit_instantiation(), noise=readout_only_noise(),
        audit_fraction=f), "stabilizer", 1),
    "scratch_spill_reload": (lambda f: make_machine(
        CFC_SCRATCH_PROGRAM, seed=13, audit_fraction=f), "dense", 1),
    "surface17": (lambda f: rotated_surface_machine(3, 2, f),
                  "stabilizer", 1),
    "surface49": (lambda f: rotated_surface_machine(5, 1, f),
                  "stabilizer", 1),
}


class TestReplayAudit:
    @pytest.mark.parametrize("scenario", sorted(REPLAY_SCENARIOS))
    def test_full_audit_is_divergence_free(self, scenario):
        """Every cached shot is shadow-run on the interpreter and
        compared field by field.  The accounting pins what a slow fast
        path looks like: a silent fallback, the wrong plant backend,
        growth shots that add no tree path, or a tree that misses more
        often than it hits.  A sweep's later runs reuse the saturated
        tree with no growth at all."""
        build, backend, runs = REPLAY_SCENARIOS[scenario]
        machine = build(1.0)
        for run in range(runs):
            machine.run_counts(AUDIT_SHOTS)
            stats = machine.engine_stats
            assert stats.engine == "replay", stats.fallback_reason
            assert stats.fallback_reason is None
            assert stats.plant_backend == backend, \
                stats.plant_backend_reason
            assert (stats.replay_audits == stats.segment_cache_hits
                    > stats.interpreter_shots)
            assert stats.audit_divergences == 0
            assert stats.last_audit.mismatched_fields == ()
            if run == 0:
                assert 0 < stats.interpreter_shots == stats.tree_paths
            else:
                assert stats.tree_reused
                assert stats.interpreter_shots == 0

    def test_fractional_audit_cadence(self):
        machine = make_machine(audit_fraction=0.1, seed=7)
        machine.run(300)
        stats = machine.engine_stats
        expected = int(stats.segment_cache_hits * 0.1)
        assert abs(stats.replay_audits - expected) <= 1

    def test_counts_splice_only_audited_shots(self, monkeypatch):
        """``run_counts`` folds cached walks without a trace: only the
        shots the audit shadow-runs are spliced into a ShotTrace."""
        splices = []
        splice = ShotTrace.with_sampled_results

        def counted(template, outcomes):
            splices.append(outcomes)
            return splice(template, outcomes)

        monkeypatch.setattr(ShotTrace, "with_sampled_results", counted)
        machine = make_machine(audit_fraction=0.01, seed=7)
        machine.run_counts(1000)
        stats = machine.engine_stats
        assert stats.replay_audits > 0
        assert len(splices) == stats.replay_audits

    def test_audit_preserves_mock_queue_alignment(self):
        machine = make_machine(audit_fraction=1.0, seed=5)
        machine.measurement_unit.inject_mock_results(
            2, [1, 0] * 20)
        machine.run(10)
        # 2 measurements per shot, 10 shots: exactly 20 consumed
        # whether a shot replayed (view commit) or was shadow-run
        # (natural consumption) — never double-drained.
        assert machine.measurement_unit.remaining_mock_results(2) == 20

    def test_invalid_fraction_rejected(self):
        isa = two_qubit_instantiation()
        plant = QuantumPlant(isa.topology, noise=NoiseModel(),
                             rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            QuMAv2(isa, plant, audit_fraction=1.5)


class TestGuardFaultHierarchy:
    def test_context_attribute_access(self):
        error = GuardFault("boom", qubit=3, depth=7)
        assert error.qubit == 3
        assert error.context == {"qubit": 3, "depth": 7}
        with pytest.raises(AttributeError):
            error.missing_key

    def test_all_guards_are_eqasm_errors(self):
        from repro.core.errors import (
            AdmissionRejectedError,
            JobDeadlineError,
            WorkerPoolError,
        )
        for cls in (ResourceError, ShotTimeoutError, BackendFaultError,
                    QueueOverflowError, JobDeadlineError,
                    AdmissionRejectedError, WorkerPoolError):
            assert issubclass(cls, GuardFault)
            assert issubclass(cls, RuntimeFault)
            assert issubclass(cls, EQASMError)


class TestRetryBackoff:
    """The capped exponential backoff schedule of RetryPolicy."""

    def test_zero_base_never_sleeps(self):
        policy = RetryPolicy()
        assert [policy.delay_for(n) for n in range(1, 6)] == [0.0] * 5

    def test_capped_exponential_growth(self):
        policy = RetryPolicy(max_attempts=8, backoff_s=0.1,
                             backoff_cap_s=0.5, jitter=0.0)
        delays = [policy.delay_for(n) for n in range(1, 8)]
        assert delays[:3] == [0.1, 0.2, 0.4]
        assert all(d == 0.5 for d in delays[3:])  # clamped at the cap

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_s=1.0, backoff_cap_s=100.0,
                             jitter=0.25, seed=42)
        again = RetryPolicy(backoff_s=1.0, backoff_cap_s=100.0,
                            jitter=0.25, seed=42)
        other = RetryPolicy(backoff_s=1.0, backoff_cap_s=100.0,
                            jitter=0.25, seed=43)
        delays = [policy.delay_for(n) for n in range(1, 6)]
        assert delays == [again.delay_for(n) for n in range(1, 6)]
        assert delays != [other.delay_for(n) for n in range(1, 6)]
        for n, delay in enumerate(delays, start=1):
            base = min(1.0 * 2.0 ** (n - 1), 100.0)
            assert base * 0.75 <= delay <= base * 1.25

    def test_jitter_never_exceeds_the_cap(self):
        policy = RetryPolicy(backoff_s=1.0, backoff_cap_s=1.0,
                             jitter=1.0, seed=7)
        assert all(policy.delay_for(n) <= 1.0 for n in range(1, 10))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_cap_s=-1.0)

    def test_ladder_records_per_attempt_delay(self):
        """run_resilient must make the sleep it took visible in the
        structured degradations, not only take it."""
        setup = make_setup()
        assembled = setup.assemble_text(ACTIVE_RESET)
        setup.machine.arm_faults(
            FaultPlan([FaultSpec("timing_overflow", shot=0)]))
        policy = RetryPolicy(backoff_s=0.01, backoff_cap_s=0.02,
                             jitter=0.5, seed=3)
        traces = setup.run_resilient(assembled, 10, policy=policy)
        assert len(traces) == 10
        stats = setup.last_engine_stats
        [rung] = [d for d in stats.degradations if "attempt 1" in d]
        assert "backoff" in rung
        recorded = float(rung.split("backoff ")[1].rstrip("s)"))
        assert abs(recorded - policy.delay_for(1)) < 5e-4

    def test_zero_backoff_ladder_records_no_delay(self):
        setup = make_setup()
        assembled = setup.assemble_text(ACTIVE_RESET)
        setup.machine.arm_faults(
            FaultPlan([FaultSpec("timing_overflow", shot=0)]))
        setup.run_resilient(assembled, 5)
        assert all("backoff" not in d
                   for d in setup.last_engine_stats.degradations)


FRAME_CLIFFORD = """
SMIS S0, {0}
SMIS S2, {2}
SMIS S3, {0, 2}
SMIT T0, {(0, 2)}
QWAIT 10000
H S0
QWAIT 10
CZ T0
QWAIT 10
X90 S2
QWAIT 10
MEASZ S3
QWAIT 50
STOP
"""


def make_frame_machine(seed=0):
    """A frame-eligible machine: Clifford feedback-free program plus
    stochastic Pauli gate noise (the regime that blocks replay and
    selects the Pauli-frame batched engine)."""
    from repro.quantum.noise import DecoherenceModel, GateErrorModel
    isa = two_qubit_instantiation()
    noise = NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=0.03,
                                  two_qubit_error=0.05))
    plant = QuantumPlant(isa.topology, noise=noise,
                         rng=np.random.default_rng(seed))
    machine = QuMAv2(isa, plant)
    machine.load(Assembler(isa).assemble_text(FRAME_CLIFFORD))
    return machine


class TestFrameBatchedChaos:
    """Faults firing *inside* a frame-batched run.

    The frame engine's whole-run state is one reference shot plus its
    recording, so any fault there must degrade the entire run
    gracefully to the per-shot tableau interpreter — every shot still
    delivered, the rung recorded in ``degradations``, the fault in
    ``faults_injected``."""

    def test_clean_frame_run(self):
        machine = make_frame_machine()
        assert not machine.frame_batch_unsupported_reasons()
        traces = machine.run(50)
        stats = machine.engine_stats
        assert machine.last_run_engine == "frame"
        assert stats.engine == "frame"
        assert stats.frame_batched == 50
        assert stats.frame_reference_shots == 1
        assert stats.interpreter_shots == 0
        assert stats.shots_total == 50
        assert len(traces) == 50

    def test_backend_gate_fault_degrades_to_interpreter(self):
        machine = make_frame_machine()
        machine.arm_faults(FaultPlan([FaultSpec("backend_gate",
                                                shot=0)]))
        traces = machine.run(30)
        stats = machine.engine_stats
        # The fault hit the reference shot; the whole run fell back to
        # the per-shot tableau interpreter and still delivered.
        assert len(traces) == 30
        assert machine.last_run_engine == "interpreter"
        assert stats.engine == "interpreter"
        assert stats.frame_batched == 0
        assert stats.interpreter_shots == 30
        assert any(d.startswith("frame -> interpreter")
                   for d in stats.degradations)
        assert any("backend_gate" in f for f in stats.faults_injected)
        assert "BackendFaultError" in stats.fallback_reason

    def test_recovery_after_disarm(self):
        machine = make_frame_machine()
        machine.arm_faults(FaultPlan([FaultSpec("backend_gate",
                                                shot=0)]))
        machine.run(10)
        machine.disarm_faults()
        traces = machine.run(20)
        stats = machine.engine_stats
        assert len(traces) == 20
        assert machine.last_run_engine == "frame"
        assert stats.frame_batched == 20
        assert not stats.degradations
        assert not stats.faults_injected

    def test_frame_statistics_match_interpreter_under_no_fault(self):
        """Sanity anchor for the chaos tests: the degraded path and
        the frame path sample the same physics."""
        frame = make_frame_machine(seed=3)
        frame_traces = frame.run(400)
        interp = make_frame_machine(seed=4)
        interp_traces = interp.run(400, use_replay=False)
        rate = lambda traces: sum(
            t.results[-1].reported_result for t in traces) / len(traces)
        assert abs(rate(frame_traces) - rate(interp_traces)) < 0.12
