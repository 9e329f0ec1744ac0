"""Guard suite: the machine's runtime guards, end to end.

Each guard is reached the way a real run reaches it — a program that
deadlocks an ``FMR``, a shot past its time budget, a dense request past
the memory budget — or, for the self-verifying replay audit, by
corrupting the kept replay tree directly (``tree_corruption``), the
one failure no program can produce.  Each proves:

1. **detection** — the failure surfaces as the documented structured
   error (or an in-run degradation recorded in
   ``EngineStats.degradations``) instead of silent corruption;
2. **context** — the error carries its machine-readable context keys;
3. **recovery** — a clean re-run delivers every shot with no
   degradations.

The :class:`~repro.uarch.faults.FaultPlan` schedule itself (armed on
the sweep service, never on the machine) is pinned here too.
"""

import math

import numpy as np
import pytest

from repro.core import (
    Assembler,
    rotated_surface_instantiation,
    seven_qubit_instantiation,
    two_qubit_instantiation,
)
from repro.core.errors import (
    ConfigurationError,
    EQASMError,
    GuardFault,
    ResourceError,
    RuntimeFault,
    ShotTimeoutError,
)
from repro.core.operations import (
    ExecutionFlag,
    OperationKind,
    QuantumOperation,
    default_operation_set,
)
from repro.experiments.cfc import CFC_SCRATCH_PROGRAM, CFC_TWO_ROUND_PROGRAM
from repro.experiments.runner import ExperimentSetup
from repro.experiments.surface_code import looped_surface_code_program
from repro.quantum import NoiseModel, QuantumPlant
from repro.quantum.noise import DecoherenceModel, GateErrorModel
from repro.uarch import (
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    QuMAv2,
    ShotTrace,
    TimelineTree,
    TriggerRecord,
    UarchConfig,
)
from repro.workloads.surface_code import rotated_surface_circuit
from machine_probes import remaining_mock_results
from tree_corruption import corrupt_random_template, kept_terminals

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

#: A conditional measurement cancelled at trigger time (no result has
#: set the LAST_ONE flag yet) still counts toward C_2, so the FMR that
#: follows waits for a result that never comes.
CANCELLED_MEASUREMENT_FMR = """
SMIS S2, {2}
QWAIT 100
C_MEASZ S2
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


class TestFaultPlan:
    """The deterministic schedule itself."""

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("warp_core_breach")

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("worker_crash", count=0)

    def test_shot_pinning_and_budget(self):
        plan = FaultPlan([FaultSpec("worker_crash", shot=2, count=1)])
        plan.begin_shot(0)
        assert not plan.fire("worker_crash")
        plan.begin_shot(2)
        assert plan.fire("worker_crash")
        # Budget consumed: the same site never fires again, at the
        # pinned point or any other.
        assert not plan.fire("worker_crash")
        plan.begin_shot(3)
        assert not plan.fire("worker_crash")

    def test_every_site_is_armable(self):
        plan = FaultPlan([FaultSpec(site) for site in FAULT_SITES])
        for site in FAULT_SITES:
            assert plan.fire(site)


def cancelled_measurement_machine():
    """A two-qubit machine whose operation set adds ``C_MEASZ``, a
    measurement gated on the LAST_ONE flag, loaded with
    :data:`CANCELLED_MEASUREMENT_FMR`."""
    ops = default_operation_set()
    ops.add(QuantumOperation(name="C_MEASZ",
                             kind=OperationKind.MEASUREMENT,
                             duration_cycles=15,
                             condition=ExecutionFlag.LAST_ONE))
    return make_machine(CANCELLED_MEASUREMENT_FMR,
                        isa=two_qubit_instantiation(ops))


class TestFmrDeadlock:
    def test_cancelled_measurement_deadlocks_fmr(self):
        """The CFC counter C_i counts a conditional measurement when it
        is reserved, and fast conditional execution cancels it at
        trigger time, so no result ever decrements C_2: the FMR on Q2
        can never complete, and the guard names qubit and register."""
        for use_replay in (True, False):
            machine = cancelled_measurement_machine()
            with pytest.raises(ShotTimeoutError) as info:
                machine.run(3, use_replay=use_replay)
            error = info.value
            assert error.qubit == 2
            assert error.register == 1
            assert "waits forever" in str(error)


class TestTreeBitflipFault:
    """A corrupted terminal of the kept replay tree (a replay bug no
    program can produce, planted with :mod:`tree_corruption`)."""

    def test_audit_detects_and_recovers(self):
        machine = make_machine(audit_fraction=1.0, seed=3)
        machine.run(50)  # grow + cache the tree
        assert corrupt_random_template(machine._tree,
                                       np.random.default_rng(9))
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
        assert machine._tree is None
        # Clean recovery: the re-run regrows the tree, audits all pass.
        machine.run(50)
        assert machine.engine_stats.audit_divergences == 0

    def test_corruption_shifts_one_trigger_record(self):
        # The tampered copy is built with the record's _replace: same
        # record type, only the two trigger times moved by 1 ns.
        machine = make_machine(seed=3)
        machine.run(50)
        tree = machine._tree
        before = {id(node): node.template for node in kept_terminals(tree)}
        detail = corrupt_random_template(tree, np.random.default_rng(9))
        assert "shifted by 1 ns" in detail
        changed = [(before[id(node)], node.template)
                   for node in kept_terminals(tree)
                   if node.template is not before[id(node)]]
        assert len(changed) == 1
        (old, new), = changed
        diffs = [(a, b) for a, b in zip(old.triggers, new.triggers)
                 if a != b]
        assert len(diffs) == 1
        (a, b), = diffs
        assert type(b) is TriggerRecord
        assert b == a._replace(trigger_ns=a.trigger_ns + 1.0,
                               output_ns=a.output_ns + 1.0)
        assert new.results == old.results


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


class WalkedTerminals:
    """Records every cohort walk's terminal groups (template, size,
    shot indices), in walk order, one list per chunk."""

    def __init__(self, monkeypatch):
        self.chunks = []
        sample_cohort = TimelineTree.sample_cohort

        def recorded(tree, *args, **kwargs):
            batch = sample_cohort(tree, *args, **kwargs)
            self.chunks.append(list(batch.groups))
            return batch

        monkeypatch.setattr(TimelineTree, "sample_cohort", recorded)

    def count(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)


class TestReplayAudit:
    @pytest.mark.parametrize("scenario", sorted(REPLAY_SCENARIOS))
    def test_full_audit_is_divergence_free(self, scenario, monkeypatch):
        """Every terminal each chunk reached is shadow-run on the
        interpreter and compared field by field.  The accounting pins
        what a slow fast path looks like: a silent fallback, the wrong
        plant backend, growth shots that add no tree path, or a tree
        that misses more often than it hits.  A sweep's later runs
        reuse the saturated tree with no growth at all.  The two
        feedback-free scenarios build their terminals from the first
        growth shot's trace: Rabi (one measurement) runs that shot
        alone, AllXY (two simultaneous measurements) also grows its
        depth-one nodes.  Every feedback scenario grows one path per
        interpreter shot."""
        build, backend, runs = REPLAY_SCENARIOS[scenario]
        machine = build(1.0)
        for run in range(runs):
            walked = WalkedTerminals(monkeypatch)
            machine.run_counts(AUDIT_SHOTS)
            stats = machine.engine_stats
            assert stats.engine == "replay", stats.fallback_reason
            assert stats.fallback_reason is None
            assert stats.plant_backend == backend, \
                stats.plant_backend_reason
            assert stats.replay_shots > stats.interpreter_shots
            assert stats.replay_audits == walked.count() > 0
            assert stats.audit_divergences == 0
            assert stats.last_audit.mismatched_fields == ()
            if run == 0 and scenario == "rabi":
                assert stats.interpreter_shots == 1 < stats.tree_paths
            elif run == 0 and scenario == "allxy":
                assert 0 < stats.interpreter_shots < stats.tree_paths
            elif run == 0:
                assert 0 < stats.interpreter_shots == stats.tree_paths
            else:
                assert stats.tree_reused
                assert stats.interpreter_shots == 0

    def test_fractional_audit_cadence(self, monkeypatch):
        """Each cached shot earns ``audit_fraction`` of credit, in walk
        order: a terminal is audited once iff the run's cumulative
        credit crosses an integer on it, and the audit reports the
        terminal's first shot."""
        fraction = 0.1
        walked = WalkedTerminals(monkeypatch)
        machine = make_machine(audit_fraction=fraction, seed=7)
        machine.run(300)
        [terminals] = walked.chunks
        cached, audited = 0, []
        for group in terminals:
            before = math.floor(cached * fraction + 1e-9)
            cached += group.size
            if math.floor(cached * fraction + 1e-9) > before:
                audited.append(int(group.indices[0]))
        stats = machine.engine_stats
        assert 0 < len(audited) < len(terminals)
        assert stats.replay_audits == len(audited)
        assert stats.last_audit.shot_index == audited[-1]
        assert stats.audit_divergences == 0

    @pytest.mark.parametrize("fraction", [0.01, 1.0])
    def test_counts_splice_no_trace(self, fraction, monkeypatch):
        """``run_counts`` folds cached walks without a trace, audited
        runs included: an audit compares its shadow against the
        terminal template itself."""
        splices = []
        splice = ShotTrace.with_sampled_results

        def counted(template, outcomes):
            splices.append(outcomes)
            return splice(template, outcomes)

        monkeypatch.setattr(ShotTrace, "with_sampled_results", counted)
        machine = make_machine(audit_fraction=fraction, seed=7)
        machine.run_counts(1000)
        assert machine.engine_stats.replay_audits > 0
        assert splices == []

    def test_shadow_exception_is_a_divergence(self):
        """A shadow run that raises fails its audit: the undelivered
        chunk is dropped, the tree evicted, and every shot of the run
        comes from the interpreter.  The warm run grows nothing, so its
        first interpreter shot is the audit's shadow; here it fails the
        way an FMR deadlock does."""
        machine = make_machine(CFC_FMR, seed=7, audit_fraction=1.0)
        machine.run_counts(200)
        assert machine.engine_stats.engine == "replay"
        run_shot = machine.run_shot
        shadows = []

        def first_shot_deadlocks():
            if not shadows:
                shadows.append(True)
                raise ShotTimeoutError(
                    "FMR R1, Q2 waits forever: no measurement result "
                    "will ever arrive", qubit=2, register=1)
            return run_shot()

        machine.run_shot = first_shot_deadlocks
        traces = machine.run(50)
        stats = machine.engine_stats
        assert stats.replay_audits == 1
        assert stats.audit_divergences == 1
        assert stats.last_audit.mismatched_fields == ("shadow-exception",)
        assert "ShotTimeoutError" in stats.last_audit.detail
        assert len(traces) == 50
        assert stats.engine == "interpreter"
        assert stats.interpreter_shots == stats.shots_total == 50
        assert stats.replay_shots == 0
        assert machine._tree is None

    def test_audit_preserves_mock_queue_alignment(self):
        machine = make_machine(audit_fraction=1.0, seed=5)
        machine.measurement_unit.inject_mock_results(
            2, [1, 0] * 20)
        machine.run(10)
        # Queued mocks send the audited run to the interpreter: 2
        # measurements per shot, 10 shots, exactly 20 consumed — the
        # audit never shadow-runs a shot and never double-drains.
        assert machine.engine_stats.engine == "interpreter"
        assert machine.engine_stats.replay_audits == 0
        assert remaining_mock_results(machine.measurement_unit, 2) == 20

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
        for cls in (ResourceError, ShotTimeoutError, JobDeadlineError,
                    AdmissionRejectedError, WorkerPoolError):
            assert issubclass(cls, GuardFault)
            assert issubclass(cls, RuntimeFault)
            assert issubclass(cls, EQASMError)


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
    """The frame-batched engine: a clean run, and the physics it
    shares with the interpreter."""

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

    def test_frame_statistics_match_interpreter_under_no_fault(self):
        """Sanity anchor: the interpreter and the frame path sample
        the same physics."""
        frame = make_frame_machine(seed=3)
        frame_traces = frame.run(400)
        interp = make_frame_machine(seed=4)
        interp_traces = interp.run(400, use_replay=False)
        rate = lambda traces: sum(
            t.results[-1].reported_result for t in traces) / len(traces)
        assert abs(rate(frame_traces) - rate(interp_traces)) < 0.12
