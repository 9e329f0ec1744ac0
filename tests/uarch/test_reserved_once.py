"""An interpreter run reserves once.

Without ``FMR`` no measurement outcome reaches the reserve phase: a
conditional micro-op decides only ``executed`` at trigger time and
never moves a timing point.  So a multi-shot interpreter run of such a
binary runs the classical pipeline, decode, scheduling and event heap
for its first shot only, and re-runs that shot's trigger-phase stream
against the live plant for every later shot
(``QuMAv2._interpreter_shots``).  These tests pin that the re-run is
bit-identical to the per-shot pipeline (``use_replay=False``) — every
trace field and the plant's RNG state after the run — that it decodes
one shot's bundles only, and that every binary the rule excludes
(``FMR``, a conditional measurement, a live ``LD``/``ST``) still
decodes every shot.
"""

import numpy as np
import pytest

from repro.core import (
    Assembler,
    default_operation_set,
    seven_qubit_instantiation,
    two_qubit_instantiation,
)
from repro.core.isa import seventeen_qubit_instantiation
from repro.core.operations import (
    ExecutionFlag,
    OperationKind,
    QuantumOperation,
)
from repro.experiments.reset import FIG4_PROGRAM
from repro.experiments.runner import ExperimentSetup
from repro.quantum import NoiseModel, QuantumPlant, gates
from repro.quantum.noise import DecoherenceModel, GateErrorModel
from repro.uarch import QuMAv2, slip_config
from repro.uarch.quantum_pipeline import QuantumPipeline
from repro.uarch.trace import ShotCounts
from repro.workloads.surface17 import surface17_circuit

SHOTS = 12

#: Every field of a trace; a scheduled shot must match the pipeline on
#: each.
FIELDS = ("triggers", "results", "slips", "instructions_executed",
          "classical_time_ns", "stop_reached")

#: Active reset read back through FMR: the outcome reaches the classical
#: pipeline, so every shot must reserve afresh.
FMR_RESET = """
SMIS S2, {2}
QWAIT 10000
X90 S2
MEASZ S2
QWAIT 50
C_X S2
MEASZ S2
QWAIT 50
FMR R1, Q2
STOP
"""

#: Fig. 4 behind a C_X that no result of its own shot conditions: it
#: is cancelled on every shot, whatever the previous shot measured.
EARLY_CONDITIONAL = """
SMIS S2, {2}
QWAIT 10000
C_X S2
X90 S2
MEASZ S2
QWAIT 50
C_X S2
MEASZ S2
STOP
"""

#: A conditional CNOT after both qubits' first readout: its source
#: half is released by qubit 0's flag and its target half by qubit 2's,
#: so the pair applies only on shots that read both as 1.
CONDITIONAL_PAIR = """
SMIS S0, {0}
SMIS S2, {2}
SMIS S3, {0, 2}
SMIT T0, {(0, 2)}
QWAIT 10000
X90 S3
MEASZ S3
QWAIT 50
C_CNOT T0
QWAIT 10
MEASZ S3
STOP
"""

#: A conditional measurement after a first readout.
CONDITIONAL_MEASUREMENT = """
SMIS S2, {2}
QWAIT 10000
X90 S2
MEASZ S2
QWAIT 50
C_MEASZ S2
QWAIT 50
MEASZ S2
STOP
"""

#: A shot counter in data memory: each shot loads what the previous
#: one stored, a live load the dataflow pass must refuse.
SHOT_COUNTER = """
SMIS S2, {2}
LDI R0, 0
LDI R1, 1
LD R2, R0(0)
ADD R2, R2, R1
ST R2, R0(0)
QWAIT 10000
X90 S2
MEASZ S2
QWAIT 50
C_X S2
MEASZ S2
STOP
"""

#: Four bundle words per 20 ns timing point cannot keep up at 10 ns
#: per instruction: every point after the first is reserved late.
SLIPPING = """
SMIS S0, {0}
SMIS S1, {1}
SMIS S2, {2}
SMIS S3, {3}
SMIS S7, {0, 1, 2, 3}
QWAIT 10000
X90 S0
0, X S1
0, Y S2
0, X90 S3
1, Y S0
0, Y90 S1
0, X S2
0, Y S3
1, MEASZ S7
QWAIT 50
STOP
"""


def pauli_noise() -> NoiseModel:
    """Stochastic Pauli gate noise on the tableau: conditional gates
    keep such runs on the interpreter."""
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=0.02,
                                  two_qubit_error=0.05))


def two_qubit_machine(text, seed, operations=None):
    isa = two_qubit_instantiation(operations)
    plant = QuantumPlant(isa.topology, noise=pauli_noise(),
                         rng=np.random.default_rng(seed))
    machine = QuMAv2(isa, plant)
    machine.load(Assembler(isa).assemble_text(text))
    return machine


def conditional_pair_operations():
    operations = default_operation_set()
    operations.add(QuantumOperation(name="C_CNOT",
                                    kind=OperationKind.TWO_QUBIT,
                                    duration_cycles=2, unitary=gates.CNOT,
                                    condition=ExecutionFlag.LAST_ONE))
    return operations


def conditional_pair(seed):
    return two_qubit_machine(CONDITIONAL_PAIR, seed,
                             conditional_pair_operations())


def conditional_measurement_operations():
    operations = default_operation_set()
    operations.add(QuantumOperation(name="C_MEASZ",
                                    kind=OperationKind.MEASUREMENT,
                                    duration_cycles=15,
                                    condition=ExecutionFlag.LAST_ONE))
    return operations


def fig4(seed):
    return two_qubit_machine(FIG4_PROGRAM, seed)


def surface17(seed, rounds=1):
    setup = ExperimentSetup.create(isa=seventeen_qubit_instantiation(),
                                   noise=pauli_noise(), seed=seed)
    setup.machine.load(setup.compile_circuit(
        surface17_circuit(rounds=rounds, reset=True)))
    return setup.machine


def slipping(seed):
    """The slip-policy program on the seven-qubit dense plant; a queued
    mock on qubit 0 keeps the run off the replay tree."""
    isa = seven_qubit_instantiation()
    plant = QuantumPlant(isa.topology, noise=NoiseModel(),
                         rng=np.random.default_rng(seed))
    machine = QuMAv2(isa, plant, config=slip_config())
    machine.load(Assembler(isa).assemble_text(SLIPPING))
    machine.measurement_unit.inject_mock_results(0, [1, 0] * SHOTS)
    return machine


@pytest.fixture
def bundles(monkeypatch):
    """Counts :meth:`QuantumPipeline.process_bundle` calls."""
    calls = []
    process_bundle = QuantumPipeline.process_bundle

    def counted(self, *args, **kwargs):
        calls.append(None)
        return process_bundle(self, *args, **kwargs)

    monkeypatch.setattr(QuantumPipeline, "process_bundle", counted)
    return calls


def run_counted(build, seed, bundles, shots=SHOTS, use_replay=True):
    machine = build(seed)
    bundles.clear()
    traces = machine.run(shots, use_replay=use_replay)
    return machine, traces, len(bundles)


def one_shot_bundles(build, seed, bundles):
    """Bundles one shot decodes (a one-shot run records no stream)."""
    machine = build(seed)
    bundles.clear()
    machine.run(1)
    return len(bundles)


def assert_bit_identical(machine, traces, reference, reference_traces):
    assert len(traces) == len(reference_traces)
    for trace, expected in zip(traces, reference_traces):
        for name in FIELDS:
            assert getattr(trace, name) == getattr(expected, name), name
    assert machine.plant.rng.bit_generator.state == \
        reference.plant.rng.bit_generator.state


ELIGIBLE = {
    "surface17": surface17,
    "fig4": fig4,
    "early-conditional": lambda seed: two_qubit_machine(EARLY_CONDITIONAL,
                                                        seed),
    "slipping": slipping,
    "conditional-pair": conditional_pair,
}


@pytest.mark.parametrize("case", list(ELIGIBLE))
def test_scheduled_shots_equal_the_pipeline(case, bundles):
    """``run(n)`` equals ``run(n, use_replay=False)`` bit for bit, and
    decodes one shot's bundles only."""
    build = ELIGIBLE[case]
    per_shot = one_shot_bundles(build, 5, bundles)
    assert per_shot > 0
    machine, traces, decoded = run_counted(build, 5, bundles)
    reference, reference_traces, reference_decoded = run_counted(
        build, 5, bundles, use_replay=False)
    assert machine.last_run_engine == "interpreter"
    assert machine.engine_stats.interpreter_shots == SHOTS
    assert machine._binary_verdict().reserves_once
    assert_bit_identical(machine, traces, reference, reference_traces)
    assert decoded == per_shot
    assert reference_decoded == SHOTS * per_shot
    # Each trace owns its lists.
    for name in ("triggers", "results", "slips"):
        assert len({id(getattr(trace, name)) for trace in traces}) == SHOTS


def test_conditional_gates_are_live(bundles):
    """The re-run tests each execution flag on the shot's own results:
    over a run, C_X both executes and is cancelled."""
    machine, traces, _ = run_counted(fig4, 2, bundles, shots=40)
    executed = {trigger.executed for trace in traces
                for trigger in trace.triggers if trigger.name == "C_X"}
    assert executed == {True, False}


def test_conditional_pair_halves_are_live(bundles):
    """Each half of the conditional pair tests its own qubit's flag:
    over a run the pair applies on some shots (both halves released)
    and not on others (one or neither)."""
    machine, traces, _ = run_counted(conditional_pair, 2, bundles,
                                     shots=40)
    released = {sum(trigger.executed for trigger in trace.triggers
                    if trigger.name == "C_CNOT") for trace in traces}
    assert released == {0, 1, 2}


def test_run_counts_equal_the_pipeline_fold(bundles):
    """``run_counts(n)`` on two surface-17 rounds with reset (the
    interpreter-bound benchmark circuit) reserves once and equals the
    fold of the same-seed per-shot pipeline's traces."""
    def build(seed):
        return surface17(seed, rounds=2)

    per_shot = one_shot_bundles(build, 3, bundles)
    machine = build(3)
    bundles.clear()
    counts = machine.run_counts(SHOTS)
    assert machine.last_run_engine == "interpreter"
    assert len(bundles) == per_shot
    expected = ShotCounts()
    for trace in build(3).run(SHOTS, use_replay=False):
        expected.add(trace)
    assert counts.as_dict() == expected.as_dict()


def test_slips_are_kept(bundles):
    machine, traces, _ = run_counted(slipping, 5, bundles)
    assert all(trace.slips for trace in traces)
    assert [trace.last_result(0) for trace in traces] == [1, 0] * (SHOTS // 2)


def test_direct_shots_run_the_pipeline(bundles):
    """``run_shot()`` called directly, after a run or between two of
    its shots, decodes its shot."""
    per_shot = one_shot_bundles(fig4, 5, bundles)
    machine = fig4(5)
    machine.run(3)
    bundles.clear()
    machine.run_shot()
    assert len(bundles) == per_shot
    shots = machine.run_iter(3)
    next(shots)
    next(shots)
    bundles.clear()
    machine.run_shot()
    assert len(bundles) == per_shot
    shots.close()


INELIGIBLE = {
    "fmr": lambda seed: two_qubit_machine(FMR_RESET, seed),
    "conditional-measurement": lambda seed: two_qubit_machine(
        CONDITIONAL_MEASUREMENT, seed,
        conditional_measurement_operations()),
    "live-load-store": lambda seed: two_qubit_machine(SHOT_COUNTER, seed),
}


@pytest.mark.parametrize("case", list(INELIGIBLE))
def test_excluded_binaries_decode_every_shot(case, bundles):
    build = INELIGIBLE[case]
    per_shot = one_shot_bundles(build, 5, bundles)
    machine, traces, decoded = run_counted(build, 5, bundles)
    reference, reference_traces, _ = run_counted(
        build, 5, bundles, use_replay=False)
    assert machine.last_run_engine == "interpreter"
    assert not machine._binary_verdict().reserves_once
    assert decoded == SHOTS * per_shot
    assert_bit_identical(machine, traces, reference, reference_traces)
    if case == "live-load-store":
        assert machine.memory.load(0) == SHOTS
