"""Property-based cross-check: the microarchitecture against the
architectural timeline model.

The reserve-phase semantics (Section 3.1) are defined once in
:mod:`repro.core.timeline`; the machine implements them with pipelines
and queues.  For random compiled programs, every operation the plant
records must start exactly at the cycle the architectural model
predicts (relative to the first operation), with the same qubits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import Circuit, EQASMCodeGenerator, schedule_asap
from repro.core import (
    Assembler,
    build_timeline,
    seven_qubit_instantiation,
)
from repro.quantum import NoiseModel, QuantumPlant
from repro.uarch import QuMAv2
from shot_recording import recorded_shot

_ISA = seven_qubit_instantiation()
_SINGLE_NAMES = ("I", "X", "Y", "X90", "Y90", "XM90", "YM90", "H")
_PAIRS = tuple(pair.as_tuple() for pair in _ISA.topology.pairs)


@st.composite
def random_circuits(draw):
    """Random 7-qubit circuits over the configured operation set."""
    length = draw(st.integers(min_value=1, max_value=25))
    circuit = Circuit("random", 7)
    for _ in range(length):
        if draw(st.booleans()):
            name = draw(st.sampled_from(_SINGLE_NAMES))
            qubit = draw(st.integers(0, 6))
            circuit.add(name, qubit)
        else:
            source, target = draw(st.sampled_from(_PAIRS))
            circuit.add("CZ", source, target)
    return circuit


def run_on_machine(program):
    assembled = Assembler(_ISA).assemble_program(program)
    plant = QuantumPlant(_ISA.topology, noise=NoiseModel.noiseless(),
                         rng=np.random.default_rng(0))
    machine = QuMAv2(_ISA, plant)
    machine.load(assembled)
    return recorded_shot(machine)[1]


class TestTimelineCrossCheck:
    @given(random_circuits())
    @settings(max_examples=30, deadline=None)
    def test_plant_times_match_architectural_model(self, circuit):
        schedule = schedule_asap(circuit, _ISA.operations)
        program = EQASMCodeGenerator(_ISA).generate(
            schedule, initialize_cycles=100, emit_stop=True)
        # Architectural prediction.
        timeline = build_timeline(_ISA, program.instructions)
        predicted = []
        for cycle, op in timeline.all_operations():
            if op.pairs:
                for pair in op.pairs:
                    predicted.append((cycle, op.name, tuple(pair)))
            else:
                for qubit in op.qubits:
                    predicted.append((cycle, op.name, (qubit,)))
        predicted.sort()
        # Machine execution.
        log = run_on_machine(program)
        base_cycle = min(cycle for cycle, _, _ in predicted)
        base_ns = min(op.start_ns for op in log)
        observed = sorted(
            (round((op.start_ns - base_ns) / 20.0) + base_cycle,
             op.name, op.qubits)
            for op in log)
        assert observed == predicted

    @given(random_circuits())
    @settings(max_examples=20, deadline=None)
    def test_machine_preserves_unitary_semantics(self, circuit):
        """The noiseless machine must act as the ideal circuit unitary."""
        from quantum_oracle import zero_state
        from repro.quantum import gates
        from repro.quantum.tomography import state_fidelity
        schedule = schedule_asap(circuit, _ISA.operations)
        program = EQASMCodeGenerator(_ISA).generate(
            schedule, initialize_cycles=50, emit_stop=True)
        assembled = Assembler(_ISA).assemble_program(program)
        plant = QuantumPlant(_ISA.topology,
                             noise=NoiseModel.noiseless(),
                             rng=np.random.default_rng(0))
        machine = QuMAv2(_ISA, plant)
        machine.load(assembled)
        machine.run_shot()
        reference = zero_state(7)
        for op in circuit:
            reference.apply_gate(gates.gate_matrix(op.name), op.qubits)
        fidelity = state_fidelity(plant.density_matrix(),
                                  reference.amplitudes)
        assert fidelity == pytest.approx(1.0, abs=1e-8)
