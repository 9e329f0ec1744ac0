"""Seeded trace-level pins of the per-shot interpreter.

``tests/uarch/test_engine_routes.py`` pins what each engine route
delivers as ``ShotCounts``; this module pins the interpreter itself,
field by field.  Each case runs ``run(N, use_replay=False)`` on a fixed
seed and hashes every :class:`~repro.uarch.trace.ShotTrace` field —
every trigger (with its ``executed`` flag and condition), every result,
every slip, the instruction count and the classical time — so a change
to the interpreter's hot path that moves one trigger time, reorders one
plant RNG draw or drops one cancelled micro-operation changes the
digest.

The cases cover both plant backends and both tableau layouts: active
reset on the two-qubit dense plant, surface-17 feedback under Pauli gate
noise (a one-word tableau column), a surface-49 round with X checks (a
multi-word column, random outcomes included) and a slip-policy program
whose reserve phase falls behind its timeline.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core import (
    Assembler,
    rotated_surface_instantiation,
    seven_qubit_instantiation,
    two_qubit_instantiation,
)
from repro.experiments.reset import FIG4_PROGRAM as ACTIVE_RESET
from repro.experiments.runner import ExperimentSetup
from repro.quantum import NoiseModel, QuantumPlant
from repro.quantum.noise import DecoherenceModel, GateErrorModel
from repro.uarch import QuMAv2, slip_config
from repro.workloads.rotated_surface import rotated_surface_circuit

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
    """The surface workloads' regime: stochastic Pauli gate noise,
    negligible idle decoherence, default readout error."""
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=1e-3,
                                  two_qubit_error=5e-3))


def active_reset():
    isa = two_qubit_instantiation()
    plant = QuantumPlant(isa.topology, noise=NoiseModel(),
                         rng=np.random.default_rng(201))
    machine = QuMAv2(isa, plant)
    machine.load(Assembler(isa).assemble_text(ACTIVE_RESET))
    return machine, 40


def rotated_surface(distance, rounds, include_x_checks, seed, shots):
    def build():
        setup = ExperimentSetup.create(
            isa=rotated_surface_instantiation(distance),
            noise=pauli_noise(), seed=seed)
        setup.machine.load(setup.compile_circuit(rotated_surface_circuit(
            distance, rounds=rounds, reset=True,
            include_x_checks=include_x_checks)))
        return setup.machine, shots
    return build


def slipping():
    isa = seven_qubit_instantiation()
    plant = QuantumPlant(isa.topology, noise=NoiseModel(),
                         rng=np.random.default_rng(204))
    machine = QuMAv2(isa, plant, config=slip_config())
    machine.load(Assembler(isa).assemble_text(SLIPPING))
    return machine, 6


#: case -> (machine builder, expected plant backend, SHA-256 of the
#: traces), captured before the interpreter's decode and event caches.
CASES = {
    "active-reset-dense": (
        active_reset, "dense",
        "259ed5c45d6a576aa8deac226d6c303a69b671e808be4651da6bec0489243111"),
    "surface17-feedback-tableau": (
        rotated_surface(3, rounds=2, include_x_checks=False, seed=202,
                        shots=20), "stabilizer",
        "ed8e2270c90939897f5c977c7b38db58f5e3e77e6e8dd92a7d3083d3ada7aae4"),
    "surface49-multiword-tableau": (
        rotated_surface(5, rounds=1, include_x_checks=True, seed=203,
                        shots=3), "stabilizer",
        "e7e43923816b0b48ca368b686b41ea1e5867e00c88fe0fe3a85328424a12f4ba"),
    "slip-policy": (
        slipping, "dense",
        "ae2c6e9022c3d881467b01620e311670068dc2cea87471b5346bcd898af541d0"),
}


def trace_digest(traces) -> str:
    """SHA-256 over every field of every trace, floats by ``repr``."""
    payload = [[[dataclasses.astuple(record) for record in trace.triggers],
                [dataclasses.astuple(record) for record in trace.results],
                [dataclasses.astuple(record) for record in trace.slips],
                trace.instructions_executed,
                repr(trace.classical_time_ns),
                trace.stop_reached]
               for trace in traces]
    return hashlib.sha256(json.dumps(
        payload, default=repr).encode()).hexdigest()


@pytest.mark.parametrize("case", list(CASES))
def test_interpreter_traces_are_pinned(case):
    build, backend, expected = CASES[case]
    machine, shots = build()
    traces = machine.run(shots, use_replay=False)
    assert machine.last_run_engine == "interpreter"
    assert machine.last_plant_backend == backend
    if case == "slip-policy":
        assert all(trace.slips for trace in traces)
    assert trace_digest(traces) == expected
