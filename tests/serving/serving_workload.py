"""Shared workload for the serving tests (and the service bench).

The sweep factories reach worker processes by ``fork`` and, for later
sweeps of a drain, pickled by reference, so they live at module level
here.  The workload is the Section 5 Rabi
amplitude scan — cheap per point, distinct counts per point, and it
exercises the replay engine inside every worker.
"""

import math

from repro.core.isa import two_qubit_instantiation
from repro.core.operations import (
    add_rabi_amplitude_operations,
    default_operation_set,
)
from repro.experiments.runner import ExperimentSetup
from repro.quantum.noise import DecoherenceModel, GateErrorModel, NoiseModel
from repro.serving import SweepSpec, execute_point
from repro.workloads.rabi import rabi_step_circuit

#: Upper bound on the X_AMP_<i> steps registered in the setup; sweeps
#: may use any subset of steps below this.
MAX_STEPS = 16


def build_setup() -> ExperimentSetup:
    """The per-worker experiment setup."""
    operations = default_operation_set()
    add_rabi_amplitude_operations(operations, MAX_STEPS,
                                  max_angle=2.0 * math.pi)
    isa = two_qubit_instantiation(operations)
    return ExperimentSetup.create(isa=isa, noise=NoiseModel(), seed=0)


def build_program(setup, params):
    """One Rabi point: X_AMP_<step> then measure."""
    return setup.compile_circuit(
        rabi_step_circuit(params["step"], qubit=2))


def build_frame_setup() -> ExperimentSetup:
    """A setup under Pauli gate noise on the tableau, where
    feedback-free Clifford programs ride the Pauli-frame engine."""
    noise = NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=0.03,
                                  two_qubit_error=0.03))
    return ExperimentSetup.create(isa=two_qubit_instantiation(),
                                  noise=noise, seed=0)


#: One frame-eligible point: ``gate`` on qubit 0, then an entangling CZ
#: and a measurement of both qubits.
FRAME_POINT = """
SMIS S0, {0}
SMIS S3, {0, 2}
SMIT T0, {(0, 2)}
QWAIT 10000
%s S0
QWAIT 10
CZ T0
QWAIT 10
MEASZ S3
QWAIT 50
STOP
"""


def build_frame_program(setup, params):
    return setup.assemble_text(FRAME_POINT % params["gate"])


def build_failing_setup() -> ExperimentSetup:
    """A set-up factory that always fails (deterministically)."""
    raise ValueError("set-up factory failure")


def build_failing_program(setup, params):
    """A program factory with one deterministically poisoned point."""
    if params["step"] < 0:
        raise ValueError(f"poisoned point (step {params['step']})")
    return build_program(setup, params)


def make_spec(name: str, num_points: int = 4, shots: int = 15,
              seed: int = 7,
              program_factory=build_program) -> SweepSpec:
    assert num_points <= MAX_STEPS
    return SweepSpec.from_params(
        name=name, shots=shots, seed=seed,
        params=[{"step": step} for step in range(num_points)],
        setup_factory=build_setup,
        program_factory=program_factory)


def counts_by_index(result):
    """A collected :class:`~repro.serving.SweepResult`'s counts, keyed
    by point index in index order."""
    return {index: point.counts
            for index, point in sorted(result.results.items())}


def run_points_inline(setup, spec, indices=None):
    """Execute sweep points in-process (no worker pool) — the
    reference a crash-recovered distributed run must match bit for
    bit."""
    if indices is None:
        indices = range(spec.num_points)
    return {index: execute_point(setup, spec, spec.point(index))[0]
            for index in indices}
