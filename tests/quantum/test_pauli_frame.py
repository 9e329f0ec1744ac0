"""The Pauli-frame fault table against the unpacked walk it replaced.

``propagate_frames`` walks no steps: the recording's fault table, built
once by one walk over Python-int bit columns, says which raw
measurement rows every elementary fault (one plane bit of one noise
site) and every random measurement's coin flips, and a batch draws its
hits and coins and XORs their rows into the packed outcomes.
``reference_propagate`` below is a verbatim port of the ``(shots, n)``
uint8 propagation the packed frames once replaced (a 16-entry table
gather per gate, one uniform per shot per noise site, one fair
outcome per shot per random measurement), with only its gate branch
lifted into ``reference_gate``.  Pinned here:

* every Clifford action is GF(2)-linear — ``bits[v]`` is the XOR of
  ``bits[1 << i]`` over the set bits of ``v`` — and the XOR program
  derived from it reproduces the whole table;
* the int-column gate step the table build runs equals the table
  gather on random frames, for every gate of the surface-17 recording
  and of a small frame-eligible program;
* exact identity: with the faults and coins forced, the table's raw
  outcomes equal the reference walk's bit for bit — every single
  elementary fault of the surface-17 (2 and 17 rounds),
  frame-clifford, GHZ and deterministic-ones recordings, and random
  multi-fault and coin assignments;
* at 100k+ shots the joint outcome histograms of the batch and the
  reference agree by chi-squared, on deterministic and random (pivot)
  measurements, asymmetric readout error and a record wider than one
  64-bit word;
* the recording and its table are immutable and built once: a warm
  frame run builds no table;
* the recording derived from the plant's recording of the reference
  shot equals, step for step and array for array, the one the
  stabilizer backend's recorder hook captured before the derivation
  replaced it (SHA-256 digests of surface-17 at 2 and 17 rounds and of
  ``FRAME_CLIFFORD``);
* padding never leaks into results: with ``p01 = 1`` every shot reads
  one, and ``run_iter`` yields exactly the requested shots, at word and
  chunk boundaries.
* the readout mask (one random byte per cell plus a sparse remainder)
  is exact: its draws at ``p = 0``, ``p = 1``, ``p = k/256`` and ``p <
  1/256``, the ``p01``/``p10`` split on the raw outcome, and at five
  rates over 10^6 cells the rate overall, per row and per bit position,
  adjacent-cell independence and clear padding.
"""

import hashlib
from collections import Counter
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Assembler, two_qubit_instantiation
from repro.core.errors import PlantError
from repro.core.isa import seventeen_qubit_instantiation
from repro.core.operations import default_operation_set
from repro.experiments.runner import ExperimentSetup
from repro.quantum import NoiseModel, QuantumPlant, gates, pauli_frame
from repro.quantum.noise import (
    DecoherenceModel,
    GateErrorModel,
    ReadoutErrorModel,
)
from repro.quantum.pauli_frame import (
    FrameRecording,
    GateStep,
    MeasureStep,
    NoiseStep,
    fault_table,
    pack_shots,
    propagate_frames,
    unpack_shots,
    valid_words,
    words_for,
)
from repro.quantum.stabilizer import (
    CliffordAction,
    StabilizerTableau,
    cached_clifford_action,
    clifford_action_of,
    is_clifford,
    plane_program,
)
from repro.uarch import QuMAv2
from repro.uarch import machine as machine_module
from repro.uarch.machine import _CHUNK_SHOTS
from repro.workloads.surface17 import surface17_circuit

#: Feedback-free Clifford program (frame-batch eligible under Pauli
#: gate noise); q0's measurement is random, so its pivot path runs.
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


# ----------------------------------------------------------------------
# The reference: the (shots, n) uint8 propagation, ported verbatim
# ----------------------------------------------------------------------
def reference_gate(fx, fz, step):
    bits = step.action.bits
    if len(step.indices) == 1:
        a = step.indices[0]
        v = fx[:, a] | (fz[:, a] << 1)
        image = bits[v]
        fx[:, a] = image & 1
        fz[:, a] = (image >> 1) & 1
    else:
        a, b = step.indices
        v = (fx[:, a] | (fz[:, a] << 1) |
             (fx[:, b] << 2) | (fz[:, b] << 3))
        image = bits[v]
        fx[:, a] = image & 1
        fz[:, a] = (image >> 1) & 1
        fx[:, b] = (image >> 2) & 1
        fz[:, b] = (image >> 3) & 1


def reference_readout(raw, rng, readout):
    """One uniform per shot, in shot order, flipping each raw bit with
    its assignment probability."""
    flip_probability = np.where(raw == 0, readout.p01, readout.p10)
    return raw ^ (rng.random(len(raw)) < flip_probability)


def reference_propagate(steps, num_qubits, shots, rng, readout):
    if shots < 1:
        raise PlantError("need at least one shot to propagate")
    fx = np.zeros((shots, num_qubits), dtype=np.uint8)
    fz = np.zeros((shots, num_qubits), dtype=np.uint8)
    raw_columns = []
    reported_columns = []
    for step in steps:
        if isinstance(step, GateStep):
            reference_gate(fx, fz, step)
        elif isinstance(step, NoiseStep):
            k = len(step.indices)
            hit = rng.random(shots) < step.probability
            if not hit.any():
                continue
            v = rng.integers(1, 4 ** k, size=shots).astype(np.uint8)
            v = np.where(hit, v, 0).astype(np.uint8)
            for slot, qubit in enumerate(step.indices):
                fx[:, qubit] ^= (v >> (2 * slot)) & 1
                fz[:, qubit] ^= (v >> (2 * slot + 1)) & 1
        else:  # MeasureStep
            a = step.index
            if step.pivot_x is None:
                raw = (step.reference_raw ^ fx[:, a]).astype(np.uint8)
            else:
                raw = rng.integers(0, 2, size=shots, dtype=np.uint8)
                flip = (raw ^ fx[:, a] ^ step.reference_raw) \
                    .astype(bool)
                if flip.any():
                    fx[flip] ^= step.pivot_x
                    fz[flip] ^= step.pivot_z
            raw_columns.append(raw)
            reported_columns.append(reference_readout(raw, rng, readout))
    if not raw_columns:
        empty = np.zeros((shots, 0), dtype=np.uint8)
        return empty, empty.copy()
    return (np.column_stack(raw_columns),
            np.column_stack(reported_columns))


# ----------------------------------------------------------------------
# Recordings
# ----------------------------------------------------------------------
def pauli_noise(readout=ReadoutErrorModel()) -> NoiseModel:
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        readout=readout,
        gate_error=GateErrorModel(single_qubit_error=1e-3,
                                  two_qubit_error=5e-3))


def frame_clifford_machine(seed=0, readout=ReadoutErrorModel()):
    isa = two_qubit_instantiation()
    plant = QuantumPlant(isa.topology, noise=pauli_noise(readout),
                         rng=np.random.default_rng(seed))
    machine = QuMAv2(isa, plant)
    machine.load(Assembler(isa).assemble_text(FRAME_CLIFFORD))
    return machine


def surface17_machine(seed=0, rounds=2):
    setup = ExperimentSetup.create(isa=seventeen_qubit_instantiation(),
                                   noise=pauli_noise(), seed=seed)
    setup.machine.load(setup.compile_circuit(
        surface17_circuit(rounds=rounds, reset=False)))
    return setup.machine


def machine_recording(machine):
    """The recording the machine's frame engine propagates, and the
    machine's qubit count."""
    seen = []

    def capture(recording, *args, **kwargs):
        seen.append(recording)
        return propagate_frames(recording, *args, **kwargs)

    with mock.patch.object(machine_module, "propagate_frames", capture):
        machine.run_counts(1)
    assert machine.engine_stats.engine == "frame"
    return seen[0], machine.plant.num_qubits


class FrameRecorder:
    """Builds a :class:`FrameRecording` step by step on a tableau, for
    the hand-written recordings below, whose error sites carry their
    own probabilities.

    :meth:`record_gate` and :meth:`record_gate_error` append a Clifford
    and a deferred error site; :meth:`record_measurement` captures the
    pre-collapse structure the batch needs before collapsing the
    tableau exactly as a plain shot would.  :meth:`freeze` turns the
    capture into the :class:`FrameRecording` the batch samples from.
    """

    def __init__(self) -> None:
        self.steps: list[GateStep | NoiseStep | MeasureStep] = []
        self.measure_count = 0

    def freeze(self) -> FrameRecording:
        """The captured steps as an immutable :class:`FrameRecording`,
        with its fault table built once here."""
        steps = tuple(self.steps)
        return FrameRecording(steps, self.measure_count, fault_table(steps))

    def record_gate(self, action: CliffordAction,
                    indices: tuple[int, ...]) -> None:
        self.steps.append(GateStep(action=action, indices=indices))

    def record_gate_error(self, indices: tuple[int, ...],
                          probability: float) -> None:
        self.steps.append(NoiseStep(indices=indices,
                                    probability=probability))

    def record_measurement(self, tableau: StabilizerTableau, index: int,
                           rng: np.random.Generator) -> int:
        """Measure ``index`` on the reference tableau, recording the
        pre-collapse probability and (for random outcomes) the pivot
        stabilizer.  The RNG draw matches
        :meth:`StabilizerTableau.measure` exactly, so the reference
        trajectory is reproducible against a plain noise-free shot."""
        p_one = tableau.probability_one(index)
        if p_one == 0.5:
            pivot = tableau.pivot_stabilizer(index)
            pivot_x, pivot_z = tableau.row_paulis(pivot)
            result = 1 if rng.random() < 0.5 else 0
        else:
            pivot_x = pivot_z = None
            result = int(p_one)
        tableau.collapse(index, result)
        self.steps.append(MeasureStep(
            index=index, p_one=p_one, reference_raw=result,
            pivot_x=pivot_x, pivot_z=pivot_z))
        self.measure_count += 1
        return result


def tableau_recording(num_qubits, program, seed=0):
    """Record ``program`` — ``(gate name, qubits)``, ``("E", qubits,
    p)`` for a depolarizing site, ``("M", (qubit,))`` — on a fresh
    tableau."""
    tableau = StabilizerTableau(num_qubits)
    recorder = FrameRecorder()
    rng = np.random.default_rng(seed)
    for name, qubits, *rest in program:
        if name == "M":
            recorder.record_measurement(tableau, qubits[0], rng)
        elif name == "E":
            recorder.record_gate_error(qubits, rest[0])
        else:
            action = cached_clifford_action(gates.STANDARD_GATES[name])
            tableau.apply(action, qubits)
            recorder.record_gate(action, qubits)
    return recorder.freeze()


#: Surface-17 syndrome rounds whose record is wider than one packed
#: word: the cycle measures four ancillas a round, 68 rows in all.
WIDE_ROUNDS = 17


#: GHZ preparation with mid-circuit random measurements: multi-qubit
#: pivots, outcomes correlated through the frames, strong noise.
GHZ_PROGRAM = [
    ("H", (0,)), ("E", (0,), 0.05),
    ("CNOT", (0, 1)), ("E", (0, 1), 0.08),
    ("CNOT", (1, 2)), ("E", (1, 2), 0.08),
    ("H", (2,)), ("M", (2,)),
    ("M", (0,)), ("M", (1,)),
    ("S", (1,)), ("H", (1,)), ("E", (1,), 0.1),
    ("CZ", (1, 0)), ("H", (0,)), ("M", (0,)), ("M", (1,)),
]


#: Deterministic measurements whose reference outcome is one, and one
#: whose outcome follows an earlier random measurement's coin.
ONES_PROGRAM = [
    ("X", (0,)), ("E", (0,), 0.05),
    ("CNOT", (0, 1)), ("E", (0, 1), 0.08),
    ("M", (0,)), ("M", (1,)),
    ("H", (2,)), ("CNOT", (2, 1)), ("E", (2, 1), 0.08),
    ("M", (2,)), ("M", (1,)),
]


def with_probability(recording, probability):
    """``recording`` with every noise site at ``probability``."""
    steps = tuple(NoiseStep(step.indices, probability)
                  if isinstance(step, NoiseStep) else step
                  for step in recording.steps)
    return FrameRecording(steps, recording.measurements,
                          fault_table(steps))


# ----------------------------------------------------------------------
# Linearity of every Clifford action
# ----------------------------------------------------------------------
def assert_linear(bits):
    bits = [int(b) for b in bits]
    size = len(bits).bit_length() - 1
    for v, image in enumerate(bits):
        assert image == reduce(
            lambda acc, i: acc ^ bits[1 << i],
            [i for i in range(size) if v >> i & 1], 0), (bits, v)


def run_program(program, v):
    """Apply a :func:`plane_program` to the local planes of one frame
    ``v`` (plane ``i`` is bit ``i``)."""
    planes = [(v >> i) & 1 for i in range(4)]
    for d, s in program:
        planes[d] ^= planes[s]
    return sum(bit << i for i, bit in enumerate(planes))


def assert_program_realises(bits):
    program = plane_program(tuple(int(b) for b in bits))
    for v, image in enumerate(bits):
        assert run_program(program, v) == image


def configured_cliffords():
    ops = default_operation_set()
    return [(name, ops.get(name).unitary) for name in ops.names()
            if ops.get(name).unitary is not None
            and is_clifford(ops.get(name).unitary)]


@pytest.mark.parametrize("name,unitary", configured_cliffords(),
                         ids=[name for name, _ in configured_cliffords()])
def test_configured_cliffords_are_linear(name, unitary):
    bits = clifford_action_of(unitary).bits
    assert_linear(bits)
    assert_program_realises(bits)


def test_configured_cliffords_cover_the_gate_set():
    names = {name for name, _ in configured_cliffords()}
    assert {"H", "S", "X90", "CZ", "CNOT", "SWAP"} <= names
    assert "T" not in names


def _two_qubit(name):
    eye = np.eye(2, dtype=complex)
    return {"H0": np.kron(gates.H, eye), "H1": np.kron(eye, gates.H),
            "S0": np.kron(gates.S, eye), "S1": np.kron(eye, gates.S),
            "CZ": gates.CZ, "CNOT01": gates.CNOT,
            "CNOT10": gates.SWAP @ gates.CNOT @ gates.SWAP}[name]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), two=st.booleans())
def test_products_of_cliffords_are_linear(data, two):
    """Products of H/S (one qubit) or H/S/CZ/CNOT (two qubits)."""
    if two:
        names = data.draw(st.lists(st.sampled_from(
            ["H0", "H1", "S0", "S1", "CZ", "CNOT01", "CNOT10"]),
            min_size=1, max_size=10))
        unitary = reduce(lambda acc, name: _two_qubit(name) @ acc,
                         names, np.eye(4, dtype=complex))
    else:
        names = data.draw(st.lists(st.sampled_from(["H", "S"]),
                                   min_size=1, max_size=10))
        unitary = reduce(lambda acc, name: gates.STANDARD_GATES[name]
                         @ acc, names, np.eye(2, dtype=complex))
    action = clifford_action_of(unitary)
    assert action is not None
    assert_linear(action.bits)
    assert_program_realises(action.bits)


def test_nonlinear_table_is_refused():
    table = list(range(4))
    table[3] = 1  # Y -> X while X -> X and Z -> Z: not linear
    with pytest.raises(PlantError):
        plane_program(tuple(table))


# ----------------------------------------------------------------------
# The int-column gate step of the table build, bit for bit
# ----------------------------------------------------------------------
def interleave(fx, fz):
    """``(shots, n)`` X and Z matrices as ``(shots, 2n)`` plane rows."""
    return np.stack((fx, fz), axis=2).reshape(len(fx), -1)


def int_columns(planes):
    """``(shots, rows)`` plane bits as one Python int per plane row,
    bit ``s`` the bit of shot ``s``."""
    return [int.from_bytes(np.packbits(column, bitorder="little")
                           .tobytes(), "little")
            for column in np.asarray(planes, dtype=np.uint8).T]


def recorded_gates():
    cases = []
    for label, machine in (("surface17", surface17_machine()),
                           ("frame-clifford", frame_clifford_machine())):
        recording, num_qubits = machine_recording(machine)
        cases += [pytest.param(step, num_qubits, id=f"{label}-{index}")
                  for index, step in enumerate(recording.steps)
                  if isinstance(step, GateStep)]
    return cases


@pytest.mark.parametrize("step,num_qubits", recorded_gates())
@pytest.mark.parametrize("shots", [1, 64, 200])
def test_packed_gate_equals_table_gather(step, num_qubits, shots):
    """:meth:`GateStep.conjugate` on int columns (the fault-table
    walk) equals the 16-entry table gather, no bit past ``shots``
    set."""
    rng = np.random.default_rng(shots)
    fx = rng.integers(0, 2, size=(shots, num_qubits), dtype=np.uint8)
    fz = rng.integers(0, 2, size=(shots, num_qubits), dtype=np.uint8)
    columns = int_columns(interleave(fx, fz))
    step.conjugate(columns)
    reference_gate(fx, fz, step)
    assert columns == int_columns(interleave(fx, fz))
    assert all(column >> shots == 0 for column in columns)


def test_surface17_recording_shape():
    """The recording the kernel and distribution pins run on: the
    surface-17 cycle's CZs and basis changes, its noise sites and its
    ancilla measurements."""
    recording, num_qubits = machine_recording(surface17_machine())
    kinds = [type(step).__name__ for step in recording.steps]
    assert num_qubits == 17
    assert kinds.count("GateStep") >= 24 and kinds.count("NoiseStep") >= 24
    assert kinds.count("MeasureStep") == recording.measurements == 8


def test_wide_recording_spans_more_than_one_word():
    """The fault table caps no row count: a long surface-17 record's
    late faults flip rows past 64."""
    recording, _ = machine_recording(surface17_machine(rounds=WIDE_ROUNDS))
    assert recording.measurements == recording.faults.measurements == 68
    assert recording.faults.rows.max() >= 64


def test_recording_is_immutable():
    """The machine keeps a recording for its loaded binary and samples
    every later run from it, so nothing in it can be changed in place:
    the value, its step tuple, the step arrays and the fault table's
    arrays."""
    recording = tableau_recording(3, GHZ_PROGRAM)
    assert isinstance(recording.steps, tuple)
    with pytest.raises(AttributeError):
        recording.measurements = 0
    table = recording.faults
    with pytest.raises(AttributeError):
        table.coins = 0
    assert isinstance(table.groups, tuple)
    with pytest.raises(AttributeError):
        table.groups[0].probability = 0.0
    arrays = [array for step in recording.steps
              for array in ((step.rows,) if isinstance(step, NoiseStep)
                            else (step.pivot_x, step.pivot_z,
                                  step.pivot_rows)
                            if isinstance(step, MeasureStep) else ())
              if array is not None]
    arrays += [table.starts, table.rows, table.coin_rows, table.coin_of,
               table.ones]
    assert arrays and all(len(array) for array in arrays)
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] ^= 1


def recording_digests(recording):
    """SHA-256 of a recording's steps (every field and pivot array) and
    of its fault table (every field and array, dtype and shape
    included)."""
    steps = hashlib.sha256()
    for step in recording.steps:
        if isinstance(step, GateStep):
            fields = ("G", step.indices, step.action.bits.tolist(),
                      step.action.sign.tolist(), step.xors)
        elif isinstance(step, NoiseStep):
            fields = ("E", step.indices, step.probability,
                      step.rows.tolist())
        else:
            fields = ("M", step.index, step.p_one, step.reference_raw,
                      *(None if bits is None else bits.tolist()
                        for bits in (step.pivot_x, step.pivot_z,
                                     step.pivot_rows)))
        steps.update(repr(fields).encode())
    steps.update(repr(recording.measurements).encode())
    table = recording.faults
    faults = hashlib.sha256(repr((table.measurements, table.coins,
                                  table.groups)).encode())
    for name in ("starts", "rows", "coin_rows", "coin_of", "ones"):
        array = getattr(table, name)
        faults.update(repr((name, array.dtype.str, array.shape)).encode())
        faults.update(np.ascontiguousarray(array).tobytes())
    return steps.hexdigest(), faults.hexdigest()


#: ``recording_digests`` of the recordings the stabilizer backend's
#: recorder hook captured during the reference shot (seed 0), before the
#: frame recording was derived from the plant's recording instead:
#: ``(steps, measurements, (steps digest, fault-table digest))``.
HOOK_RECORDED_DIGESTS = {
    "surface17": (88, 8, (
        "610d57002e88a2acccaccdb30f3347265dc60db5ebc059362d4a9af3fe5bb8a4",
        "a70adf6d92df69684d809cd07567d7681d7f8f70b7b1d5c91f8e7b35ca034075")),
    "surface17-wide": (748, 68, (
        "e79d5f2e1c39b55c42acc128ee046a4e66c775215bd932bc8cf4c72344dade5b",
        "08b368990b3421a8de793834c52fd785be1092fa323d641c8114a921e9c469dc")),
    "frame-clifford": (8, 2, (
        "bd4653798453cf9334ea171338fe95843ee04b9f2288866cbdb6ce53db5e6ef1",
        "74ce4e424f9c361eadd10c0ff81984dc453dfa04c3fafe92772be03de3a2b165")),
}


@pytest.mark.parametrize("label,machine", [
    pytest.param(label, machine, id=label) for label, machine in (
        ("surface17", surface17_machine),
        ("surface17-wide", lambda: surface17_machine(rounds=WIDE_ROUNDS)),
        ("frame-clifford", frame_clifford_machine))])
def test_derived_recording_equals_the_hook_recorded_one(label, machine):
    """The frame recording derived from the plant's recording of the
    reference shot, with its fault table, is the hook-recorded one."""
    recording, _ = machine_recording(machine())
    assert (len(recording.steps), recording.measurements,
            recording_digests(recording)) == HOOK_RECORDED_DIGESTS[label]


def test_warm_frame_run_builds_no_table():
    """The table is built once, when the reference shot's recording is
    derived; a run that reuses the kept recording builds none."""
    machine = frame_clifford_machine()
    with mock.patch.object(pauli_frame, "fault_table",
                           wraps=pauli_frame.fault_table) as build:
        machine.run_counts(100)
        assert machine.engine_stats.frame_reference_shots == 1
        assert build.call_count == 1
        machine.run_counts(100)
        assert machine.engine_stats.tree_reused
        assert build.call_count == 1


def test_pack_round_trip_keeps_padding_clear():
    rng = np.random.default_rng(3)
    for shots in (1, 63, 64, 65, 130):
        bits = rng.integers(0, 2, size=(shots, 5), dtype=np.uint8)
        planes = pack_shots(bits)
        assert planes.shape == (5, words_for(shots))
        assert np.array_equal(unpack_shots(planes, shots), bits)
        tail = np.unpackbits(planes.view(np.uint8), axis=1,
                             bitorder="little")[:, shots:]
        assert not tail.any()


# ----------------------------------------------------------------------
# The fault table against the reference walk, bit for bit
# ----------------------------------------------------------------------
class ScriptedRng:
    """Stands in for the generator ``reference_propagate`` draws from,
    returning forced draws in call order."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self, size):
        return next(self.draws)

    def integers(self, low, high, size, dtype=None):
        return next(self.draws)


def forced_reference_raw(recording, num_qubits, hit, paulis, outcomes):
    """The reference walk's raw outcomes with every draw forced: noise
    site ``i`` hits the shots ``hit[i]`` with Paulis ``paulis[i]``,
    random measurement ``c`` reports ``outcomes[c]``, and no readout
    error flips anything."""
    shots = hit.shape[1]
    draws = []
    site = coin = 0
    for step in recording.steps:
        if isinstance(step, NoiseStep):
            draws.append(np.where(hit[site], 0.0, 1.0))
            if hit[site].any():
                draws.append(paulis[site])
            site += 1
        elif isinstance(step, MeasureStep):
            if step.pivot_rows is not None:
                draws.append(outcomes[coin])
                coin += 1
            draws.append(np.ones(shots))          # readout: never flips
    rng = ScriptedRng(draws)
    raw, _ = reference_propagate(recording.steps, num_qubits, shots, rng,
                                 ReadoutErrorModel(p01=0.0, p10=0.0))
    assert next(rng.draws, None) is None
    return raw


def forced_table_raw(recording, hit, paulis, outcomes):
    """The fault table's raw outcomes under the same forced faults.
    The table's coins are ``f = o ^ x_a ^ reference``: coin ``c`` is
    solved from the forced outcome ``o`` and its row's value with
    coins ``c`` and later unset (a coin flips only its own row and
    later ones)."""
    table = recording.faults
    shots = hit.shape[1]
    slot = {position: (group, index) for group in table.groups
            for index, position in enumerate(group.sites)}
    noise = [position for position, step in enumerate(recording.steps)
             if isinstance(step, NoiseStep)]
    keys, hit_shots = [], []
    for site, position in enumerate(noise):
        group, index = slot[position]
        shot = np.flatnonzero(hit[site])
        keys.append(group.first + index * group.paulis
                    + paulis[site][shot].astype(np.int64) - 1)
        hit_shots.append(shot)
    keys, hit_shots = np.concatenate(keys), np.concatenate(hit_shots)
    measures = [step for step in recording.steps
                if isinstance(step, MeasureStep)]
    coin_rows = [row for row, step in enumerate(measures)
                 if step.pivot_rows is not None]
    assert len(coin_rows) == table.coins
    valid = valid_words(shots)
    coins = np.zeros((table.coins, len(valid)), dtype=np.uint64)
    for coin, row in enumerate(coin_rows):
        raw = table.outcomes(keys, hit_shots, coins, valid)
        coins[coin] = pack_shots(outcomes[coin][:, None])[0] ^ raw[row]
    raw = table.outcomes(keys, hit_shots, coins, valid)
    tail = np.unpackbits(raw.view(np.uint8), axis=1,
                         bitorder="little")[:, shots:]
    assert not tail.any()
    return unpack_shots(raw, shots)


def identity_recordings():
    return [
        pytest.param(*machine_recording(surface17_machine()),
                     id="surface17"),
        pytest.param(*machine_recording(frame_clifford_machine()),
                     id="frame-clifford"),
        pytest.param(tableau_recording(3, GHZ_PROGRAM), 3, id="ghz"),
        pytest.param(tableau_recording(3, ONES_PROGRAM), 3, id="ones"),
        pytest.param(*machine_recording(surface17_machine(
            rounds=WIDE_ROUNDS)), id="surface17-wide"),
    ]


def noise_sites(recording):
    return [step for step in recording.steps
            if isinstance(step, NoiseStep)]


@pytest.mark.parametrize("recording,num_qubits", identity_recordings())
def test_every_single_fault_matches_the_reference(recording, num_qubits):
    """Shot 0 is fault-free; every later shot carries exactly one
    elementary fault — one plane bit of one noise site — and the
    random measurements report seeded coins."""
    sites = noise_sites(recording)
    faults = [(site, 1 << bit) for site, step in enumerate(sites)
              for bit in range(len(step.rows))]
    shots = 1 + len(faults)
    hit = np.zeros((len(sites), shots), dtype=bool)
    paulis = np.zeros((len(sites), shots), dtype=np.uint8)
    for shot, (site, pauli) in enumerate(faults, start=1):
        hit[site, shot] = True
        paulis[site, shot] = pauli
    outcomes = np.random.default_rng(11).integers(
        0, 2, size=(recording.faults.coins, shots), dtype=np.uint8)
    assert np.array_equal(
        forced_table_raw(recording, hit, paulis, outcomes),
        forced_reference_raw(recording, num_qubits, hit, paulis,
                             outcomes))


@pytest.mark.parametrize("recording,num_qubits", identity_recordings())
@pytest.mark.parametrize("density", [0.05, 0.4])
def test_random_fault_assignments_match_the_reference(
        recording, num_qubits, density):
    """Random multi-fault shots: each site hit with probability
    ``density`` by a uniform non-identity Pauli, with random coins."""
    rng = np.random.default_rng(int(density * 100))
    sites = noise_sites(recording)
    shots = 300
    hit = rng.random((len(sites), shots)) < density
    paulis = np.array([rng.integers(1, 4 ** len(step.indices), size=shots)
                       for step in sites], dtype=np.uint8)
    outcomes = rng.integers(0, 2, size=(recording.faults.coins, shots),
                            dtype=np.uint8)
    assert np.array_equal(
        forced_table_raw(recording, hit, paulis, outcomes),
        forced_reference_raw(recording, num_qubits, hit, paulis,
                             outcomes))


# ----------------------------------------------------------------------
# Whole recordings, in distribution
# ----------------------------------------------------------------------
def joint_histogram(rows: np.ndarray) -> dict:
    """Shot count per joint outcome, keyed by the packed outcome row
    (a wide record's rows sort too slowly as arrays)."""
    return Counter(map(bytes, np.packbits(rows, axis=1)))


def assert_same_distribution(hist_a: dict, hist_b: dict) -> None:
    keys = sorted(set(hist_a) | set(hist_b))
    table = np.array([[hist_a.get(k, 0) for k in keys],
                      [hist_b.get(k, 0) for k in keys]])
    totals = table.sum(axis=0)
    dense = table[:, totals >= 10]
    pooled = table[:, totals < 10].sum(axis=1, keepdims=True)
    if pooled.sum() > 0:
        dense = np.hstack([dense, pooled])
    assert dense.shape[1] >= 2
    from scipy.stats import chi2_contingency
    _, p_value, _, _ = chi2_contingency(dense)
    assert p_value > 1e-4, \
        f"packed and reference propagation differ (p={p_value})"


def distribution_cases():
    surface17 = machine_recording(surface17_machine())
    frame = machine_recording(frame_clifford_machine())
    return [
        pytest.param(*surface17, ReadoutErrorModel(), id="surface17"),
        pytest.param(with_probability(surface17[0], 0.02), surface17[1],
                     ReadoutErrorModel(p01=0.03, p10=0.2),
                     id="surface17-strong-noise"),
        pytest.param(*frame, ReadoutErrorModel(p01=0.1, p10=0.02),
                     id="frame-clifford"),
        pytest.param(tableau_recording(3, GHZ_PROGRAM), 3,
                     ReadoutErrorModel(p01=0.05, p10=0.15), id="ghz"),
        pytest.param(*machine_recording(surface17_machine(
            rounds=WIDE_ROUNDS)), ReadoutErrorModel(p01=0.01, p10=0.03),
            id="surface17-wide"),
    ]


@pytest.mark.parametrize("recording,num_qubits,readout",
                         distribution_cases())
def test_packed_propagation_matches_reference(recording, num_qubits,
                                              readout):
    shots = 120_000
    raw, reported = propagate_frames(recording, shots,
                                     np.random.default_rng(1), readout)
    ref_raw, ref_reported = reference_propagate(
        recording.steps, num_qubits, shots, np.random.default_rng(2),
        readout)
    measurements = sum(isinstance(step, MeasureStep)
                       for step in recording.steps)
    assert measurements == recording.measurements
    assert raw.shape == reported.shape == (measurements, words_for(shots))
    for packed, reference in ((raw, ref_raw), (reported, ref_reported)):
        assert_same_distribution(
            joint_histogram(unpack_shots(packed, shots)),
            joint_histogram(reference))


def test_random_measurement_pivots_correlate_outcomes():
    """The GHZ recording's second and third measurements repeat the
    first one's random outcome in a noise-free batch: the pivot
    correction carries it through the frames."""
    recording = with_probability(tableau_recording(3, GHZ_PROGRAM), 0.0)
    assert any(step.pivot_rows is not None and len(step.pivot_rows) > 2
               for step in recording.steps if isinstance(step, MeasureStep))
    raw, _ = propagate_frames(recording, 1000, np.random.default_rng(5),
                              ReadoutErrorModel(p01=0.0, p10=0.0))
    bits = unpack_shots(raw, 1000)
    assert 0.4 < bits[:, 1].mean() < 0.6
    assert np.array_equal(bits[:, 1], bits[:, 2])


# ----------------------------------------------------------------------
# Padding never leaks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shots", [1, 63, 64, 65, _CHUNK_SHOTS + 1])
def test_padding_never_reaches_results(shots):
    readout = ReadoutErrorModel(p01=1.0, p10=0.0)
    counts = frame_clifford_machine(readout=readout).run_counts(shots)
    assert counts.shots == shots
    for qubit in (0, 2):
        assert counts.ones[qubit] == counts.measured[qubit] == shots
    machine = frame_clifford_machine(readout=readout)
    delivered = 0
    for trace in machine.run_iter(shots):
        delivered += 1
        assert [r.reported_result for r in trace.results] == [1, 1]
    assert delivered == shots
    assert machine.engine_stats.frame_batched == shots


@pytest.mark.parametrize("shots", [1, 63, 64, 65, 200])
def test_packed_outputs_keep_padding_clear(shots):
    recording, _ = machine_recording(frame_clifford_machine())
    raw, reported = propagate_frames(
        recording, shots, np.random.default_rng(shots),
        ReadoutErrorModel(p01=1.0, p10=1.0))
    for packed in (raw, reported):
        tail = np.unpackbits(packed.view(np.uint8), axis=1,
                             bitorder="little")[:, shots:]
        assert not tail.any()


# ----------------------------------------------------------------------
# The readout mask: dense bytes plus a sparse remainder
# ----------------------------------------------------------------------
#: Each statistical test below fails a correct sampler with probability
#: at most this (Bonferroni over the comparisons the test makes; every
#: p-value is an exact two-sided binomial one).
MASK_FALSE_POSITIVE_RATE = 1e-6

#: 16 rows of 65,599 shots: over 10^6 cells, a partial last word.
MASK_ROWS, MASK_SHOTS = 16, 65_599

MASK_RATES = [1 / 512, 24 / 256, 0.095, 0.5, 1 - 1e-6]


def mask_bits(mask, shots):
    """The ``(rows, shots)`` 0/1 grid of a packed mask, after checking
    its padding bits are clear."""
    bits = np.unpackbits(mask.view(np.uint8), axis=1, bitorder="little")
    assert not bits[:, shots:].any()
    return bits[:, :shots]


def assert_binomial(successes, trials, probability, comparisons):
    """Every count in ``successes`` (of the matching ``trials``) is
    consistent with Binomial(trials, probability) at the test's false
    positive rate split over ``comparisons``."""
    from scipy.stats import binom
    successes = np.asarray(successes)
    trials = np.broadcast_to(trials, successes.shape)
    p_values = np.minimum(1.0, 2 * np.minimum(
        binom.cdf(successes, trials, probability),
        binom.sf(successes - 1, trials, probability)))
    assert p_values.min() > MASK_FALSE_POSITIVE_RATE / comparisons, \
        (probability, p_values.min())


def test_zero_rate_mask_draws_nothing():
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    mask = pauli_frame._bernoulli_rows(rng, 3, 130, 0.0)
    assert mask.shape == (3, words_for(130)) and not mask.any()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("shots", [1, 63, 64, 65, 200])
def test_full_rate_mask_sets_every_valid_bit(shots):
    """``p = 1`` caps the byte threshold at 255 (no division by zero);
    the remainder, at ``q = 1``, sets the rest."""
    mask = pauli_frame._bernoulli_rows(np.random.default_rng(shots), 3,
                                       shots, 1.0)
    assert mask_bits(mask, shots).all()


@pytest.mark.parametrize("numerator", [1, 24, 128, 255])
def test_dyadic_rate_mask_skips_the_sparse_draw(numerator):
    """At ``p = k / 256`` the mask draws one byte per padded cell and
    nothing else."""
    rows, shots = 5, 130
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    pauli_frame._bernoulli_rows(rng, rows, shots, numerator / 256)
    twin.bit_generator.random_raw(rows * words_for(shots) * 8)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("probability", [1e-4, 1 / 512, 0.0039])
def test_small_rate_mask_is_the_pure_sparse_path(probability):
    """Below ``1/256`` no byte is drawn: the mask is exactly the cells
    the sparse sampler picks, placed row by row."""
    rows, shots = 7, 1000
    rng, twin = np.random.default_rng(2), np.random.default_rng(2)
    mask = pauli_frame._bernoulli_rows(rng, rows, shots, probability)
    hits = pauli_frame._sample_cells(twin, rows * shots, probability)
    assert rng.bit_generator.state == twin.bit_generator.state
    expected = np.zeros(rows * shots, dtype=np.uint8)
    expected[hits] = 1
    assert np.array_equal(mask_bits(mask, shots),
                          expected.reshape(rows, shots))


@pytest.mark.parametrize("p01,p10", [(1.0, 0.0), (0.0, 1.0)])
def test_asymmetric_readout_splits_on_the_raw_outcome(p01, p10):
    """``p01`` flips only the cells that read 0, ``p10`` only those that
    read 1: at rates 1 and 0 every shot reports ``p01``'s side."""
    recording, _ = machine_recording(frame_clifford_machine())
    shots = 1000
    raw, reported = propagate_frames(
        recording, shots, np.random.default_rng(3),
        ReadoutErrorModel(p01=p01, p10=p10))
    raw_bits = unpack_shots(raw, shots)
    assert 0 < raw_bits.mean() < 1
    assert np.array_equal(mask_bits(reported, shots),
                          np.full((recording.measurements, shots), int(p01),
                                  dtype=np.uint8))


def test_asymmetric_readout_rates_hold_per_raw_outcome():
    recording, _ = machine_recording(frame_clifford_machine())
    shots = 200_000
    p01, p10 = 0.095, 0.02
    raw, reported = propagate_frames(
        recording, shots, np.random.default_rng(8),
        ReadoutErrorModel(p01=p01, p10=p10))
    raw_bits = unpack_shots(raw, shots)
    flipped = raw_bits ^ unpack_shots(reported, shots)
    for read, rate in ((0, p01), (1, p10)):
        cells = raw_bits == read
        assert_binomial(flipped[cells].sum(), cells.sum(), rate, 2)


@pytest.mark.parametrize("probability", MASK_RATES)
def test_mask_rate_overall_per_row_and_per_bit(probability):
    """The rate over the whole grid, per row and per bit position
    ``s % 64`` (a byte-to-bit packing error biases some positions)."""
    mask = pauli_frame._bernoulli_rows(
        np.random.default_rng(21), MASK_ROWS, MASK_SHOTS, probability)
    bits = mask_bits(mask, MASK_SHOTS)
    positions = np.zeros(64, dtype=np.int64)
    np.add.at(positions, np.arange(MASK_SHOTS) % 64, bits.sum(axis=0))
    trials = MASK_ROWS * np.bincount(np.arange(MASK_SHOTS) % 64)
    comparisons = 1 + MASK_ROWS + 64
    assert_binomial(bits.sum(), bits.size, probability, comparisons)
    assert_binomial(bits.sum(axis=1), MASK_SHOTS, probability, comparisons)
    assert_binomial(positions, trials, probability, comparisons)


@pytest.mark.parametrize("probability", MASK_RATES)
def test_mask_adjacent_cells_are_independent(probability):
    """Each cell of the 2x2 table of horizontally (shots ``s, s + 1``,
    across byte and word boundaries) and vertically (rows ``r, r +
    1``) adjacent cells holds its independent share."""
    mask = pauli_frame._bernoulli_rows(
        np.random.default_rng(22), MASK_ROWS, MASK_SHOTS, probability)
    bits = mask_bits(mask, MASK_SHOTS).astype(np.int64)
    for first, second in ((bits[:, :-1], bits[:, 1:]),
                          (bits[:-1], bits[1:])):
        table = np.bincount((2 * first + second).ravel(), minlength=4)
        law = np.array([(1 - probability) ** 2,
                        (1 - probability) * probability,
                        probability * (1 - probability),
                        probability ** 2])
        assert_binomial(table, table.sum(), law, 8)
