"""Pauli-frame batched multi-shot engine for the stabilizer backend.

The surface-code workloads of the eQASM paper (Fu et al., HPCA 2019)
are Clifford circuits with depolarizing gate error and readout
assignment error.  Simulated per shot, every trajectory repeats the
*same* tableau updates and differs only in which Pauli errors were
sampled — so at 17 qubits the interpreter spends its time re-deriving
an identical Clifford sequence thousands of times.  Pauli-frame
simulation (Knill's trick, the engine behind stim-style samplers)
removes the repetition: run one noise-free *reference* shot per
loaded binary with the plant's recording open
(:attr:`repro.quantum.plant.QuantumPlant.recording`), derive from its
calls the Clifford sequence, every stochastic-error site and the
measurement structure as an immutable :class:`FrameRecording`
(:func:`frame_recording`); then sample whole batches of per-shot
*frames* — the Pauli error each shot has accumulated — from the
recording's fault table.  Like Stim's reference sample, the recording
is a pure function of the noiseless circuit, computed once and kept:
the machine reuses it for every later run of the same binary, noise
model, config and backend (see
:meth:`repro.uarch.machine.QuMAv2._frame_shots`).

**Layout** (Gidney, "Stim: a fast stabilizer circuit simulator",
Quantum 5, 497, 2021): outcomes leave the batch bit-packed, 64 shots
per machine word.  Row ``m`` of a ``(measurements, ⌈shots/64⌉)``
uint64 array holds measurement ``m`` of every shot; shot ``s`` is bit
``s % 64`` of word ``s // 64``, and the bits past ``shots`` in the
last word are always zero.  A frame is a Pauli on ``n`` qubits, its
plane row ``2q`` the X bit of qubit ``q`` and row ``2q + 1`` its Z
bit.

**Gates are XORs of planes.**  A frame ``P`` commutes through a
recorded Clifford ``U`` as ``P -> U P U^dag`` with the sign discarded
(a frame's sign is a global phase).  Sign-free conjugation is a
GF(2)-linear map of the (x, z) bits — the symplectic representation —
so the image of any frame is the XOR of the images of its set bits:
``bits[v] == XOR of bits[1 << i]`` over the bits ``i`` of ``v``.  Each
output plane of a gate is therefore the XOR of the input planes that
:attr:`CliffordAction.bits` ``[1 << i]`` routes to it.
:func:`~repro.quantum.stabilizer.plane_program` reduces that 2k x 2k
binary matrix to a short sequence of in-place ``plane[d] ^= plane[s]``
steps (a CZ is two, an H three, a Pauli gate none); the tableau runs
the same steps on its int columns, and so does
:meth:`GateStep.conjugate` when the fault table is built.

**Measurements.**  A measurement of ``Z_a`` whose reference outcome
was *deterministic* reports ``reference ^ x_a`` and leaves the frame
unchanged.  One whose reference outcome was *random* reports a fresh
fair bit ``o`` and, on the shots where ``o ^ x_a`` disagrees with the
reference outcome, multiplies the frame by the reference run's
pre-collapse pivot stabilizer ``Q`` (the anticommuting generator
:meth:`StabilizerTableau.collapse` pivots on): ``Q`` maps the
reference's post-measurement branch onto the other branch, so the
frame keeps tracking the shot's true state relative to the reference
trajectory.  The batch re-parametrises that coin as
``f = o ^ x_a ^ reference``.  Because ``o`` is fair and independent of
the frame, so is ``f``; the outcome is ``f ^ x_a ^ reference``, and the
frame absorbs ``Q`` wherever ``f`` is set.  Every random input is then
independent of every other: the elementary faults (each plane bit of
each gate-error site) and the coins ``f``.

**The fault table.**  With the coins re-parametrised, every frame and
every raw outcome is an affine GF(2) function of those inputs: the
reference outcome XOR the inputs that reach it.  :func:`fault_table`
finds which, once per recording (:func:`frame_recording`): it
walks the steps over Python-int bit columns, one int per plane row
whose bit ``j`` says whether input ``j`` has reached that plane, runs
each gate's XOR program on them, and reads ``x_a`` at each
measurement.  Transposed, that is the set of raw rows each elementary
fault and each coin flips, and by linearity a site's Pauli ``v`` flips
the XOR of its bits' sets.  No row count is capped.

**Noise is sampled exactly, with no step walk.**  A depolarizing site
of probability ``p`` hits each shot independently with a uniform
non-identity Pauli.  :func:`propagate_frames` draws all sites of one
``(p, arity)`` group at once, sparsely: ``k ~ Binomial(sites x shots,
p)`` hit cells, a uniform ``k``-subset of the grid and a uniform Pauli
per hit, each hit XORing its table rows into its shot's bit.  Each
coin is a packed fair word XORed into its rows, and the reference
outcomes are one XOR with the valid-bit mask.  Readout assignment
error flips a packed Bernoulli mask over the ``measurements x shots``
grid, one mask per rate (``p01`` on shots that read 0, ``p10`` on
shots that read 1; one mask when the two rates are equal).  At a
readout rate of several percent a uniform subset of the grid costs
more than the grid itself, so the mask is drawn densely plus a sparse
remainder (:func:`_bernoulli_rows`): one random byte per cell sets it
with probability ``a = T / 256``, ``T = min(floor(256 p), 255)``, and
the sparse sampler above ORs in cells at ``q = (p - a) / (1 - a)``.
The cell stays clear only if both miss, so it is set with probability
``1 - (1 - a)(1 - q) = p`` exactly, independently of every other
cell.

**Eligibility rule** (enforced statically by
:meth:`repro.uarch.machine.QuMAv2.frame_batch_unsupported_reasons`):
the stabilizer backend must be selected (Clifford binary,
Pauli/readout-only noise), and the recorded Clifford/measurement
sequence must be *identical across shots* — no ``FMR`` result
consumption, no conditionally executed micro-operations, no injected
mock results, and none of the replay engine's hard blockers (live
data-memory traffic, untranslatable operations).  Outcome-dependent
control flow forks the gate sequence per shot, which a single
reference recording cannot represent; such programs fall back to the
per-shot tableau interpreter transparently.

**Accuracy contract**: within the eligible domain the batch is exact
*in distribution* — each shot's frame is one faithfully sampled Pauli
trajectory of the same depolarizing/readout unravelling the per-shot
backend uses, so joint outcome histograms agree with the per-shot
tableau (and the dense density matrix) up to sampling error.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import PlantError
from repro.quantum.noise import NoiseModel, ReadoutErrorModel
from repro.quantum.plant import AppliedOperation
from repro.quantum.stabilizer import (
    CliffordAction,
    StabilizerTableau,
    cached_clifford_action,
)

#: One packed word: 64 shots, little-endian so a byte view orders the
#: bits by shot.
WORD = np.dtype("<u8")

#: ``_BIT[i]`` is the word with only bit ``i`` set.
_BIT = np.left_shift(np.ones(64, dtype=WORD), np.arange(64, dtype=WORD))

_NO_HITS = np.zeros(0, dtype=np.int64)


def _frozen(array: np.ndarray | None) -> np.ndarray | None:
    """``array`` made read-only (a recording is kept across runs)."""
    if array is not None:
        array.setflags(write=False)
    return array


def words_for(shots: int) -> int:
    """Packed words per plane for a batch of ``shots``."""
    return -(-shots // 64)


def pack_shots(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(shots, m)`` 0/1 matrix into ``(m, words)`` planes."""
    shots, m = bits.shape
    packed = np.zeros((m, 8 * words_for(shots)), dtype=np.uint8)
    packed[:, :-(-shots // 8)] = np.packbits(
        np.asarray(bits, dtype=bool).T, axis=1, bitorder="little")
    return packed.view(WORD)


def unpack_shots(planes: np.ndarray, shots: int) -> np.ndarray:
    """The ``(shots, m)`` uint8 matrix of ``(m, words)`` packed planes."""
    return np.unpackbits(np.ascontiguousarray(planes, dtype=WORD)
                         .view(np.uint8), axis=1, count=shots,
                         bitorder="little").T


def valid_words(shots: int) -> np.ndarray:
    """The packed mask of a batch's ``shots`` bits, padding clear."""
    words = words_for(shots)
    valid = np.full(words, ~np.uint64(0), dtype=WORD)
    valid[-1] >>= np.uint64(64 * words - shots)
    return valid


def _set_bits(value: int) -> list[int]:
    """The positions of the set bits of ``value``, ascending."""
    bits = []
    while value:
        low = value & -value
        bits.append(low.bit_length() - 1)
        value ^= low
    return bits


@dataclass(frozen=True, slots=True)
class GateStep:
    """One Clifford applied during the reference shot.  ``xors`` is
    its frame action as in-place plane XORs on the global plane rows:
    the action's own column program (:attr:`CliffordAction.program`,
    the one the tableau runs)."""

    action: CliffordAction
    indices: tuple[int, ...]
    xors: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        rows = [2 * qubit + plane for qubit in self.indices
                for plane in (0, 1)]
        object.__setattr__(self, "xors", tuple(
            (rows[d], rows[s]) for d, s in self.action.program))

    def conjugate(self, columns) -> None:
        """Push frames through the gate: ``columns`` holds one int per
        plane row (bit ``j`` of each int is frame ``j``'s bit on that
        plane), updated in place by :attr:`xors`."""
        for d, s in self.xors:
            columns[d] ^= columns[s]


@dataclass(frozen=True, slots=True)
class NoiseStep:
    """One depolarizing-error site (probability deferred to the batch).
    ``rows`` are the plane rows of its qubits, in Pauli-index bit
    order."""

    indices: tuple[int, ...]
    probability: float
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _frozen(np.array(
            [2 * qubit + plane for qubit in self.indices
             for plane in (0, 1)], dtype=np.intp)))


@dataclass(frozen=True, slots=True)
class MeasureStep:
    """One projective measurement of the reference shot.

    ``pivot_x``/``pivot_z`` are the pre-collapse pivot stabilizer's
    Pauli bits when the reference outcome was random (``p_one`` 0.5),
    None when it was deterministic; ``pivot_rows`` are its plane rows.
    """

    index: int
    p_one: float
    reference_raw: int
    pivot_x: np.ndarray | None
    pivot_z: np.ndarray | None
    pivot_rows: np.ndarray | None = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self) -> None:
        rows = None
        if self.pivot_x is not None:
            rows = np.flatnonzero(np.stack(
                (self.pivot_x, self.pivot_z), axis=1).ravel())
        _frozen(self.pivot_x)
        _frozen(self.pivot_z)
        object.__setattr__(self, "pivot_rows", _frozen(rows))


@dataclass(frozen=True, slots=True)
class FaultGroup:
    """The gate-error sites of one ``(probability, arity)``, drawn
    together.  ``sites`` are their positions in the recording's step
    tuple; site ``i``'s non-identity Pauli ``v`` is table key
    ``first + i * paulis + v - 1``."""

    probability: float
    paulis: int
    sites: tuple[int, ...]
    first: int


@dataclass(frozen=True, slots=True)
class FaultTable:
    """Which raw measurement rows each random input of a recording
    flips (see the module docstring).

    Key ``k``'s rows are ``rows[starts[k]:starts[k + 1]]`` (keys as in
    :class:`FaultGroup`); coin ``c`` (the ``c``-th random measurement)
    flips ``coin_rows[coin_of == c]``, its own row first; ``ones`` are
    the rows whose reference outcome is 1.
    """

    measurements: int
    groups: tuple[FaultGroup, ...]
    starts: np.ndarray
    rows: np.ndarray
    coins: int
    coin_rows: np.ndarray
    coin_of: np.ndarray
    ones: np.ndarray

    def outcomes(self, keys: np.ndarray, hit_shots: np.ndarray,
                 coin_words: np.ndarray, valid: np.ndarray
                 ) -> np.ndarray:
        """The packed ``(measurements, words)`` raw outcomes of a
        batch: key ``keys[i]`` fired on shot ``hit_shots[i]``,
        ``coin_words`` the ``(coins, words)`` packed coins (padding
        clear) and ``valid`` the batch's :func:`valid_words`."""
        words = len(valid)
        raw = np.zeros((self.measurements, words), dtype=WORD)
        counts = self.starts[keys + 1] - self.starts[keys]
        ends = np.cumsum(counts)
        if len(ends) and ends[-1]:
            # Each hit expands into its key's rows (a CSR gather).
            entry = np.arange(ends[-1]) + np.repeat(
                self.starts[keys] - ends + counts, counts)
            shot = np.repeat(hit_shots, counts)
            np.bitwise_xor.at(raw.reshape(-1),
                              self.rows[entry] * words + (shot >> 6),
                              _BIT[shot & 63])
        if self.coins:
            np.bitwise_xor.at(raw, self.coin_rows,
                              coin_words[self.coin_of])
        raw[self.ones] ^= valid
        return raw


def fault_table(steps: tuple[GateStep | NoiseStep | MeasureStep, ...]
                ) -> FaultTable:
    """Build the :class:`FaultTable` of a recorded step sequence.

    One walk over Python-int bit columns: ``columns[r]`` has bit ``j``
    set when input ``j`` — an elementary fault (one plane bit of one
    noise site) or a random measurement's coin — has reached plane row
    ``r``.  Gates run their XOR program on the columns; a raw row's
    inputs are ``columns[2a]`` at its measurement, plus its own coin;
    the coin then enters the pivot's rows.
    """
    columns: defaultdict[int, int] = defaultdict(int)
    effects: list[int] = []
    sites: list[tuple[int, NoiseStep, int]] = []
    coin_inputs: list[int] = []
    ones: list[int] = []
    inputs = 0
    for position, step in enumerate(steps):
        if isinstance(step, GateStep):
            step.conjugate(columns)
        elif isinstance(step, NoiseStep):
            for bit, row in enumerate(step.rows.tolist()):
                columns[row] ^= 1 << (inputs + bit)
            sites.append((position, step, inputs))
            inputs += len(step.rows)
        else:  # MeasureStep
            effect = columns[2 * step.index]
            if step.pivot_rows is not None:
                coin = 1 << inputs
                coin_inputs.append(inputs)
                inputs += 1
                effect ^= coin
                for row in step.pivot_rows.tolist():
                    columns[row] ^= coin
            if step.reference_raw:
                ones.append(len(effects))
            effects.append(effect)
    # Transpose: the raw rows (as a bit mask) each input flips.
    flips = [0] * inputs
    for row, effect in enumerate(effects):
        for j in _set_bits(effect):
            flips[j] |= 1 << row

    grouped: dict[tuple[float, int], list[tuple[int, int]]] = {}
    for position, step, first_input in sites:
        grouped.setdefault((step.probability, len(step.rows)), []) \
            .append((position, first_input))
    groups = []
    key_rows: list[list[int]] = []
    for (probability, planes), members in grouped.items():
        groups.append(FaultGroup(
            probability=probability, paulis=(1 << planes) - 1,
            sites=tuple(position for position, _ in members),
            first=len(key_rows)))
        for _, first_input in members:
            # By linearity Pauli v flips the XOR of its plane bits'
            # rows: v's mask is that of v without its lowest bit, XOR
            # the lowest bit's.
            masks = [0]
            for v in range(1, 1 << planes):
                low = (v & -v).bit_length() - 1
                masks.append(masks[v & (v - 1)] ^ flips[first_input + low])
                key_rows.append(_set_bits(masks[v]))
    coin_rows = [_set_bits(flips[j]) for j in coin_inputs]

    def flat(lists: list[list[int]]) -> np.ndarray:
        return _frozen(np.fromiter((r for rows in lists for r in rows),
                                   dtype=np.intp))

    return FaultTable(
        measurements=len(effects),
        groups=tuple(groups),
        starts=_frozen(np.cumsum([0] + [len(r) for r in key_rows],
                                 dtype=np.intp)),
        rows=flat(key_rows),
        coins=len(coin_rows),
        coin_rows=flat(coin_rows),
        coin_of=_frozen(np.repeat(np.arange(len(coin_rows), dtype=np.intp),
                                  [len(r) for r in coin_rows])),
        ones=_frozen(np.array(ones, dtype=np.intp)))


@dataclass(frozen=True, slots=True)
class FrameRecording:
    """One reference shot's step sequence, frozen: the steps in the
    order the shot applied them, how many of them are measurements
    (the outcome rows :func:`propagate_frames` returns) and their
    :class:`FaultTable`.  Immutable down to its arrays, so one
    recording can serve every later run of its binary."""

    steps: tuple[GateStep | NoiseStep | MeasureStep, ...]
    measurements: int
    faults: FaultTable = field(repr=False, compare=False)


def frame_recording(calls: list[AppliedOperation], noise: NoiseModel,
                    qubits: tuple[int, ...]) -> FrameRecording:
    """Derive the :class:`FrameRecording` of a noise-free reference
    shot from its plant recording.

    ``calls`` are the shot's recorded gates and measurements on the
    physical ``qubits`` (dense index = position).  The gates re-run on
    a fresh tableau, each followed by an error site at the real
    ``noise`` model's probability for its arity (none at zero); a
    measurement reads its pivot stabilizer when random and collapses
    onto the recorded ``raw``.  The fault table is built once here.
    """
    index_of = {address: index for index, address in enumerate(qubits)}
    errors = {1: noise.gate_error.single_qubit_error,
              2: noise.gate_error.two_qubit_error}
    tableau = StabilizerTableau(len(qubits))
    steps: list[GateStep | NoiseStep | MeasureStep] = []
    measurements = 0
    for call in calls:
        indices = tuple(index_of[address] for address in call.qubits)
        if call.unitary is not None:
            action = cached_clifford_action(call.unitary)
            tableau.apply(action, indices)
            steps.append(GateStep(action=action, indices=indices))
            probability = errors[len(indices)]
            if probability:
                steps.append(NoiseStep(indices=indices,
                                       probability=probability))
            continue
        (index,) = indices
        pivot_x = pivot_z = None
        pivot = tableau.pivot_stabilizer(index)
        if pivot is not None:
            pivot_x, pivot_z = tableau.row_paulis(pivot)
        tableau.collapse(index, call.raw)
        steps.append(MeasureStep(
            index=index, p_one=call.p_one, reference_raw=call.raw,
            pivot_x=pivot_x, pivot_z=pivot_z))
        measurements += 1
    steps = tuple(steps)
    return FrameRecording(steps, measurements, fault_table(steps))


def _sample_cells(rng: np.random.Generator, cells: int,
                  probability: float) -> np.ndarray:
    """The cells of a ``range(cells)`` grid an independent
    Bernoulli(``probability``) event hits: ``k ~ Binomial(cells, p)``,
    then a uniform ``k``-subset (in no particular order).  Draws
    nothing when ``probability`` is zero."""
    if probability <= 0.0:
        return _NO_HITS
    hits = int(rng.binomial(cells, probability))
    if not hits:
        return _NO_HITS
    return rng.choice(cells, size=hits, replace=False, shuffle=False)


def _bernoulli_rows(rng: np.random.Generator, rows: int, shots: int,
                    probability: float) -> np.ndarray:
    """A packed ``(rows, words)`` mask with each of the ``rows x
    shots`` bits set independently with ``probability``, padding bits
    clear.

    Dense part: one random byte per cell of the grid padded to whole
    words, set where it is below ``T = floor(256 p)`` (capped at 255),
    so Bernoulli(``a = T / 256``).  Sparse remainder: the cells
    :func:`_sample_cells` draws at ``q = (p - a) / (1 - a)``, OR-ed in.
    A cell is then clear with probability ``(1 - a)(1 - q) = 1 - p``.
    ``T = 0`` (``p < 1/256``) draws no bytes and ``q = 0`` (``p = k /
    256``) no cells; ``p = 0`` draws nothing."""
    width = 64 * words_for(shots)
    threshold = min(int(256 * probability), 255)
    if threshold:
        grid = rng.bit_generator.random_raw(rows * width // 8).view(
            np.uint8).reshape(rows, width) < threshold
        grid[:, shots:] = False
    else:
        grid = np.zeros((rows, width), dtype=bool)
    dense = threshold / 256
    hits = _sample_cells(rng, rows * shots,
                         (probability - dense) / (1 - dense))
    grid.reshape(-1)[hits + hits // shots * (width - shots)] = True
    return np.packbits(grid, axis=1, bitorder="little").view(WORD)


def propagate_frames(recording: FrameRecording,
                     shots: int, rng: np.random.Generator,
                     readout: ReadoutErrorModel
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``shots`` Pauli frames of a recording and their outcomes.

    Returns ``(raw, reported)`` packed ``(recording.measurements,
    words)`` uint64 arrays — one row per measurement in the reference
    shot's order, shot ``s`` at bit ``s % 64`` of word ``s // 64``,
    padding bits clear (:func:`unpack_shots` gives the ``(shots,
    measurements)`` matrix).  No step is walked: each fault group
    draws its hit cells and Paulis at once and XORs their table rows
    in, each coin a packed fair word (see the module docstring).
    """
    if shots < 1:
        raise PlantError("need at least one shot to propagate")
    table = recording.faults
    valid = valid_words(shots)
    keys = [_NO_HITS]
    hit_shots = [_NO_HITS]
    for group in table.groups:
        site, shot = np.divmod(_sample_cells(
            rng, len(group.sites) * shots, group.probability), shots)
        if len(site):
            keys.append(group.first + site * group.paulis
                        + rng.integers(0, group.paulis, size=len(site)))
            hit_shots.append(shot)
    coin_words = rng.integers(0, 1 << 64, size=(table.coins, len(valid)),
                              dtype=np.uint64)
    coin_words &= valid
    raw = table.outcomes(np.concatenate(keys), np.concatenate(hit_shots),
                         coin_words, valid)
    flips = _bernoulli_rows(rng, table.measurements, shots, readout.p01)
    if readout.p10 != readout.p01:
        flips &= ~raw
        flips |= _bernoulli_rows(rng, table.measurements, shots,
                                 readout.p10) & raw
    return raw, raw ^ flips
