"""Pluggable plant backends: the state interface behind the ADI.

The plant (:mod:`repro.quantum.plant`) models the chip plus the analog
electronics; *how* the joint quantum state is represented is a separate
concern.  This module makes that concern explicit: a
:class:`PlantBackend` owns the state and answers exactly the operations
the plant's analog-digital interface needs —

* apply one gate event: the targets' idle decoherence over their
  gaps, a named 1q/2q unitary and the noise model's per-gate error,
* apply the per-qubit idle channel (before a measurement, and the
  end-of-program flush),
* report a pre-collapse ``P(1)``, sample or force a projective
  collapse,
* reset the state to ``|0...0>``.

Two backends implement it:

* :class:`DenseBackend` — the exact density matrix (the default;
  handles any unitary and any noise model at O(4^n) cost per gate,
  one cached Liouville superoperator pass per gate event);
* :class:`~repro.quantum.stabilizer.StabilizerBackend` — a
  Gottesman–Knill binary symplectic tableau, restricted to Clifford
  gates and Pauli/readout-only noise but polynomial in the qubit
  count, which takes surface-code workloads past the density-matrix
  wall (a 17-qubit dense matrix would need ~256 GB; the tableau needs
  ~1 kB).

Backend selection is automatic per run: :class:`repro.uarch.machine.QuMAv2`
statically checks the loaded binary's operations and the noise model
(:meth:`QuMAv2.plant_backend_reasons`) and picks the tableau whenever
it is sound, reporting the choice in
:class:`~repro.uarch.replay.EngineStats` — see
:meth:`repro.quantum.plant.QuantumPlant.use_backend`.
"""

from __future__ import annotations

import abc
import functools

import numpy as np

from repro.core.errors import PlantError
from repro.quantum.density_matrix import DensityMatrix, superoperator
from repro.quantum.noise import DecoherenceModel, NoiseModel

#: Entries each superoperator cache below keeps (least recently used
#: out first).  Under a fixed outcome history a binary's gaps come
#: from its deterministic timing, so a run needs a handful; a
#: ``QWAITR``-driven stream of distinct gaps only cycles the cache.
SUPEROP_CACHE_SIZE = 512


def _frozen(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` made read-only: cached values are shared."""
    matrix.setflags(write=False)
    return matrix


@functools.lru_cache(maxsize=SUPEROP_CACHE_SIZE)
def idle_superop(duration_ns: float,
                 decoherence: DecoherenceModel) -> np.ndarray:
    """The 4x4 superoperator of one qubit idling for ``duration_ns``."""
    return _frozen(superoperator(decoherence.idle_channel(duration_ns)))


@functools.lru_cache(maxsize=SUPEROP_CACHE_SIZE)
def gate_event_superop(unitary: bytes, gaps_ns: tuple[float, ...],
                       noise: NoiseModel) -> np.ndarray:
    """One gate event on ``k = len(gaps_ns)`` targets as a single
    ``(4^k, 4^k)`` superoperator.

    ``unitary`` is the raw bytes of the complex ``(2^k, 2^k)`` gate
    unitary (hashable, compared by value like the gaps and the noise
    model).  The event is: each target idles over its gap, then the
    unitary, then the depolarizing gate error, composed right to left.
    """
    k = len(gaps_ns)
    dim = 1 << k
    if len(unitary) != 16 * dim * dim:
        raise PlantError(
            f"a {len(unitary)}-byte unitary does not match {k} qubits")
    matrix = np.frombuffer(unitary, dtype=complex).reshape(dim, dim)
    # The targets' idle Kraus product: every kron(A, B, ...) of one
    # operator per target, stacked, built one target at a time.
    idle = np.ones((1, 1, 1), dtype=complex)
    for gap in gaps_ns:
        channel = np.asarray(noise.decoherence.idle_channel(gap),
                             dtype=complex)
        size = idle.shape[1] * 2
        idle = np.einsum("kab,lcd->klacbd", idle, channel).reshape(
            -1, size, size)
    return _frozen(superoperator(noise.gate_error.channel_for(k))
                   @ superoperator([matrix])
                   @ superoperator(idle))


class PlantBackend(abc.ABC):
    """The state interface the plant's analog-digital interface needs.

    A backend owns an ``n``-qubit joint state (indices are *dense*
    simulator indices, 0-based; the plant maps sparse physical
    addresses onto them) — and nothing else.  Noise models and
    randomness are passed per call, so the plant remains the single
    owner of both (callers may swap ``plant.noise`` or ``plant.rng``
    between runs without stale copies surviving inside a backend).
    """

    #: Short identifier used in reports ("dense" / "stabilizer").
    kind: str = "?"

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits

    # -- lifecycle -----------------------------------------------------
    @abc.abstractmethod
    def reset(self) -> None:
        """Return the state to ``|0...0>``."""

    # -- evolution -----------------------------------------------------
    @abc.abstractmethod
    def apply_gate_event(self, name: str, unitary: np.ndarray,
                         indices: tuple[int, ...],
                         gaps_ns: tuple[float, ...], noise: NoiseModel,
                         rng: np.random.Generator) -> None:
        """Apply one gate event: each target idles (decoheres) over its
        gap since its previous operation, then the named k-qubit
        unitary acts (``indices[0]`` is the MSB of the unitary's own
        basis), then the model's intrinsic gate error."""

    @abc.abstractmethod
    def apply_idle(self, index: int, duration_ns: float,
                   decoherence: DecoherenceModel) -> None:
        """Apply the model's idle-decoherence channel to one qubit."""

    # -- measurement ---------------------------------------------------
    @abc.abstractmethod
    def probability_one(self, index: int) -> float:
        """Pre-collapse P(1) of an ideal projective z-measurement."""

    @abc.abstractmethod
    def measure(self, index: int, rng: np.random.Generator,
                p_one: float | None = None) -> int:
        """Sample a projective z-measurement and collapse the state.

        ``p_one`` is :meth:`probability_one` of the current state when
        the caller has already computed it; the draw is the same."""

    @abc.abstractmethod
    def collapse(self, index: int, result: int) -> None:
        """Project one qubit onto ``result`` (raises on probability 0)."""

    # -- inspection ----------------------------------------------------
    def density_matrix(self) -> DensityMatrix:
        """The joint state as a density matrix, when representable."""
        raise PlantError(
            f"the {self.kind} backend does not expose a density matrix")

    # -- admission ----------------------------------------------------
    @classmethod
    def estimate_bytes(cls, num_qubits: int) -> int:
        """Approximate memory this backend needs for ``num_qubits``.

        Admission control compares the estimate against the plant's
        memory budget *before* constructing the backend, so an
        impossible request fails fast with the number instead of
        OOM-ing mid-allocation.
        """
        return 0


class DenseBackend(PlantBackend):
    """The exact density-matrix backend (the historical plant state).

    Supports arbitrary unitaries and the full noise model; cost is
    O(4^n) per gate, which caps practical use at the seven-qubit chip.
    A gate event is one pass over rho: the targets' idle decay, the
    unitary and the depolarizing gate error are fused into one 4x4
    (one target) or 16x16 (two targets) Liouville superoperator,
    built once per (unitary, gaps, noise model) and kept in a
    process-wide cache of :data:`SUPEROP_CACHE_SIZE` entries.  The
    plant's ``backend.dense.gate.time_ns`` histogram therefore times
    the targets' idle decay together with the gate.
    """

    kind = "dense"

    def __init__(self, num_qubits: int):
        super().__init__(num_qubits)
        self.state = DensityMatrix(num_qubits)

    def reset(self) -> None:
        self.state = DensityMatrix(self.num_qubits)

    def apply_gate_event(self, name: str, unitary: np.ndarray,
                         indices: tuple[int, ...],
                         gaps_ns: tuple[float, ...], noise: NoiseModel,
                         rng: np.random.Generator) -> None:
        unitary = np.asarray(unitary, dtype=complex)
        self.state.apply_superop(
            gate_event_superop(unitary.tobytes(), gaps_ns, noise),
            indices)

    def apply_idle(self, index: int, duration_ns: float,
                   decoherence: DecoherenceModel) -> None:
        self.state.apply_superop(idle_superop(duration_ns, decoherence),
                                 (index,))

    def probability_one(self, index: int) -> float:
        return self.state.probability_one(index)

    def measure(self, index: int, rng: np.random.Generator,
                p_one: float | None = None) -> int:
        return self.state.measure(index, rng, p_one)

    def collapse(self, index: int, result: int) -> None:
        self.state.collapse(index, result)

    def density_matrix(self) -> DensityMatrix:
        return self.state.copy()

    @classmethod
    def estimate_bytes(cls, num_qubits: int) -> int:
        # One complex128 (16-byte) entry per element of the
        # 2^n x 2^n density matrix.
        return 16 * 4 ** num_qubits
