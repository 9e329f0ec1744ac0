"""Pluggable plant backends: the state interface behind the ADI.

The plant (:mod:`repro.quantum.plant`) models the chip plus the analog
electronics; *how* the joint quantum state is represented is a separate
concern.  This module makes that concern explicit: a
:class:`PlantBackend` owns the state and answers exactly the operations
the plant's analog-digital interface needs —

* apply a named 1q/2q unitary,
* apply the noise model's per-gate error and per-qubit idle channel,
* report a pre-collapse ``P(1)``, sample or force a projective
  collapse,
* reset the state to ``|0...0>``.

Two backends implement it:

* :class:`DenseBackend` — the exact density matrix with Kraus-channel
  noise (the default; handles any unitary and any noise model at
  O(4^n) cost per gate);
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

import numpy as np

from repro.core.errors import PlantError
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.noise import DecoherenceModel, GateErrorModel


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
    def apply_gate(self, name: str, unitary: np.ndarray,
                   indices: tuple[int, ...]) -> None:
        """Apply a named k-qubit unitary (``indices[0]`` is the MSB of
        the unitary's own basis)."""

    @abc.abstractmethod
    def apply_gate_error(self, indices: tuple[int, ...],
                         gate_error: GateErrorModel,
                         rng: np.random.Generator) -> None:
        """Apply the model's intrinsic gate-error channel."""

    @abc.abstractmethod
    def apply_idle(self, index: int, duration_ns: float,
                   decoherence: DecoherenceModel) -> None:
        """Apply the model's idle-decoherence channel to one qubit."""

    # -- measurement ---------------------------------------------------
    @abc.abstractmethod
    def probability_one(self, index: int) -> float:
        """Pre-collapse P(1) of an ideal projective z-measurement."""

    @abc.abstractmethod
    def measure(self, index: int, rng: np.random.Generator) -> int:
        """Sample a projective z-measurement and collapse the state."""

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

    Supports arbitrary unitaries and the full Kraus-channel noise
    model; cost is O(4^n) per gate, which caps practical use at the
    seven-qubit chip.
    """

    kind = "dense"

    def __init__(self, num_qubits: int):
        super().__init__(num_qubits)
        self.state = DensityMatrix(num_qubits)

    def reset(self) -> None:
        self.state = DensityMatrix(self.num_qubits)

    def apply_gate(self, name: str, unitary: np.ndarray,
                   indices: tuple[int, ...]) -> None:
        self.state.apply_gate(np.asarray(unitary, dtype=complex), indices)

    def apply_gate_error(self, indices: tuple[int, ...],
                         gate_error: GateErrorModel,
                         rng: np.random.Generator) -> None:
        channel = gate_error.channel_for(len(indices))
        self.state.apply_channel(channel, indices)

    def apply_idle(self, index: int, duration_ns: float,
                   decoherence: DecoherenceModel) -> None:
        kraus = decoherence.idle_channel(duration_ns)
        self.state.apply_channel(kraus, (index,))

    def probability_one(self, index: int) -> float:
        return self.state.probability_one(index)

    def measure(self, index: int, rng: np.random.Generator) -> int:
        return self.state.measure(index, rng)

    def collapse(self, index: int, result: int) -> None:
        self.state.collapse(index, result)

    def density_matrix(self) -> DensityMatrix:
        return self.state.copy()

    @classmethod
    def estimate_bytes(cls, num_qubits: int) -> int:
        # One complex128 (16-byte) entry per element of the
        # 2^n x 2^n density matrix.
        return 16 * 4 ** num_qubits
