"""The quantum plant: timed, noisy qubits behind the analog-digital
interface.

In the paper's hardware (Fig. 10), the microarchitecture's digital output
triggers codeword-selected pulses that drive the transmon chip.  In this
reproduction, the plant stands in for the chip *plus* the analog
electronics: it accepts trigger events ("apply unitary U to qubits (a, b)
at time t", "start measuring qubit q at time t") and maintains the joint
quantum state under a calibrated noise model.

*How* the state is represented is delegated to a pluggable
:class:`~repro.quantum.backend.PlantBackend`:

* the **dense** backend (default) keeps an exact density matrix and
  applies each gate event (idle decay, unitary, gate error) as one
  cached superoperator — any unitary, any noise model, O(4^n) per gate;
* the **stabilizer** backend (:mod:`repro.quantum.stabilizer`) keeps a
  Gottesman–Knill tableau — Clifford gates and Pauli/readout-only
  noise, polynomial cost, which is what lets surface-code-scale chips
  (the 17-qubit distance-3 patch) run at all.

:meth:`repro.uarch.machine.QuMAv2.run_iter` selects the backend
automatically per run from a static pass over the loaded binary plus
the noise model, and falls back to the dense backend transparently for
non-Clifford programs; callers can pin a backend with
:meth:`use_backend`.  Backends are constructed lazily, so merely
building a plant for a wide chip never allocates the (possibly
infeasible) dense matrix.

Physics modelled:

* decoherence while idling (T1/T2), applied lazily per qubit between
  consecutive operations (as part of the next gate event, before a
  measurement, or by the end-of-program flush) — this produces the
  Fig. 12 interval dependence;
* depolarizing gate error applied with every unitary;
* projective z-measurement, collapsing the state; the classical
  assignment error is applied by the measurement-discrimination unit
  (:mod:`repro.uarch.measurement`) so that the plant itself reports the
  physical outcome.

The plant enforces monotonic per-qubit time: an operation scheduled
before the previous one on the same qubit has finished indicates a
control bug (the paper inserts a 1 us wait after measurements precisely
to avoid this) and raises :class:`~repro.core.errors.PlantError`.

One record of what a shot asked of the plant, whatever the backend:
:attr:`QuantumPlant.recording` is None unless a reader opens it (sets
it to a list) around a shot, and while open holds every gate and
measurement call as an :class:`AppliedOperation`, in call order.  Its
readers are replay growth (the pre-collapse P(1) of each measurement),
the Pauli-frame reference shot (whose frame recording is derived from
it, :func:`repro.quantum.pauli_frame.frame_recording`) and tests.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.errors import PlantError, ResourceError
from repro.quantum.backend import DenseBackend, PlantBackend
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.noise import NoiseModel
from repro.quantum.stabilizer import StabilizerBackend
from repro.topology.chip import QuantumChipTopology

#: Backend constructors by kind.
_BACKEND_TYPES: dict[str, type[PlantBackend]] = {
    "dense": DenseBackend, "stabilizer": StabilizerBackend}


class AppliedOperation(NamedTuple):
    """One plant call of an open :attr:`QuantumPlant.recording`.

    A gate carries its configured ``unitary``; a measurement (named
    ``"MEASZ"``, no unitary) its pre-collapse ``p_one`` and ``raw``
    physical outcome.  ``qubits`` are physical addresses.
    """

    name: str
    qubits: tuple[int, ...]
    start_ns: float
    duration_ns: float
    unitary: np.ndarray | None = None
    p_one: float | None = None
    raw: int | None = None


class QuantumPlant:
    """Backend-pluggable model of the chip behind the ADI.

    Parameters
    ----------
    topology:
        Chip description; physical qubit addresses may be sparse (the
        two-qubit chip uses addresses 0 and 2) and are mapped to dense
        simulator indices internally.
    noise:
        The noise model; defaults to the calibrated paper-like model.
    rng:
        Random generator for measurement sampling.  Pass a seeded
        generator for reproducible shots.
    backend:
        Initial state-backend kind, ``"dense"`` (exact density matrix,
        the default) or ``"stabilizer"`` (Clifford tableau).  The
        backend is constructed on first use and can be swapped between
        shots with :meth:`use_backend` — which is how the machine's
        automatic selection plugs in.
    """

    #: Default admission budget for any one backend's state.  2 GiB
    #: admits the 13-qubit dense matrix (1 GiB) and refuses 14 qubits
    #: and up (4 GiB+) — requests past the budget fail fast with the
    #: estimate instead of OOM-ing mid-allocation.
    DEFAULT_MEMORY_LIMIT_BYTES = 2 * 2 ** 30

    def __init__(self, topology: QuantumChipTopology,
                 noise: NoiseModel | None = None,
                 rng: np.random.Generator | None = None,
                 backend: str = "dense"):
        self.topology = topology
        self.noise = noise if noise is not None else NoiseModel()
        self.rng = rng if rng is not None else np.random.default_rng()
        self._index_of = {address: index
                          for index, address in enumerate(topology.qubits)}
        self.num_qubits = len(topology.qubits)
        self._backend_kind = backend
        self._backend: PlantBackend | None = None
        self._qubit_free_at = {address: 0.0 for address in topology.qubits}
        #: The open recording (see the module docstring), or None.  A
        #: reader sets a list, runs its shot and sets None again.
        self.recording: list[AppliedOperation] | None = None
        #: Admission budget for backend state (overridable per plant).
        self.memory_limit_bytes = self.DEFAULT_MEMORY_LIMIT_BYTES
        #: Attached :class:`repro.obs.Observability` (None = disabled)
        #: — set through :attr:`QuMAv2.observability`.  When present,
        #: backend gate/measure kernel time lands in per-backend
        #: ``backend.<kind>.*.time_ns`` histograms.
        self.observability = None

    @property
    def observability(self):
        return self._observability

    @observability.setter
    def observability(self, obs) -> None:
        self._observability = obs
        # (kind, gate histogram, measure histogram) — resolved lazily
        # per backend kind so the per-gate hook never rebuilds metric
        # names on the hot path.
        self._obs_kernel_cache = None

    def _obs_kernels(self, obs):
        """The cached ``(gate, measure)`` histograms for the current
        backend kind."""
        kind = self._backend_kind
        cache = self._obs_kernel_cache
        if cache is None or cache[0] != kind:
            cache = (kind,
                     obs.metrics.histogram(
                         f"backend.{kind}.gate.time_ns"),
                     obs.metrics.histogram(
                         f"backend.{kind}.measure.time_ns"))
            self._obs_kernel_cache = cache
        return cache

    # ------------------------------------------------------------------
    # Backend selection
    # ------------------------------------------------------------------
    def check_admission(self, kind: str | None = None) -> None:
        """Fail fast when a backend's state would not fit in memory.

        Estimates the requested backend's state size from the qubit
        count and raises :class:`~repro.core.errors.ResourceError` —
        with the estimate, the budget and a suggested alternative in
        machine-readable context — when it exceeds
        :attr:`memory_limit_bytes`.  Called automatically before any
        backend is constructed.
        """
        kind = kind if kind is not None else self._backend_kind
        factory = self._backend_factory(kind)
        estimate = factory.estimate_bytes(self.num_qubits)
        limit = self.memory_limit_bytes
        if estimate <= limit:
            return
        suggestion = (
            "use plant_backend='stabilizer' (polynomial memory) for "
            "Clifford workloads, or a narrower chip"
            if kind == "dense" else "use a narrower chip")
        raise ResourceError(
            f"the {kind} backend needs ~{estimate:,} bytes for "
            f"{self.num_qubits} qubits, past the {limit:,}-byte "
            f"admission budget; {suggestion}",
            requested_bytes=estimate, limit_bytes=limit,
            num_qubits=self.num_qubits, backend=kind,
            suggestion=suggestion)

    def _backend_factory(self, kind: str) -> type[PlantBackend]:
        try:
            return _BACKEND_TYPES[kind]
        except KeyError:
            known = ", ".join(sorted(_BACKEND_TYPES))
            raise PlantError(
                f"unknown plant backend {kind!r}; known backends: {known}")

    def _make_backend(self, kind: str) -> PlantBackend:
        factory = self._backend_factory(kind)
        self.check_admission(kind)
        return factory(self.num_qubits)

    @property
    def backend(self) -> PlantBackend:
        """The live state backend (constructed on first access)."""
        if self._backend is None:
            self._backend = self._make_backend(self._backend_kind)
        return self._backend

    @property
    def backend_kind(self) -> str:
        """The selected backend kind ("dense" / "stabilizer")."""
        return self._backend_kind

    def use_backend(self, kind: str) -> None:
        """Select the state backend for subsequent shots.

        Swapping kinds rebuilds the state in ``|0...0>``; reselecting
        the current kind keeps the live backend (state included).
        Callers switch only at shot boundaries —
        :meth:`repro.uarch.machine.QuMAv2.run_iter` does so before the
        first shot of every run.
        """
        if kind != self._backend_kind or self._backend is None:
            self._backend = self._make_backend(kind)
            self._backend_kind = kind

    # ------------------------------------------------------------------
    # Shot lifecycle
    # ------------------------------------------------------------------
    def reset_shot(self) -> None:
        """Return every qubit to |0> at time zero (start of a new shot)."""
        self.backend.reset()
        self._qubit_free_at = {address: 0.0
                               for address in self.topology.qubits}

    def qubit_index(self, address: int) -> int:
        """Dense simulator index for a physical qubit address."""
        try:
            return self._index_of[address]
        except KeyError:
            raise PlantError(
                f"qubit address {address} not on chip {self.topology.name}")

    # ------------------------------------------------------------------
    # Idling
    # ------------------------------------------------------------------
    def _idle_gap(self, address: int, to_time_ns: float
                  ) -> tuple[int, float]:
        """``(dense index, idle gap)`` of one qubit up to
        ``to_time_ns``; an off-chip address or an operation that
        overlaps the qubit's previous one raises
        :class:`~repro.core.errors.PlantError`."""
        index = self.qubit_index(address)
        free_at = self._qubit_free_at[address]
        if to_time_ns < free_at - 1e-9:
            raise PlantError(
                f"operation on qubit {address} at t={to_time_ns} ns "
                f"overlaps previous operation ending at {free_at} ns")
        return index, (to_time_ns - free_at if to_time_ns > free_at
                       else 0.0)

    def idle_all_until(self, time_ns: float) -> None:
        """Idle every qubit up to ``time_ns`` (end-of-program flush)."""
        backend = self.backend
        decoherence = self.noise.decoherence
        for address in self.topology.qubits:
            free_at = self._qubit_free_at[address]
            if time_ns > free_at:
                backend.apply_idle(self._index_of[address],
                                   time_ns - free_at, decoherence)
                self._qubit_free_at[address] = time_ns

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def apply_unitary(self, name: str, unitary: np.ndarray,
                      qubits: tuple[int, ...], start_ns: float,
                      duration_ns: float) -> None:
        """Apply a named unitary on physical qubit addresses at a time.

        Every target's gap since its previous operation is taken first
        (an overlap raises before any state changes).  The backend then
        applies the whole gate event at once: the targets decohere over
        their gaps, the gate acts instantaneously at its start time,
        and the gate error follows.  The qubits are marked busy until
        ``start_ns + duration_ns``.  With observability attached, the
        backend's gate histogram times the whole event, idle decay
        included.
        """
        if not qubits:
            raise PlantError(f"operation {name} has no target qubits")
        # _idle_gap inlined (the interpreter's per-gate path); () + t is t.
        index_of = self._index_of
        qubit_free_at = self._qubit_free_at
        indices = gaps = ()
        for address in qubits:
            index = index_of.get(address)
            free_at = qubit_free_at.get(address)
            if index is None or start_ns < free_at - 1e-9:
                self._idle_gap(address, start_ns)  # raises
            indices += (index,)
            gaps += (start_ns - free_at if start_ns > free_at else 0.0,)
        backend = self._backend or self.backend
        obs = self._observability
        if obs is not None:
            gate_start = obs.tracer.clock()
        backend.apply_gate_event(name, unitary, indices, gaps, self.noise,
                                 self.rng)
        if obs is not None:
            self._obs_kernels(obs)[1].record(
                obs.tracer.clock() - gate_start)
        end_ns = start_ns + duration_ns
        for address in qubits:
            qubit_free_at[address] = end_ns
        if self.recording is not None:
            self.recording.append(AppliedOperation(
                name, qubits, start_ns, duration_ns, unitary))

    def measure(self, qubit: int, start_ns: float,
                duration_ns: float, forced: int | None = None) -> int:
        """Projective z-measurement of a physical qubit.

        Returns the *physical* outcome (no assignment error); the
        measurement-discrimination unit applies the classical readout
        flip.  The qubit is busy for the full measurement duration.

        ``forced`` collapses the state onto a caller-chosen outcome
        instead of sampling — the branch-resolved replay engine uses it
        to re-run an interpreter shot along an already-sampled outcome
        prefix (the forced outcome was itself drawn from this state's
        pre-collapse distribution, so the statistics stay exact).
        With the recording open, the pre-collapse P(1) is computed once
        and handed to the backend's sample, which draws as without it.
        """
        index, gap = self._idle_gap(qubit, start_ns)
        backend = self.backend
        if gap:
            backend.apply_idle(index, gap, self.noise.decoherence)
        recording = self.recording
        p_one = (backend.probability_one(index) if recording is not None
                 else None)
        obs = self.observability
        if obs is not None:
            measure_start = obs.tracer.clock()
        if forced is None:
            result = backend.measure(index, self.rng, p_one)
        else:
            backend.collapse(index, forced)
            result = forced
        if obs is not None:
            self._obs_kernels(obs)[2].record(
                obs.tracer.clock() - measure_start)
        self._qubit_free_at[qubit] = start_ns + duration_ns
        if recording is not None:
            recording.append(AppliedOperation(
                "MEASZ", (qubit,), start_ns, duration_ns, p_one=p_one,
                raw=result))
        return result

    # ------------------------------------------------------------------
    # Inspection helpers (used by experiments and tests)
    # ------------------------------------------------------------------
    def probability_one(self, qubit: int) -> float:
        """Ideal P(1) of a physical qubit in the current state."""
        return self.backend.probability_one(self.qubit_index(qubit))

    def density_matrix(self) -> DensityMatrix:
        """Copy of the current joint state (dense backend only)."""
        return self.backend.density_matrix()
