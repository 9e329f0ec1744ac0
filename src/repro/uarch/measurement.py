"""Measurement discrimination unit (Fig. 9, right).

Responsibilities:

* when a measurement device operation triggers, start the readout on
  the plant (projective collapse at measurement start, busy for the
  full integration window);
* apply the classical assignment error of the discrimination
  electronics to the reported bit;
* deliver the result back to the Central Controller after the
  integration window plus the digital-link transport latency —
  the machine then updates the Q register (CFC) and the execution
  flags (fast conditional execution);
* optionally *inject mock results* per qubit, reproducing the paper's
  CFC verification where "the UHFQC is programmed to generate
  alternative mock measurement results" without touching real qubits.

Mock queues are plain per-qubit FIFOs: measuring a qubit with a
non-empty queue pops the next fabricated bit.  A draining queue makes
consecutive shots observe different values, so a run with any queued
mock result runs on the interpreter (the fast engines key only on
measurement outcomes).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.errors import ConfigurationError
from repro.quantum.plant import QuantumPlant
from repro.uarch.config import UarchConfig


@dataclass(frozen=True)
class PendingResult:
    """A measurement in flight: the result and when it arrives."""

    qubit: int
    raw_result: int
    reported_result: int
    measure_start_ns: float
    arrival_ns: float


class MeasurementUnit:
    """Models the UHFQCs plus the result path into the controller."""

    def __init__(self, plant: QuantumPlant, config: UarchConfig,
                 measurement_duration_cycles: int = 15):
        self.plant = plant
        self.config = config
        self.measurement_duration_cycles = measurement_duration_cycles
        self._mock_results: dict[int, deque[int]] = {}
        self._forced_results: deque[tuple[int, int]] = deque()

    # ------------------------------------------------------------------
    # Mock-result injection (CFC verification, Section 5)
    # ------------------------------------------------------------------
    def inject_mock_results(self, qubit: int, results) -> None:
        """Queue mock results for a qubit; they are consumed in order.

        While mock results remain queued for a qubit, measuring it does
        not involve the plant at all (the UHFQC fabricates the bit).
        """
        if qubit not in self.plant.topology.qubits:
            raise ConfigurationError(
                f"mock results for qubit {qubit}, which is not on chip "
                f"{self.plant.topology.name}")
        results = list(results)
        for result in results:
            if result not in (0, 1):
                raise ConfigurationError(f"mock result {result} not a bit")
        self._mock_results.setdefault(qubit, deque()).extend(results)

    def has_any_mock_results(self) -> bool:
        """Whether fabricated results remain queued for *any* qubit
        (a machine-level blocker of both fast engines: draining queues
        make consecutive shots observe different values)."""
        return any(self._mock_results.values())

    def clear_mock_results(self) -> None:
        """Drop all fabricated results (start of a fresh experiment)."""
        self._mock_results.clear()

    # ------------------------------------------------------------------
    # Forced outcomes (branch-resolved replay growth shots)
    # ------------------------------------------------------------------
    def force_results(self, outcomes) -> None:
        """Queue ``(raw, reported)`` pairs for the next measurements.

        Unlike mock results, forced results are *per shot* and keyed by
        measurement order, not qubit: the k-th measurement of the shot
        collapses the plant onto ``raw`` and reports ``reported``.  The
        replay engine uses this to drive an interpreter shot down an
        already-sampled outcome prefix (and the audit to shadow-run a
        cached one); once the queue drains, sampling continues with
        fresh randomness.  On a measurement served by a mock queue the
        mock wins (it models the UHFQC's programming and must drain):
        the forced pair for that measurement is consumed to keep the
        order-based alignment, but the mock value is what is reported.
        """
        for raw, reported in outcomes:
            if raw not in (0, 1) or reported not in (0, 1):
                raise ConfigurationError(
                    f"forced outcome ({raw}, {reported}) is not a bit "
                    f"pair")
            self._forced_results.append((raw, reported))

    def clear_forced_results(self) -> None:
        """Drop any unconsumed forced outcomes (end of a growth shot)."""
        self._forced_results.clear()

    # ------------------------------------------------------------------
    # Measurement execution
    # ------------------------------------------------------------------
    def measurement_duration_ns(self) -> float:
        """Integration window length in nanoseconds."""
        return self.measurement_duration_cycles * self.config.quantum_cycle_ns

    def start_measurement(self, qubit: int,
                          start_ns: float) -> PendingResult:
        """Begin a readout at ``start_ns``; returns the in-flight result.

        The arrival time is ``start + integration + transport``; the
        caller schedules the Q-register/flag updates at that time.
        """
        duration = self.measurement_duration_ns()
        queue = self._mock_results.get(qubit)
        if queue:
            raw = reported = queue.popleft()  # mocks bypass the analog chain
            if self._forced_results:
                # Keep the order-based forced queue aligned; the mock
                # value wins (see force_results).
                self._forced_results.popleft()
        elif self._forced_results:
            raw, reported = self._forced_results.popleft()
            self.plant.measure(qubit, start_ns, duration, forced=raw)
        else:
            raw = self.plant.measure(qubit, start_ns, duration)
            reported = self.plant.noise.readout.apply(raw, self.plant.rng)
        arrival = start_ns + duration + self.config.result_transport_ns
        return PendingResult(qubit=qubit, raw_result=raw,
                             reported_result=reported,
                             measure_start_ns=start_ns, arrival_ns=arrival)
