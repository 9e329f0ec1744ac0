"""Microarchitecture configuration: clocks, stage latencies, queue depths.

The Central Controller of the paper (Section 4.4) runs its timing
controller and fast-conditional-execution unit at 50 MHz (20 ns cycle)
and everything else at 100 MHz (10 ns cycle); the UHFQC link is a 32-bit
digital interface at 50 MHz.  The latency constants below model those
paths; they are calibrated once so the two measured feedback latencies
of Section 5 (~92 ns fast conditional, ~316 ns CFC) emerge from the
simulated pipelines (``tests/paper/test_sec5_feedback_latency.py``
checks both).

``late_policy`` selects what the timing controller does when the
reserve phase falls behind the timeline (the quantum-operation
issue-rate problem, Section 1.2):

* ``"strict"`` — raise :class:`~repro.core.errors.TimingViolationError`
  (the default; real experiments are mis-timed and must be rejected);
* ``"slip"`` — stall the timer until the event arrives and record the
  slippage, modelling a queue-driven timing controller that waits on an
  empty queue.  Used by the issue-rate tests
  (``tests/paper/test_sec43_issue_rate.py``) to *quantify* how far an
  ISA configuration falls behind.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class UarchConfig:
    """All tunable parameters of the QuMA v2 model."""

    # Clocks (Section 4.4).
    classical_cycle_ns: float = 10.0   # 100 MHz classical pipeline
    quantum_cycle_ns: float = 20.0     # 50 MHz timing / FCE domain

    # Classical pipeline behaviour.
    branch_taken_penalty_cycles: int = 4   # pipeline flush on taken BR
    fmr_unstall_penalty_cycles: int = 2    # restart after an FMR stall

    # Quantum pipeline depth: decode, microcode lookup, target-register
    # read / mask resolution, operation combination (Fig. 9) — in
    # classical cycles from issue to event-queue insertion.
    quantum_pipeline_depth_cycles: int = 6

    # Measurement result path (UHFQC -> Central Controller).
    result_transport_ns: float = 28.0  # 16-bit link serialization
    result_ingest_ns: float = 12.0     # CC-internal capture of the result

    # Fast-conditional-execution path (Section 4.3, measured ~92 ns).
    flag_update_ns: float = 20.0       # combinatorial flag refresh (50 MHz)
    fce_evaluation_ns: float = 20.0    # go/no-go decision at trigger time
    codeword_output_ns: float = 40.0   # 32-bit codeword interface + device

    # CFC-only resynchronisation: Q-register write into the classical
    # domain plus the cross-domain handshake releasing a stalled FMR.
    qreg_write_ns: float = 40.0
    fmr_resync_ns: float = 40.0

    # Queue capacities (finite FIFOs; the reserve phase stalls on a full
    # queue, bounding run-ahead like the hardware).
    timing_queue_depth: int = 1024
    event_queue_depth: int = 4096

    # Behaviour when an event is reserved after its trigger due time.
    late_policy: str = "strict"

    # Per-shot watchdog: abort any shot whose simulated timeline passes
    # this many nanoseconds (None disables the guard).  A shot that
    # exceeds the budget raises
    # :class:`~repro.core.errors.ShotTimeoutError` instead of spinning —
    # the runtime guard against stalled measurement paths (an FMR
    # waiting on a result that never arrives) and runaway loops.
    shot_time_budget_ns: float | None = None

    def __post_init__(self) -> None:
        if self.classical_cycle_ns <= 0 or self.quantum_cycle_ns <= 0:
            raise ConfigurationError("cycle times must be positive")
        if self.late_policy not in ("strict", "slip"):
            raise ConfigurationError(
                f"late_policy must be 'strict' or 'slip', "
                f"got {self.late_policy!r}")
        if self.timing_queue_depth < 1 or self.event_queue_depth < 1:
            raise ConfigurationError("queue depths must be at least 1")
        if (self.shot_time_budget_ns is not None
                and self.shot_time_budget_ns <= 0):
            raise ConfigurationError(
                "shot_time_budget_ns must be positive (or None)")

    @property
    def fast_conditional_path_ns(self) -> float:
        """Result-in to digital-out along the fast-conditional path when
        the trigger is immediate: ingest + flag update + evaluation +
        codeword output.  Calibration target: ~92 ns (Section 5)."""
        return (self.result_ingest_ns + self.flag_update_ns +
                self.fce_evaluation_ns + self.codeword_output_ns)


def slip_config(base: UarchConfig | None = None) -> UarchConfig:
    """A copy of a configuration with the slip (non-raising) policy."""
    base = base or UarchConfig()
    from dataclasses import replace
    return replace(base, late_policy="slip")
