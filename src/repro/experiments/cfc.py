"""CFC verification and feedback-latency measurement (Section 5).

Two reproductions:

* **CFC verification** — the Fig. 5 program with the measurement unit
  "programmed to generate alternative mock measurement results"; the
  observable is strict X/Y alternation of the conditioned operation
  (the paper verified the alternating digital outputs on a scope).
* **Feedback latencies** — "the time between sending the measurement
  result into the Central Controller and receiving the digital output
  based on the feedback": ~92 ns for fast conditional execution and
  ~316 ns for CFC.  The reproduction measures both paths on the
  simulated microarchitecture with minimal-wait probe programs,
  scanning the programmed wait to find the shortest correct schedule
  (shorter waits would sample a stale flag / stall the timeline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.runner import ExperimentSetup
from repro.quantum.noise import NoiseModel
from repro.uarch.replay import EngineStats

PAPER_FAST_CONDITIONAL_LATENCY_NS = 92.0
PAPER_CFC_LATENCY_NS = 316.0

#: Fig. 5's program (qubit 1 renamed to on-chip qubit 2, as the
#: two-qubit setup names its qubits 0 and 2).
FIG5_PROGRAM = """
SMIS S0, {0}
SMIS S2, {2}
LDI R0, 1
MEASZ S2
QWAIT 30
FMR R1, Q2
CMP R1, R0
BR EQ, eq_path
ne_path:
X S0
BR ALWAYS, next
eq_path:
Y S0
next:
STOP
"""

#: Two rounds of measure -> FMR -> branch -> conditioned X/Y (Fig. 5
#: doubled, with a superposing X90 before each measurement so both
#: branches stay reachable on the real plant).  The CFC workhorse of
#: the branch-resolved replay cross-checks.
CFC_TWO_ROUND_PROGRAM = """
SMIS S0, {0}
SMIS S2, {2}
LDI R0, 1
QWAIT 10000
X90 S2
MEASZ S2
QWAIT 50
FMR R1, Q2
CMP R1, R0
BR EQ, eq1
X S0
BR ALWAYS, join1
eq1:
Y S0
join1:
X90 S2
MEASZ S2
QWAIT 50
FMR R2, Q2
CMP R2, R0
BR EQ, eq2
X S0
BR ALWAYS, join2
eq2:
Y S0
join2:
QWAIT 50
STOP
"""


#: The scratch-memory CFC kernel: both round results are spilled to
#: data memory, reloaded, combined and deposited for the host — the
#: comprehensive-benchmark shape that mixes feedback with same-shot
#: ST -> LD traffic.  Every load is dominated by a same-shot store to
#: its address, so the kill-analysis in :mod:`repro.uarch.dataflow`
#: proves the traffic shot-local and the program rides the replay
#: engine (``EngineStats.killed_loads``); the reloaded first-round
#: result steers the final conditioned X/Y exactly like the pure-GPR
#: CFC programs.
CFC_SCRATCH_PROGRAM = """
SMIS S0, {0}
SMIS S2, {2}
LDI R0, 1
LDI R2, 64
QWAIT 10000
X90 S2
MEASZ S2
QWAIT 50
FMR R1, Q2
ST R1, R2(0)
X90 S2
MEASZ S2
QWAIT 50
FMR R3, Q2
ST R3, R2(4)
LD R4, R2(0)
LD R5, R2(4)
ADD R6, R4, R5
ST R6, R2(8)
CMP R4, R0
BR EQ, eq
X S0
BR ALWAYS, join
eq:
Y S0
join:
QWAIT 50
STOP
"""


@dataclass
class CFCVerificationResult:
    """Outcome of the mock-result alternation test."""

    applied_operations: list[str]
    #: Per-run engine statistics — mock-result programs ride the
    #: branch-resolved replay path (the draining queues key the
    #: timeline tree's roots), so this documents the engine mix.
    engine_stats: EngineStats = field(default_factory=EngineStats)

    @property
    def alternates(self) -> bool:
        """Whether the output strictly alternates X, Y, X, Y, ..."""
        expected = ["X", "Y"] * (len(self.applied_operations) // 2 + 1)
        return self.applied_operations == \
            expected[:len(self.applied_operations)]


def run_cfc_verification(rounds: int = 16, seed: int = 3
                         ) -> CFCVerificationResult:
    """Run Fig. 5 with alternating mock results (0, 1, 0, 1, ...).

    Each round is one shot; the conditioned operation on qubit 0 is
    read from the shot's trigger records (operations that actually
    drove the ADI), streamed shot by shot.
    """
    setup = ExperimentSetup.create(noise=NoiseModel.noiseless(),
                                   seed=seed)
    pattern = [i % 2 for i in range(rounds)]
    setup.machine.measurement_unit.inject_mock_results(2, pattern)
    assembled = setup.assemble_text(FIG5_PROGRAM)
    applied: list[str] = []
    for trace in setup.run_iter(assembled, rounds):
        applied.extend(record.name for record in trace.triggers
                       if record.qubits == (0,) and record.executed)
    return CFCVerificationResult(applied_operations=applied,
                                 engine_stats=setup.last_engine_stats)


@dataclass
class LatencyResult:
    """Measured feedback latencies of both mechanisms."""

    fast_conditional_ns: float
    cfc_ns: float

    def fast_conditional_matches(self, tolerance_ns: float = 25.0) -> bool:
        return abs(self.fast_conditional_ns -
                   PAPER_FAST_CONDITIONAL_LATENCY_NS) <= tolerance_ns

    def cfc_matches(self, tolerance_ns: float = 60.0) -> bool:
        return abs(self.cfc_ns - PAPER_CFC_LATENCY_NS) <= tolerance_ns


def _fast_conditional_probe(setup: ExperimentSetup,
                            wait_cycles: int) -> float | None:
    """Latency of one fast-conditional probe, or None if invalid.

    Program: measure, wait, conditional C_X.  The probe is invalid when
    the C_X triggers before the execution flag refreshed (stale-flag
    race: the gate would be cancelled although the result was |1>).
    """
    machine = setup.machine
    machine.measurement_unit.clear_mock_results()
    machine.measurement_unit.inject_mock_results(2, [1])
    assembled = setup.assemble_text(f"""
    SMIS S2, {{2}}
    MEASZ S2
    QWAIT {wait_cycles}
    C_X S2
    STOP
    """)
    machine.load(assembled)
    trace = machine.run_shot()
    cx = [t for t in trace.triggers if t.name == "C_X"]
    if not cx or not cx[0].executed:
        return None  # stale flag: wait too short
    result_arrival = trace.results[0].arrival_ns
    if cx[0].trigger_ns < result_arrival:
        return None
    return cx[0].output_ns - result_arrival


def _cfc_probe(setup: ExperimentSetup, wait_cycles: int) -> float | None:
    """Latency of one CFC probe, or None if the schedule was invalid."""
    from repro.core.errors import TimingViolationError
    machine = setup.machine
    machine.measurement_unit.clear_mock_results()
    machine.measurement_unit.inject_mock_results(2, [1])
    assembled = setup.assemble_text(f"""
    SMIS S0, {{0}}
    SMIS S2, {{2}}
    LDI R0, 1
    MEASZ S2
    QWAIT {wait_cycles}
    FMR R1, Q2
    CMP R1, R0
    BR EQ, eq_path
    X S0
    BR ALWAYS, next
    eq_path:
    Y S0
    next:
    STOP
    """)
    machine.load(assembled)
    try:
        trace = machine.run_shot()
    except TimingViolationError:
        return None
    conditioned = [t for t in trace.triggers if t.name in ("X", "Y")]
    if not conditioned:
        return None
    result_arrival = trace.results[0].arrival_ns
    return conditioned[0].output_ns - result_arrival


def measure_feedback_latencies(seed: int = 0) -> LatencyResult:
    """Scan programmed waits for the minimal correct latency of each path."""
    setup = ExperimentSetup.create(noise=NoiseModel.noiseless(), seed=seed)
    fast = min((latency for wait in range(14, 40)
                if (latency := _fast_conditional_probe(setup, wait))
                is not None), default=float("nan"))
    cfc = min((latency for wait in range(14, 60)
               if (latency := _cfc_probe(setup, wait)) is not None),
              default=float("nan"))
    return LatencyResult(fast_conditional_ns=fast, cfc_ns=cfc)


def format_latency_report(result: LatencyResult) -> str:
    """Render latencies vs the paper's measurements."""
    return (
        f"feedback latency (result into controller -> digital output):\n"
        f"  fast conditional execution: "
        f"{result.fast_conditional_ns:.0f} ns   (paper: ~92 ns)\n"
        f"  comprehensive feedback control: "
        f"{result.cfc_ns:.0f} ns   (paper: ~316 ns)")
