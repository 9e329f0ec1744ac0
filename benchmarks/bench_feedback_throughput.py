"""E16 — branch-resolved replay: feedback-program shot throughput.

PR 1's shot-replay engine only covered feedback-free programs; every
workload exercising eQASM's headline features — fast conditional
execution (active reset, Fig. 4) and CFC via ``FMR`` (Fig. 5) — fell
back to the cycle-accurate interpreter.  This benchmark measures
end-to-end shot throughput of the interpreter vs the branch-resolved
timeline tree (:mod:`repro.uarch.replay`) on exactly those feedback
programs, and cross-checks per-outcome-path timing bit-identity plus
measurement statistics between the engines.

Four scenarios cover the formerly fallback-only cases:

* **mock_cfc** — the Fig. 5 CFC-verification program with a long
  alternating mock-result queue; the draining queue keys the timeline
  tree's roots (cursor fingerprints), so the run replays and the
  emitted X/Y alternation is cross-checked shot by shot against the
  interpreter;
* **dead_store_sweep** — a CFC program depositing its measurement
  result to data memory (a dead store, whitelisted by the dataflow
  pass) run as a repeated sweep: the same binary is ``run()`` several
  times and later runs reuse the saturated tree from the machine's
  cross-run replay cache (zero growth shots);
* **looped_surface_code** — the seven-qubit multi-round syndrome
  binary written as a genuine counted ``SUB``/``CMP``/``BR`` loop
  (not compile-time unrolled): the dataflow pass resolves the trip
  count, so the looping binary rides replay
  (``EngineStats.bounded_loops``).  Measured *three ways* since the
  stabilizer plant backend landed: the dense-matrix interpreter (the
  historical wall), the tableau interpreter (every plant operation
  polynomial — gated at >= 10x over dense when recording) and the
  replay tree (growth shots on the tableau, cached shots pure trace
  splices — both fast paths compound);
* **scratch_spill_reload** — the comprehensive-benchmark kernel that
  spills both CFC round results to data memory, reloads and combines
  them: every load is killed by a same-shot store
  (``EngineStats.killed_loads``), so the same-shot ST -> LD traffic
  no longer forces the interpreter;
* **surface17** — distance-3 syndrome extraction on the 17-qubit chip
  (64-bit instantiation): a workload the dense backend cannot
  represent at all (a 2^17-dim density matrix is ~256 GB), run
  tableau-interpreter vs tableau-replay.  Backend selection is
  asserted per scenario: stabilizer for every Clifford scenario here,
  dense for the Rabi/AllXY programs of the feedback-free bench;
* **surface49** — distance-5 syndrome extraction on the 49-qubit chip
  through the 192-bit spec-driven instantiation
  (``specs/surface49-192bit.json``, 160-bit pair masks): the widest
  binary the encoder serves, run tableau-interpreter vs tableau-replay
  and gated separately (``SURFACE49_CHECK_TARGET``) because its
  12-measurement rounds grow the outcome tree faster than the other
  scenarios at smoke shot counts.

The looped-surface-code and surface17 scenarios additionally measure
the **Pauli-frame batched engine**: the feedback-free program variants
(``reset=False`` — no conditional ``C_X``) under stochastic Pauli
*gate* noise, the regime where per-shot trajectory sampling blocks the
replay tree.  One noise-free reference tableau shot records the
Clifford sequence; frames then propagate errors for whole shot batches
with vectorised numpy ops (:mod:`repro.quantum.pauli_frame`).  The
surface-17 frame speedup over the per-shot tableau interpreter is
gated — >= 25x when recording, >= 10x in CI (``--check``).

Runs two ways:

* under pytest (``pytest benchmarks/bench_feedback_throughput.py``)
  as a regression gate asserting the >= 5x speedup target;
* as a script (``python benchmarks/bench_feedback_throughput.py
  [--shots N] [--check] [--output BENCH_feedback_throughput.json]``)
  — the recorded numbers live in ``BENCH_feedback_throughput.json``
  at the repository root.  ``--check`` gates at the CI floor (3x),
  below the 5x recording target, so shared-runner jitter does not
  flake the build.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # script mode without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core import Assembler, rotated_surface_instantiation, \
    seven_qubit_instantiation, two_qubit_instantiation
from repro.experiments.cfc import (
    CFC_SCRATCH_PROGRAM,
    CFC_TWO_ROUND_PROGRAM,
    FIG5_PROGRAM,
)
from repro.experiments.reset import FIG4_PROGRAM
from repro.experiments.runner import ExperimentSetup
from repro.experiments.surface_code import looped_surface_code_program
from repro.quantum import NoiseModel, QuantumPlant
from repro.quantum.noise import DecoherenceModel, GateErrorModel
from repro.topology.library import rotated_surface_layout
from repro.uarch import QuMAv2
from repro.workloads.rotated_surface import rotated_surface_circuit

#: Required end-to-end speedup when recording BENCH_ numbers.
SPEEDUP_TARGET = 5.0
#: CI gate (``--check``): regressions below this fail the build.
CHECK_TARGET = 3.0
#: Required tableau-over-dense interpreter speedup on the looped
#: surface-code scenario when recording.
TABLEAU_SPEEDUP_TARGET = 10.0
#: CI floor for the tableau interpreter speedup.
TABLEAU_CHECK_TARGET = 5.0
#: CI floor for the surface-49 replay speedup.  The distance-5 replay
#: ratio is gated separately from ``min_speedup``: one round has 12
#: readout-noisy measurements, so at smoke shot counts a larger
#: fraction of shots are tree-growth (interpreter) shots and the
#: ratio sits near ~4x, converging past 5x at recording scale
#: (10.2x recorded at 2000 shots) — a shared 3x gate would flake
#: while every other scenario clears 17x.
SURFACE49_CHECK_TARGET = 2.0
#: Recording target for the Pauli-frame batched engine over the
#: per-shot tableau interpreter on the stochastic-Pauli-noise
#: scenarios (recorded 61x on surface-17 and 164x on the looped
#: surface code: one reference tableau shot, then vectorised frame
#: propagation per batch).
FRAME_SPEEDUP_TARGET = 25.0
#: CI floor for the frame-batched speedup (shared-runner margin).
FRAME_CHECK_TARGET = 10.0

PROGRAMS = {"active_reset": FIG4_PROGRAM, "cfc": CFC_TWO_ROUND_PROGRAM}

#: The dead_store_sweep program: two-branch CFC feedback whose result
#: is deposited into data memory for the host — a store the dataflow
#: pass proves dead (no LD), so the program replays.
DEAD_STORE_PROGRAM = """
SMIS S0, {0}
SMIS S2, {2}
LDI R0, 1
QWAIT 10000
X90 S2
MEASZ S2
QWAIT 50
FMR R1, Q2
CMP R1, R0
BR EQ, eq
X S0
BR ALWAYS, join
eq:
Y S0
join:
LDI R2, 64
ST R1, R2(0)
QWAIT 50
STOP
"""

#: run() calls per engine in the dead_store_sweep scenario (the sweep
#: whose later runs must hit the cross-run tree cache).
SWEEP_RUNS = 5

#: Syndrome rounds of the looped surface-code binary.
SURFACE_CODE_ROUNDS = 4

#: Sampling fraction of the self-verifying replay audit in the
#: overhead scenario (the production-recommended spot check).
AUDIT_FRACTION = 0.01
#: Recording gate on the audit *machinery* overhead — the cost of the
#: audit bookkeeping beyond the unavoidable shadow interpreter shots.
#: The end-to-end overhead at f=0.01 is dominated by those shadow runs
#: (each costs one interpreter shot, ~50x a replayed shot on active
#: reset, so ~50% end to end); that physics is recorded honestly but
#: not gated — what must stay cheap is everything the audit adds *on
#: top*: forcing results, field comparison, credit accounting.
AUDIT_MACHINERY_TARGET = 0.05
#: CI floor for the machinery overhead (shared-runner jitter margin).
AUDIT_MACHINERY_CHECK = 0.25
#: Repeats per timed replay run in the audit-overhead scenario; the
#: minimum is taken (the machinery delta is small, so jitter matters).
AUDIT_REPEATS = 3

#: Recording gate on fully-enabled observability overhead (metrics +
#: tracing, sample_fraction=1.0) for the replayed active-reset run —
#: the hottest instrumented path (a cached shot is ~10 us, so every
#: nanosecond of hook cost shows here first).
OBS_OVERHEAD_TARGET = 0.05
#: CI floor for the observability overhead (shared-runner jitter).
OBS_OVERHEAD_CHECK = 0.15
#: Interleaved repeats per arm of the observability A/B (min taken).
OBS_REPEATS = 4


def _readout_only_noise() -> NoiseModel:
    """Readout flips only: raw syndromes stay deterministic (the
    outcome tree stays compact at 8 measurements per shot) while the
    reported bits — and the C_X resets they steer — keep every branch
    of the feedback machinery genuinely exercised."""
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=0.0,
                                  two_qubit_error=0.0))


def _pauli_noise() -> NoiseModel:
    """Stochastic Pauli gate noise (negligible decoherence): the
    per-shot trajectory sampling blocks the replay tree, so these
    runs either pay the interpreter per shot or — when the gate
    sequence cannot fork on outcomes — ride the Pauli-frame batch."""
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=0.001,
                                  two_qubit_error=0.005))


def _make_machine(text: str, seed: int, isa=None,
                  noise: NoiseModel | None = None,
                  plant_backend: str = "auto",
                  audit_fraction: float = 0.0) -> QuMAv2:
    isa = isa or two_qubit_instantiation()
    plant = QuantumPlant(isa.topology,
                         noise=noise if noise is not None else NoiseModel(),
                         rng=np.random.default_rng(seed))
    machine = QuMAv2(isa, plant, plant_backend=plant_backend,
                     audit_fraction=audit_fraction)
    machine.load(Assembler(isa).assemble_text(text))
    return machine


def _time_run(machine: QuMAv2, shots: int, use_replay: bool):
    start = time.perf_counter()
    traces = machine.run(shots, use_replay=use_replay)
    elapsed = time.perf_counter() - start
    return traces, elapsed


def _check_paths(reference_traces, traces) -> int:
    """Per-outcome-path timing identity between two engines.

    Every trace whose reported outcomes the reference run also produced
    must carry bit-identical trigger, slip and classical-time records.
    Returns how many traces were checked (at least one must be).
    """
    by_path = {}
    for trace in reference_traces:
        by_path.setdefault(trace.outcome_path(), trace)
    checked = 0
    for trace in traces:
        reference = by_path.get(trace.outcome_path())
        if reference is None:
            continue
        assert reference.triggers == trace.triggers
        assert reference.slips == trace.slips
        assert reference.classical_time_ns == trace.classical_time_ns
        checked += 1
    assert checked > 0, "no outcome path common to both engines"
    return checked


def _check_syndrome_rates(reference_traces, traces, ancillas,
                          rounds: int, label: str = "") -> None:
    """Per-ancilla, per-round reported-bit rates agree within ~4.5
    sigma of the difference of two p=0.5 samples (the smaller run sets
    the tolerance, so low-shot smoke runs stay sound)."""
    tolerance = 4.5 * math.sqrt(
        0.5 / min(len(reference_traces), len(traces)))

    def rate(run, ancilla, round_index):
        return sum([r.reported_result for r in t.results
                    if r.qubit == ancilla][round_index]
                   for t in run) / len(run)

    for ancilla in ancillas:
        for round_index in range(rounds):
            assert abs(rate(reference_traces, ancilla, round_index)
                       - rate(traces, ancilla, round_index)) < tolerance, \
                f"{label}ancilla {ancilla} round {round_index}"


def _measure_frame_engine(make, shots: int, interp_shots: int,
                          ancillas, rounds: int) -> dict:
    """Per-shot tableau interpreter vs the Pauli-frame batch.

    ``make(offset)`` builds a machine (stochastic Pauli gate noise, a
    feedback-free program) with a seed offset.  The trajectory noise
    blocks the replay tree, so the per-shot baseline is the tableau
    *interpreter* — sampled at ``interp_shots`` and compared as a
    rate, the same convention as the dense baselines.  Cross-checks:
    frame-engine selection and accounting, per-outcome-path timing
    identity against the interpreter, and per-ancilla per-round
    syndrome rates (the Pauli noise makes them stochastic, so this
    exercises the frames' error propagation, not just the splicing).
    """
    interpreter = make(0)
    interp_traces, interp_s = _time_run(interpreter, interp_shots,
                                        use_replay=False)
    assert interpreter.last_run_engine == "interpreter"
    assert interpreter.last_plant_backend == "stabilizer", \
        f"tableau refused: {interpreter.plant_backend_reason}"

    frame = make(1)
    frame_traces, frame_s = _time_run(frame, shots, use_replay=True)
    assert frame.last_run_engine == "frame", \
        f"frame refused: {frame.replay_fallback_reason}"
    assert frame.last_plant_backend == "stabilizer"
    stats = frame.engine_stats
    assert stats.frame_batched == shots
    assert stats.frame_reference_shots == 1
    assert not stats.degradations, stats.degradations

    for trace in interp_traces + frame_traces:
        assert len(trace.results) == len(ancillas) * rounds

    # Feedback-free programs have one timing path; every frame trace
    # must splice onto it bit-identically.
    checked = _check_paths(interp_traces, frame_traces)
    _check_syndrome_rates(interp_traces, frame_traces, ancillas, rounds)

    interp_rate = interp_shots / interp_s
    frame_rate = shots / frame_s
    return {
        "frame_noise_interpreter_shots_per_sec": round(interp_rate, 1),
        "frame_shots_per_sec": round(frame_rate, 1),
        "frame_speedup": round(frame_rate / interp_rate, 2),
        "frame_paths_checked": checked,
        "frame_engine_stats": stats.as_dict(),
    }


def measure_program(name: str, shots: int = 2000, seed: int = 13) -> dict:
    """Throughput of both engines on one program, with cross-checks."""
    interpreter = _make_machine(PROGRAMS[name], seed)
    interp_traces, interp_s = _time_run(interpreter, shots,
                                        use_replay=False)
    assert interpreter.last_run_engine == "interpreter"

    replay = _make_machine(PROGRAMS[name], seed)
    replay_traces, replay_s = _time_run(replay, shots, use_replay=True)
    assert replay.last_run_engine == "replay", \
        f"replay refused: {replay.replay_fallback_reason}"
    # Calibrated T1/T2 noise is not Pauli: these scenarios must stay
    # on the dense backend (the selection gate's negative case).
    assert replay.last_plant_backend == "dense"
    stats = replay.engine_stats

    # Per-outcome-path timing equivalence: every path the replay engine
    # produced must have bit-identical timing records to an interpreter
    # trace that followed the same reported outcomes.
    checked = _check_paths(interp_traces, replay_traces)

    # Statistical equivalence of the final per-qubit outcome (~4.5
    # sigma of the difference of two p=0.5 samples, so low-shot smoke
    # runs stay sound).
    tolerance = 4.5 * math.sqrt(0.5 / shots)
    for qubit in {r.qubit for r in interp_traces[0].results}:
        interp_p = sum(t.last_result(qubit) for t in interp_traces) / shots
        replay_p = sum(t.last_result(qubit) for t in replay_traces) / shots
        assert abs(interp_p - replay_p) < tolerance, \
            f"{name} qubit {qubit}: {interp_p} vs {replay_p}"

    return {
        "shots": shots,
        "interpreter_shots_per_sec": round(shots / interp_s, 1),
        "replay_shots_per_sec": round(shots / replay_s, 1),
        "speedup": round(interp_s / replay_s, 2),
        "paths_checked": checked,
        "engine_stats": stats.as_dict(),
    }


def measure_mock_cfc(shots: int = 2000, seed: int = 13) -> dict:
    """Mock-result CFC verification at shot-sweep scale.

    Both machines get the same long alternating mock queue; the
    outcomes are therefore *fully deterministic per shot index*, so the
    cross-check is the strongest possible one — every shot's timing
    records must be bit-identical between the engines, and the applied
    X/Y alternation (the paper's scope observable) must be exact.
    """
    pattern = [i % 2 for i in range(shots)]

    def applied_ops(trace):
        return [r.name for r in trace.triggers
                if r.qubits == (0,) and r.executed]

    interpreter = _make_machine(FIG5_PROGRAM, seed)
    interpreter.measurement_unit.inject_mock_results(2, pattern)
    interp_traces, interp_s = _time_run(interpreter, shots,
                                        use_replay=False)
    assert interpreter.last_run_engine == "interpreter"

    replay = _make_machine(FIG5_PROGRAM, seed)
    replay.measurement_unit.inject_mock_results(2, pattern)
    replay_traces, replay_s = _time_run(replay, shots, use_replay=True)
    assert replay.last_run_engine == "replay", \
        f"replay refused: {replay.replay_fallback_reason}"
    stats = replay.engine_stats

    expected = [["X"], ["Y"]] * (shots // 2 + 1)
    for index, (interp_trace, replay_trace) in enumerate(
            zip(interp_traces, replay_traces)):
        assert interp_trace.triggers == replay_trace.triggers
        assert interp_trace.slips == replay_trace.slips
        assert interp_trace.classical_time_ns == \
            replay_trace.classical_time_ns
        assert applied_ops(replay_trace) == expected[index], \
            f"shot {index} broke the mock alternation"
    assert not replay.measurement_unit.has_mock_results(2)
    assert stats.mock_results_replayed == stats.replay_shots

    return {
        "shots": shots,
        "interpreter_shots_per_sec": round(shots / interp_s, 1),
        "replay_shots_per_sec": round(shots / replay_s, 1),
        "speedup": round(interp_s / replay_s, 2),
        "paths_checked": shots,
        "engine_stats": stats.as_dict(),
    }


def measure_sweep_reuse(shots: int = 2000, seed: int = 13) -> dict:
    """Dead-store CFC program swept: SWEEP_RUNS run() calls per engine.

    The replay machine must grow its tree once and serve every later
    run from the cross-run cache (``tree_reused`` with zero growth
    shots); the recorded speedup is the whole-sweep wall-clock ratio.
    """
    per_run = max(1, shots // SWEEP_RUNS)

    interpreter = _make_machine(DEAD_STORE_PROGRAM, seed)
    start = time.perf_counter()
    interp_traces = []
    for _ in range(SWEEP_RUNS):
        interp_traces.extend(interpreter.run(per_run, use_replay=False))
    interp_s = time.perf_counter() - start
    assert interpreter.last_run_engine == "interpreter"

    replay = _make_machine(DEAD_STORE_PROGRAM, seed)
    start = time.perf_counter()
    replay_traces = []
    reuse_stats = []
    for _ in range(SWEEP_RUNS):
        replay_traces.extend(replay.run(per_run, use_replay=True))
        reuse_stats.append(replay.engine_stats)
    replay_s = time.perf_counter() - start
    assert replay.last_run_engine == "replay", \
        f"replay refused: {replay.replay_fallback_reason}"
    assert not reuse_stats[0].tree_reused
    for stats in reuse_stats[1:]:
        assert stats.tree_reused, "cross-run tree cache missed"
    growth_after_first = sum(stats.interpreter_shots
                             for stats in reuse_stats[1:])
    assert growth_after_first == 0, \
        f"{growth_after_first} growth shots after the first run"

    checked = _check_paths(interp_traces, replay_traces)

    total = SWEEP_RUNS * per_run
    return {
        "shots": total,
        "runs": SWEEP_RUNS,
        "interpreter_shots_per_sec": round(total / interp_s, 1),
        "replay_shots_per_sec": round(total / replay_s, 1),
        "speedup": round(interp_s / replay_s, 2),
        "paths_checked": checked,
        "growth_shots_after_first_run": growth_after_first,
        "engine_stats": reuse_stats[-1].as_dict(),
    }


def measure_looped_surface_code(shots: int = 2000, seed: int = 13) -> dict:
    """Multi-round surface-code syndrome extraction as a counted loop.

    Three-way measurement: the dense-matrix interpreter (the 128x128-
    per-gate wall, sampled at a reduced shot count and extrapolated as
    a rate), the stabilizer-tableau interpreter (automatic backend
    selection — every gate Clifford, noise readout-only) and the
    replay tree on top of the tableau.  Cross-checks: per-outcome-path
    timing bit-identity between the tableau engines, per-ancilla
    syndrome statistics across all three runs, and the backend
    selections themselves.
    """
    program = looped_surface_code_program(SURFACE_CODE_ROUNDS)

    def make(machine_seed, plant_backend="auto"):
        return _make_machine(program, machine_seed,
                             isa=seven_qubit_instantiation(),
                             noise=_readout_only_noise(),
                             plant_backend=plant_backend)

    # Dense-interpreter baseline: a few shots/s, so sample fewer shots
    # and compare rates (the recorded throughputs are rates anyway).
    dense_shots = max(50, shots // 10)
    dense = make(seed, plant_backend="dense")
    dense_traces, dense_s = _time_run(dense, dense_shots,
                                      use_replay=False)
    assert dense.last_run_engine == "interpreter"
    assert dense.last_plant_backend == "dense"

    tableau = make(seed + 1)
    tableau_traces, tableau_s = _time_run(tableau, shots,
                                          use_replay=False)
    assert tableau.last_run_engine == "interpreter"
    assert tableau.last_plant_backend == "stabilizer", \
        f"tableau refused: {tableau.plant_backend_reason}"

    replay = make(seed + 2)
    replay_traces, replay_s = _time_run(replay, shots, use_replay=True)
    assert replay.last_run_engine == "replay", \
        f"replay refused: {replay.replay_fallback_reason}"
    assert replay.last_plant_backend == "stabilizer"
    assert replay.replay_fallback_reason is None
    stats = replay.engine_stats
    assert stats.bounded_loops == 1, "the loop was not statically bounded"

    for trace in dense_traces + tableau_traces + replay_traces:
        assert len(trace.results) == 2 * SURFACE_CODE_ROUNDS

    checked = _check_paths(tableau_traces, replay_traces)

    # Per-ancilla, per-round syndrome rates must agree statistically —
    # across engines *and* across plant backends (the dense run has
    # fewer shots, so its sampling error dominates the tolerance).
    _check_syndrome_rates(tableau_traces, replay_traces, (2, 4),
                          SURFACE_CODE_ROUNDS, "replay ")
    _check_syndrome_rates(tableau_traces, dense_traces, (2, 4),
                          SURFACE_CODE_ROUNDS, "dense ")

    # Pauli-frame batch: under stochastic gate noise the replay tree
    # is blocked (per-shot trajectory sampling), and the feedback-free
    # loop variant (no conditional C_X) keeps the Clifford sequence
    # shot-invariant — one reference tableau shot, then vectorised
    # frame propagation.
    frame_program = looped_surface_code_program(SURFACE_CODE_ROUNDS,
                                                reset=False)

    def make_frame(offset):
        return _make_machine(frame_program, seed + 3 + offset,
                             isa=seven_qubit_instantiation(),
                             noise=_pauli_noise())

    frame = _measure_frame_engine(make_frame, shots=shots,
                                  interp_shots=max(100, shots // 10),
                                  ancillas=(2, 4),
                                  rounds=SURFACE_CODE_ROUNDS)

    dense_rate = dense_shots / dense_s
    tableau_rate = shots / tableau_s
    replay_rate = shots / replay_s
    return {
        "shots": shots,
        "rounds": SURFACE_CODE_ROUNDS,
        "interpreter_shots_per_sec": round(dense_rate, 1),
        "tableau_interpreter_shots_per_sec": round(tableau_rate, 1),
        "tableau_interpreter_speedup": round(tableau_rate / dense_rate,
                                             2),
        "replay_shots_per_sec": round(replay_rate, 1),
        "speedup": round(replay_rate / dense_rate, 2),
        "paths_checked": checked,
        "engine_stats": stats.as_dict(),
        **frame,
    }


#: Syndrome rounds of the rotated-surface scenarios, by distance.
#: Distance 3 keeps 2 rounds, so its 8-measurement outcome tree
#: saturates within a smoke run; distance 5 keeps 1, so the tree stays
#: at 12 reported bits (two rounds would give 2^24 possible paths).
SURFACE_ROUNDS = {3: 2, 5: 1}


def measure_rotated_surface(distance: int, rounds: int,
                            shots: int = 2000, seed: int = 13,
                            interp_shots: int | None = None,
                            frame_interp_shots: int | None = None) -> dict:
    """Distance-``d`` syndrome extraction on the rotated surface chip.

    This scenario has no dense baseline by construction: a 17-qubit
    density matrix is a 2^17 x 2^17 complex array (~256 GB), a 49-qubit
    one ~2^101 bytes, which is exactly why the stabilizer backend
    exists.  Measured tableau-interpreter vs tableau-replay through the
    compiled wide binary (64-bit words at d=3; 192-bit words and
    160-bit pair masks from ``specs/surface49-192bit.json`` at d=5),
    with the usual timing-bit and statistics cross-checks.  The
    interpreter baseline runs ``interp_shots`` shots (default: all of
    them) and is compared as a rate — a 49-qubit tableau interpreter
    shot is expensive, which is what the replay tree and the
    Pauli-frame batch amortise.
    """
    interp_shots = interp_shots or shots
    setup = ExperimentSetup.create(
        isa=rotated_surface_instantiation(distance),
        noise=_readout_only_noise(), seed=seed)
    ancillas = rotated_surface_layout(distance).z_ancillas
    assembled = setup.compile_circuit(
        rotated_surface_circuit(distance, rounds=rounds))

    def make(machine_seed):
        isa = rotated_surface_instantiation(distance)
        plant = QuantumPlant(isa.topology, noise=_readout_only_noise(),
                             rng=np.random.default_rng(machine_seed))
        machine = QuMAv2(isa, plant)
        machine.load(assembled)
        return machine

    interpreter = make(seed)
    interp_traces, interp_s = _time_run(interpreter, interp_shots,
                                        use_replay=False)
    assert interpreter.last_run_engine == "interpreter"
    assert interpreter.last_plant_backend == "stabilizer", \
        f"tableau refused: {interpreter.plant_backend_reason}"

    replay = make(seed + 1)
    replay_traces, replay_s = _time_run(replay, shots, use_replay=True)
    assert replay.last_run_engine == "replay", \
        f"replay refused: {replay.replay_fallback_reason}"
    assert replay.last_plant_backend == "stabilizer"
    stats = replay.engine_stats

    for trace in interp_traces + replay_traces:
        assert len(trace.results) == len(ancillas) * rounds

    checked = _check_paths(interp_traces, replay_traces)

    _check_syndrome_rates(interp_traces, replay_traces, ancillas, rounds)

    # Pauli-frame batch on the wide chip: the feedback-free variant
    # (reset=False) under stochastic Pauli gate noise — the regime
    # where neither replay (trajectory sampling) nor the noise-free
    # template applies, so before the frame engine every shot paid the
    # full tableau interpreter (~n^2 tableau bits per gate).  The frame
    # engine pays one reference shot plus vectorised frame
    # propagation, so the batching advantage *grows* with the chip.
    frame_assembled = setup.compile_circuit(
        rotated_surface_circuit(distance, rounds=rounds, reset=False))

    def make_frame(offset):
        isa = rotated_surface_instantiation(distance)
        plant = QuantumPlant(isa.topology, noise=_pauli_noise(),
                             rng=np.random.default_rng(seed + 3 + offset))
        machine = QuMAv2(isa, plant)
        machine.load(frame_assembled)
        return machine

    frame = _measure_frame_engine(
        make_frame, shots=shots,
        interp_shots=frame_interp_shots or max(100, shots // 10),
        ancillas=ancillas, rounds=rounds)

    interp_rate = interp_shots / interp_s
    replay_rate = shots / replay_s
    return {
        "shots": shots,
        "rounds": rounds,
        "qubits": setup.isa.topology.num_qubits,
        "interpreter_shots_per_sec": round(interp_rate, 1),
        "replay_shots_per_sec": round(replay_rate, 1),
        "speedup": round(replay_rate / interp_rate, 2),
        "paths_checked": checked,
        "engine_stats": stats.as_dict(),
        **frame,
    }


def measure_surface_scenarios(shots: int = 2000) -> dict:
    """The ``surface17`` (d=3) and ``surface49`` (d=5) scenarios."""
    return {
        "surface17": measure_rotated_surface(3, SURFACE_ROUNDS[3],
                                             shots=shots),
        "surface49": measure_rotated_surface(
            5, SURFACE_ROUNDS[5], shots=shots,
            interp_shots=max(100, shots // 4),
            frame_interp_shots=max(50, shots // 10)),
    }


def measure_scratch_spill_reload(shots: int = 2000, seed: int = 13) -> dict:
    """Spill/reload scratch kernel: same-shot ST -> LD traffic.

    Both CFC round results are spilled to data memory and reloaded;
    the kill-analysis proves every load shot-local, so the program
    replays.  Besides the usual path/statistics cross-checks, every
    replayed shot's conditioned X/Y must match its own first-round
    measurement — proving the replayed control flow reflects what the
    reloaded value steered.
    """
    interpreter = _make_machine(CFC_SCRATCH_PROGRAM, seed)
    interp_traces, interp_s = _time_run(interpreter, shots,
                                        use_replay=False)
    assert interpreter.last_run_engine == "interpreter"

    replay = _make_machine(CFC_SCRATCH_PROGRAM, seed + 1)
    replay_traces, replay_s = _time_run(replay, shots, use_replay=True)
    assert replay.last_run_engine == "replay", \
        f"replay refused: {replay.replay_fallback_reason}"
    assert replay.replay_fallback_reason is None
    stats = replay.engine_stats
    assert stats.killed_loads == 2, "the reloads were not proven killed"

    for trace in replay_traces:
        applied = [r.name for r in trace.triggers
                   if r.qubits == (0,) and r.executed]
        expected = "Y" if trace.results[0].reported_result == 1 else "X"
        assert applied == [expected], \
            "replayed feedback diverged from the reloaded value"

    checked = _check_paths(interp_traces, replay_traces)

    tolerance = 4.5 * math.sqrt(0.5 / shots)
    for qubit in (0, 2):
        interp_p = sum(t.last_result(qubit) or 0
                       for t in interp_traces) / shots
        replay_p = sum(t.last_result(qubit) or 0
                       for t in replay_traces) / shots
        assert abs(interp_p - replay_p) < tolerance, \
            f"qubit {qubit}: {interp_p} vs {replay_p}"

    return {
        "shots": shots,
        "interpreter_shots_per_sec": round(shots / interp_s, 1),
        "replay_shots_per_sec": round(shots / replay_s, 1),
        "speedup": round(interp_s / replay_s, 2),
        "paths_checked": checked,
        "engine_stats": stats.as_dict(),
    }


def measure_audit_overhead(shots: int = 2000, seed: int = 13) -> dict:
    """Cost of the self-verifying replay audit at f=0.01 (active reset).

    Three timed runs: the interpreter (to price one shadow shot), the
    plain replay engine, and the replay engine with
    ``audit_fraction=AUDIT_FRACTION``.  The audited run's extra time
    decomposes into the unavoidable shadow interpreter shots
    (``replay_audits`` x the measured per-shot interpreter cost) and
    the audit *machinery* (result forcing, six-field comparison,
    credit accounting) — only the machinery is gated, at
    ``AUDIT_MACHINERY_TARGET`` when recording; the honest end-to-end
    overhead is recorded alongside.

    The replay runs use 5x the shot count: a plain replay run of the
    active-reset program finishes in tens of milliseconds, so the
    machinery delta would otherwise drown in timer jitter.
    """
    program = PROGRAMS["active_reset"]
    replay_shots = shots * 5

    interp = _make_machine(program, seed)
    _, interp_s = _time_run(interp, shots, use_replay=False)
    assert interp.last_run_engine == "interpreter"
    interp_per_shot = interp_s / shots

    def timed_replay(audit_fraction: float):
        best_s, best_stats = None, None
        for repeat in range(AUDIT_REPEATS):
            machine = _make_machine(program, seed + repeat,
                                    audit_fraction=audit_fraction)
            _, elapsed = _time_run(machine, replay_shots,
                                   use_replay=True)
            assert machine.last_run_engine == "replay", \
                f"replay refused: {machine.replay_fallback_reason}"
            if best_s is None or elapsed < best_s:
                best_s, best_stats = elapsed, machine.engine_stats
        return best_s, best_stats

    plain_s, _ = timed_replay(0.0)
    audited_s, stats = timed_replay(AUDIT_FRACTION)
    assert stats.replay_audits > 0, "the audit never sampled a shot"
    assert stats.audit_divergences == 0, \
        f"replay audit diverged: {stats.last_audit}"

    shadow_s = stats.replay_audits * interp_per_shot
    end_to_end_overhead = (audited_s - plain_s) / plain_s
    machinery_overhead = (audited_s - plain_s - shadow_s) / plain_s
    return {
        "shots": replay_shots,
        "audit_fraction": AUDIT_FRACTION,
        "replay_audits": stats.replay_audits,
        "audit_divergences": stats.audit_divergences,
        "interpreter_shots_per_sec": round(shots / interp_s, 1),
        "plain_replay_shots_per_sec": round(replay_shots / plain_s, 1),
        "audited_replay_shots_per_sec": round(replay_shots / audited_s,
                                              1),
        "shadow_run_seconds": round(shadow_s, 6),
        "end_to_end_overhead": round(end_to_end_overhead, 4),
        "machinery_overhead": round(machinery_overhead, 4),
        "machinery_overhead_target": AUDIT_MACHINERY_TARGET,
        "machinery_overhead_check": AUDIT_MACHINERY_CHECK,
    }


def measure_observability_overhead(shots: int = 2000, seed: int = 13,
                                   trace_dir: Path | None = None) -> dict:
    """Cost of fully-enabled observability on the replayed active-reset
    run, plus proof that tracing never perturbs the physics.

    Two interleaved arms, minimum of ``OBS_REPEATS`` each: the machine
    bare, and the machine with an attached
    :class:`repro.obs.Observability` (metrics always on, span sampling
    at 1.0).  Alongside the timing, the first repeat of each arm runs
    on the *same* seed and every shot is compared bit for bit —
    identical RNG consumption is the non-perturbation guarantee the
    deterministic credit-accumulator sampling exists to provide.

    With ``trace_dir`` set, the traced run's telemetry is exported
    (Chrome trace + metrics snapshot + event log + rendered markdown
    report) — the artifacts CI uploads from the bench smoke.
    """
    from repro.obs import Observability, render_report

    program = PROGRAMS["active_reset"]
    replay_shots = shots * 5

    def one_run(observe: bool, run_seed: int):
        machine = _make_machine(program, run_seed)
        obs = None
        if observe:
            obs = Observability()
            machine.observability = obs
        start = time.perf_counter()
        traces = machine.run(replay_shots, use_replay=True)
        elapsed = time.perf_counter() - start
        assert machine.last_run_engine == "replay", \
            f"replay refused: {machine.replay_fallback_reason}"
        return traces, elapsed, obs

    plain_s = traced_s = None
    plain_traces = traced_traces = best_obs = None
    for repeat in range(OBS_REPEATS):
        traces, elapsed, _ = one_run(False, seed + repeat)
        if repeat == 0:
            plain_traces = traces
        plain_s = elapsed if plain_s is None else min(plain_s, elapsed)
        traces, elapsed, obs = one_run(True, seed + repeat)
        if repeat == 0:
            traced_traces = traces
        if traced_s is None or elapsed < traced_s:
            traced_s, best_obs = elapsed, obs

    # Non-perturbation: same seed => bit-identical shots, traced or not.
    assert len(plain_traces) == len(traced_traces) == replay_shots
    for plain_trace, traced_trace in zip(plain_traces, traced_traces):
        assert plain_trace.outcome_path() == traced_trace.outcome_path()
        assert plain_trace.triggers == traced_trace.triggers
        assert plain_trace.classical_time_ns == \
            traced_trace.classical_time_ns

    snapshot = best_obs.snapshot()
    spans = best_obs.tracer.spans()
    assert any(span.name == "machine.run" for span in spans)
    assert snapshot["engine.shots_total"]["value"] == replay_shots
    assert "engine.replay.walk.time_ns" in snapshot

    # The timing breakdown the BENCH_ file records: every timing
    # metric of the traced run, summarised.
    breakdown = {}
    for name, payload in snapshot.items():
        leaf = name.rsplit(".", 1)[-1]
        if not (leaf.endswith("_ns") or leaf.endswith("_s")):
            continue
        if payload["type"] == "histogram":
            breakdown[name] = {
                "count": payload["count"],
                "p50_us": round(payload["p50"] / 1e3, 3),
                "p99_us": round(payload["p99"] / 1e3, 3),
                "total_ms": round(payload["sum"] / 1e6, 3),
            }
        else:
            breakdown[name] = {
                "total_ms": round(payload["value"] / 1e6, 3)}

    exported = {}
    if trace_dir is not None:
        paths = best_obs.export(trace_dir, prefix="feedback_bench")
        report_path = Path(trace_dir) / "feedback_bench_report.md"
        report_path.write_text(render_report(
            metrics=snapshot,
            trace_events=best_obs.tracer.chrome_trace_events(),
            title="Feedback bench traced run"))
        paths["report"] = str(report_path)
        exported = {key: str(value) for key, value in paths.items()}

    overhead = (traced_s - plain_s) / plain_s
    result = {
        "shots": replay_shots,
        "disabled_shots_per_sec": round(replay_shots / plain_s, 1),
        "traced_shots_per_sec": round(replay_shots / traced_s, 1),
        "overhead": round(overhead, 4),
        "overhead_target": OBS_OVERHEAD_TARGET,
        "overhead_check": OBS_OVERHEAD_CHECK,
        "spans_recorded": len(spans),
        "metrics_recorded": len(snapshot),
        "timing_breakdown": breakdown,
    }
    if exported:
        result["exported"] = exported
    return result


def _audited_machines(shots: int, seed: int):
    """Yield ``(name, machine)`` with ``audit_fraction=1.0`` for every
    feedback-bench scenario, loaded and ready to run."""
    yield "active_reset", _make_machine(FIG4_PROGRAM, seed,
                                        audit_fraction=1.0)
    yield "cfc", _make_machine(CFC_TWO_ROUND_PROGRAM, seed,
                               audit_fraction=1.0)
    mock = _make_machine(FIG5_PROGRAM, seed, audit_fraction=1.0)
    mock.measurement_unit.inject_mock_results(
        2, [i % 2 for i in range(shots)])
    yield "mock_cfc", mock
    yield "dead_store_sweep", _make_machine(DEAD_STORE_PROGRAM, seed,
                                            audit_fraction=1.0)
    yield "looped_surface_code", _make_machine(
        looped_surface_code_program(SURFACE_CODE_ROUNDS), seed,
        isa=seven_qubit_instantiation(), noise=_readout_only_noise(),
        audit_fraction=1.0)
    yield "scratch_spill_reload", _make_machine(
        CFC_SCRATCH_PROGRAM, seed, audit_fraction=1.0)
    for distance, rounds in SURFACE_ROUNDS.items():
        isa = rotated_surface_instantiation(distance)
        setup = ExperimentSetup.create(
            isa=rotated_surface_instantiation(distance),
            noise=_readout_only_noise(), seed=seed)
        assembled = setup.compile_circuit(
            rotated_surface_circuit(distance, rounds=rounds))
        plant = QuantumPlant(isa.topology, noise=_readout_only_noise(),
                             rng=np.random.default_rng(seed))
        machine = QuMAv2(isa, plant, audit_fraction=1.0)
        machine.load(assembled)
        yield f"surface{isa.topology.num_qubits}", machine


def verify_full_audit_identity(shots: int = 400, seed: int = 13) -> dict:
    """Every cached shot shadow-run and compared, on all 8 scenarios.

    With ``audit_fraction=1.0`` each replayed shot is re-executed on
    the interpreter with its recorded outcomes forced, and all six
    audited trace fields (triggers, results, slips, instruction count,
    classical time, stop flag) must match bit for bit — zero
    divergences proves the timeline tree is a faithful stand-in for
    the interpreter on every scenario the feedback bench covers.
    """
    scenarios = {}
    for name, machine in _audited_machines(shots, seed):
        traces = machine.run(shots, use_replay=True)
        stats = machine.engine_stats
        assert len(traces) == shots, name
        assert machine.last_run_engine == "replay", \
            f"{name}: replay refused: {machine.replay_fallback_reason}"
        assert stats.replay_audits == stats.segment_cache_hits > 0, \
            f"{name}: audited {stats.replay_audits} of " \
            f"{stats.segment_cache_hits} cached shots"
        assert stats.audit_divergences == 0, \
            f"{name}: replay audit diverged: {stats.last_audit}"
        scenarios[name] = {
            "shots": shots,
            "replay_audits": stats.replay_audits,
            "audit_divergences": stats.audit_divergences,
        }
    return {"audit_fraction": 1.0, "scenarios": scenarios}


def run_benchmark(shots: int = 2000,
                  trace_dir: Path | None = None) -> dict:
    """Measure every scenario; returns the JSON-ready result tree."""
    programs = {name: measure_program(name, shots=shots)
                for name in PROGRAMS}
    programs["mock_cfc"] = measure_mock_cfc(shots=shots)
    programs["dead_store_sweep"] = measure_sweep_reuse(shots=shots)
    programs["looped_surface_code"] = \
        measure_looped_surface_code(shots=shots)
    programs["scratch_spill_reload"] = \
        measure_scratch_spill_reload(shots=shots)
    programs.update(measure_surface_scenarios(shots=shots))
    return {
        "benchmark": "bench_feedback_throughput",
        "description": "interpreter vs branch-resolved replay tree, "
                       "feedback programs (active reset / CFC / "
                       "surface code d2+d3+d5), end-to-end shots/sec; "
                       "the surface-code scenarios also gate the "
                       "stabilizer plant backend, and the replay "
                       "audit is gated (machinery overhead at f=0.01) "
                       "and verified (bit-identity at f=1.0)",
        "speedup_target": SPEEDUP_TARGET,
        "check_target": CHECK_TARGET,
        "tableau_speedup_target": TABLEAU_SPEEDUP_TARGET,
        "tableau_check_target": TABLEAU_CHECK_TARGET,
        "frame_speedup_target": FRAME_SPEEDUP_TARGET,
        "frame_check_target": FRAME_CHECK_TARGET,
        "programs": programs,
        "observability": measure_observability_overhead(
            shots=shots, trace_dir=trace_dir),
        "replay_audit": measure_audit_overhead(shots=shots),
        "replay_audit_identity": verify_full_audit_identity(
            shots=max(50, shots // 5)),
        "surface49_check_target": SURFACE49_CHECK_TARGET,
        "min_speedup": min(entry["speedup"]
                           for name, entry in programs.items()
                           if name != "surface49"),
        "tableau_interpreter_speedup": programs[
            "looped_surface_code"]["tableau_interpreter_speedup"],
        "surface17_frame_speedup": programs[
            "surface17"]["frame_speedup"],
        "surface49_replay_speedup": programs["surface49"]["speedup"],
        "surface49_frame_speedup": programs[
            "surface49"]["frame_speedup"],
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_branch_replay_speedup_active_reset():
    result = measure_program("active_reset", shots=2000)
    print(f"\nactive_reset: {result}")
    assert result["speedup"] >= SPEEDUP_TARGET


def test_branch_replay_speedup_cfc():
    result = measure_program("cfc", shots=2000)
    print(f"\ncfc: {result}")
    assert result["speedup"] >= SPEEDUP_TARGET


def test_mock_cfc_speedup():
    result = measure_mock_cfc(shots=2000)
    print(f"\nmock_cfc: {result}")
    assert result["speedup"] >= SPEEDUP_TARGET


def test_dead_store_sweep_reuse_speedup():
    result = measure_sweep_reuse(shots=2000)
    print(f"\ndead_store_sweep: {result}")
    assert result["speedup"] >= SPEEDUP_TARGET
    assert result["growth_shots_after_first_run"] == 0


def test_looped_surface_code_speedup():
    result = measure_looped_surface_code(shots=2000)
    print(f"\nlooped_surface_code: {result}")
    assert result["speedup"] >= SPEEDUP_TARGET
    assert result["tableau_interpreter_speedup"] >= \
        TABLEAU_SPEEDUP_TARGET


def test_rotated_surface_speedups():
    for name, result in measure_surface_scenarios(shots=2000).items():
        print(f"\n{name}: {result}")
        assert result["speedup"] >= SPEEDUP_TARGET, name
        assert result["frame_speedup"] >= FRAME_SPEEDUP_TARGET, name


def test_scratch_spill_reload_speedup():
    result = measure_scratch_spill_reload(shots=2000)
    print(f"\nscratch_spill_reload: {result}")
    assert result["speedup"] >= SPEEDUP_TARGET


def test_audit_machinery_overhead():
    result = measure_audit_overhead(shots=2000)
    print(f"\nreplay_audit: {result}")
    assert result["audit_divergences"] == 0
    assert result["machinery_overhead"] <= AUDIT_MACHINERY_TARGET


def test_observability_overhead():
    result = measure_observability_overhead(shots=2000)
    print(f"\nobservability: {result}")
    assert result["overhead"] <= OBS_OVERHEAD_TARGET


def test_full_audit_bit_identity():
    result = verify_full_audit_identity(shots=400)
    print(f"\nreplay_audit_identity: {result}")
    assert len(result["scenarios"]) == 8
    for name, entry in result["scenarios"].items():
        assert entry["audit_divergences"] == 0, name
        assert entry["replay_audits"] > 0, name


# ----------------------------------------------------------------------
# script entry point
# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=2000)
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless the CI speedup "
                             f"floor ({CHECK_TARGET}x) is met")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the result JSON to this path")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="export the traced run's telemetry "
                             "(Chrome trace, metrics snapshot, event "
                             "log, markdown report) to this directory")
    args = parser.parse_args()
    result = run_benchmark(shots=args.shots, trace_dir=args.trace_dir)
    print(json.dumps(result, indent=2))
    if args.output is not None:
        args.output.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.check and result["min_speedup"] < CHECK_TARGET:
        print(f"FAIL: speedup {result['min_speedup']}x below the "
              f"{CHECK_TARGET}x gate")
        return 1
    if args.check and result["tableau_interpreter_speedup"] < \
            TABLEAU_CHECK_TARGET:
        print(f"FAIL: tableau interpreter speedup "
              f"{result['tableau_interpreter_speedup']}x below the "
              f"{TABLEAU_CHECK_TARGET}x gate")
        return 1
    if args.check and result["surface17_frame_speedup"] < \
            FRAME_CHECK_TARGET:
        print(f"FAIL: surface-17 frame-batched speedup "
              f"{result['surface17_frame_speedup']}x below the "
              f"{FRAME_CHECK_TARGET}x gate")
        return 1
    if args.check and result["surface49_replay_speedup"] < \
            SURFACE49_CHECK_TARGET:
        print(f"FAIL: surface-49 replay speedup "
              f"{result['surface49_replay_speedup']}x below the "
              f"{SURFACE49_CHECK_TARGET}x gate")
        return 1
    if args.check and result["surface49_frame_speedup"] < \
            FRAME_CHECK_TARGET:
        print(f"FAIL: surface-49 frame-batched speedup "
              f"{result['surface49_frame_speedup']}x below the "
              f"{FRAME_CHECK_TARGET}x gate")
        return 1
    audit = result["replay_audit"]
    if args.check and audit["machinery_overhead"] > \
            AUDIT_MACHINERY_CHECK:
        print(f"FAIL: audit machinery overhead "
              f"{audit['machinery_overhead']} above the "
              f"{AUDIT_MACHINERY_CHECK} gate")
        return 1
    observability = result["observability"]
    if args.check and observability["overhead"] > OBS_OVERHEAD_CHECK:
        print(f"FAIL: observability overhead "
              f"{observability['overhead']} above the "
              f"{OBS_OVERHEAD_CHECK} gate")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
