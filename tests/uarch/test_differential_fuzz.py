"""Differential interpreter-vs-replay fuzzing.

The replay tier's correctness claim is *observational equivalence*:
for any program the static analysis admits, the branch-resolved engine
must emit (a) bit-identical timing-domain records along every outcome
path and (b) the same joint outcome distribution as the cycle-accurate
interpreter.  Hand-picked experiments cannot cover the interaction
space — forced growth prefixes x dead stores x FMR stalls x
conditional micro-ops x mock queues — so this harness generates seeded
random eQASM programs mixing all of it, runs each on both engines and
cross-checks:

* engine agreement — if one engine raises a timing violation, so must
  the other; if the static analysis blocks replay, the fallback is
  transparent (the run still completes on the interpreter);
* per-path timing-bit identity on every outcome path both engines
  produced (there must be at least one);
* chi-squared agreement of the joint final-outcome histograms;
* for a case with a mock plan: the replay-side run goes to the
  interpreter with the mock reason, both engines drain the queue
  identically, and the same program *without* mocks then passes every
  check above, so those seeds still exercise replay;
* dataflow soundness — the static pass's pc-keyed join keying (its
  budget fallback) is never more permissive than its exploration
  keying on the same program;
* counts-path agreement — ``run_counts`` on a same-seeded twin of the
  replay-side (and, for the Pauli-frame shape, the frame-side) machine
  equals that run's traces folded one by one, with identical
  ``EngineStats``.

Tier-1 runs ``DEFAULT_SEED_COUNT`` seeded cases; the nightly CI job
widens the range via ``EQASM_FUZZ_SEEDS=500``.  Every machine and the
generator itself are seeded, so a passing seed passes forever.

Every case also records which engine actually drove the replay-side
run into ``ENGINE_MIX``; the uarch conftest prints the aggregate in
the terminal summary, so a silent fallback regression (programs that
should replay quietly running on the interpreter) is visible straight
in the nightly CI log.
"""

import os
from collections import Counter

import numpy as np
import pytest

from repro.core import Assembler, two_qubit_instantiation
from repro.core.errors import TimingViolationError
from repro.experiments.runner import ExperimentSetup
from repro.quantum import NoiseModel, QuantumPlant
from repro.quantum.noise import DecoherenceModel, GateErrorModel
from repro.uarch import (
    QuMAv2,
    ShotCounts,
    TimelineTree,
    analyze_data_memory,
    dataflow,
)
from repro.uarch.machine import _MOCK_BLOCKER
from machine_probes import instruction_memory, remaining_mock_results
from tree_corruption import corrupt_template, kept_terminals

DEFAULT_SEED_COUNT = 25
SEED_COUNT = int(os.environ.get("EQASM_FUZZ_SEEDS", DEFAULT_SEED_COUNT))
SHOTS = 200

GATES = ["X", "Y", "X90", "Y90", "XM90", "YM90"]
CONDITIONAL_GATES = ["C_X", "C_Y", "C0_X"]

#: Engine-selection aggregate over all fuzz cases of the session,
#: printed by the conftest terminal summary (nightly log visibility).
ENGINE_MIX: Counter = Counter()

#: Plant-backend selection aggregate (same reporting path): the
#: ``clifford_only`` shape must land on the stabilizer tableau, every
#: other case on the dense matrix, identically on both engines.
BACKEND_MIX: Counter = Counter()

#: Audit-shape aggregate (same reporting path): how each fuzz case's
#: run on a corrupted replay tree resolved — "divergence caught" when
#: a cached shot landed on a corrupted terminal and the audit evicted
#: the tree, "no corrupted terminal walked" when none did, "not
#: replayable" or "not cross-run cacheable" for a case that keeps no
#: tree to corrupt, or "timing-violation" when the program violates
#: timing on its own.
AUDIT_MIX: Counter = Counter()

#: Pauli-frame-shape aggregate (same reporting path): how each
#: ``pauli_frame`` fuzz case resolved — served by the frame-batched
#: engine, or statically ineligible (conditional gates in the pool).
FRAME_MIX: Counter = Counter()


def clifford_only_noise() -> NoiseModel:
    """Readout flips only.  Every generated gate is already Clifford,
    so this noise model is what flips a case onto the stabilizer
    backend — exercising tableau growth shots, tableau P(1) nodes and
    the backend-selection agreement between the engines."""
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=0.0,
                                  two_qubit_error=0.0))


def generate_case(seed: int, feedback: bool = True
                  ) -> tuple[str, list[int], bool]:
    """One random well-formed program + mock plan + backend shape.

    The third element is the ``clifford_only`` shape flag: such cases
    run under readout-only noise, which (the gate pool being entirely
    Clifford) moves the whole case onto the stabilizer plant backend —
    both engines must agree on that selection and stay statistically
    indistinguishable there too.

    Blocks are drawn from: plain gates, fixed and register-valued
    waits, measurement + fast-conditional micro-op, measurement + FMR
    + CMP/BR feedback (CFC), dead stores (host-readout deposits),
    spill/reload pairs (same-shot ST-then-LD, killed by the dataflow
    pass and replay-eligible, with the reloaded value steering a
    branch), live loads (LD above the only ST to its address — which
    must force the interpreter on both sides) and counted gate loops
    (backward branches the analysis unrolls).  Timing follows the
    Section 5 listings: a QWAIT 50 after every measurement keeps the
    schedule valid, small waits separate gate bundles.  Measurements
    are capped at 3 per shot so the outcome tree saturates within the
    shot budget.

    ``feedback=False`` draws a feedback-free case instead: no ``FMR``,
    no conditional micro-op, no live load and no mock plan, with one
    plain measurement among the other blocks.
    """
    rng = np.random.default_rng(seed)
    clifford_only = bool(rng.random() < 0.3)
    lines = ["SMIS S0, {0}", "SMIS S2, {2}", "LDI R0, 1", "QWAIT 10000"]
    if feedback:
        kinds = list(rng.choice(
            ["gate", "qwait", "fce", "cfc", "dead_store", "spill_reload",
             "live_load", "qwaitr", "counted_loop"],
            size=int(rng.integers(4, 9)),
            p=[0.20, 0.12, 0.18, 0.18, 0.08, 0.08, 0.03, 0.05, 0.08]))
        if not any(kind in ("fce", "cfc") for kind in kinds):
            kinds[-1] = "cfc"
    else:
        kinds = list(rng.choice(
            ["gate", "qwait", "dead_store", "spill_reload", "qwaitr",
             "counted_loop"],
            size=int(rng.integers(3, 8)),
            p=[0.35, 0.2, 0.1, 0.15, 0.1, 0.1]))
        kinds.insert(int(rng.integers(0, len(kinds) + 1)), "measure")
    measurements = 0
    label = 0
    for kind in kinds:
        if kind in ("fce", "cfc") and measurements >= 3:
            kind = "gate"
        if kind == "gate":
            target = rng.choice(["S0", "S2"])
            lines += [f"{rng.choice(GATES)} {target}", "QWAIT 5"]
        elif kind == "qwait":
            lines += [f"QWAIT {int(rng.integers(1, 40))}"]
        elif kind == "qwaitr":
            lines += [f"LDI R8, {int(rng.integers(1, 30))}", "QWAITR R8"]
        elif kind == "measure":
            measurements += 1
            lines += ["X90 S2", "MEASZ S2", "QWAIT 50"]
        elif kind == "fce":
            measurements += 1
            lines += ["X90 S2", "MEASZ S2", "QWAIT 50",
                      f"{rng.choice(CONDITIONAL_GATES)} S2", "QWAIT 5"]
        elif kind == "cfc":
            measurements += 1
            lines += ["X90 S2", "MEASZ S2", "QWAIT 50",
                      "FMR R1, Q2", "CMP R1, R0",
                      f"BR EQ, eq{label}",
                      "X S0",
                      f"BR ALWAYS, join{label}",
                      f"eq{label}:",
                      "Y S0",
                      f"join{label}:",
                      "QWAIT 5"]
            label += 1
        elif kind == "dead_store":
            address = 4 * int(rng.integers(16, 40))
            lines += [f"LDI R5, {address}", "ST R1, R5(0)"]
        elif kind == "spill_reload":
            # Same-shot ST -> LD at one address: killed, replays; the
            # reloaded value steers a branch so a wrong reload would
            # show up in the timing cross-check, not just the data.
            address = 4 * int(rng.integers(40, 64))
            lines += [f"LDI R6, {address}", "ST R1, R6(0)",
                      "LD R7, R6(0)",
                      "CMP R7, R0",
                      f"BR NE, sk{label}",
                      f"QWAIT {int(rng.integers(2, 9))}",
                      f"sk{label}:"]
            label += 1
        elif kind == "live_load":
            # LD above the only ST to its address: observes the
            # previous shot, must fall back on both engines.
            address = 4 * int(rng.integers(64, 80))
            lines += [f"LDI R6, {address}", "LD R7, R6(0)",
                      "ST R0, R6(0)"]
        else:  # counted_loop
            trips = int(rng.integers(2, 5))
            lines += [f"LDI R9, {trips}",
                      f"lp{label}:",
                      f"{rng.choice(GATES)} S0", "QWAIT 5",
                      "SUB R9, R9, R0",
                      "CMP R9, R0",
                      f"BR GE, lp{label}"]
            label += 1
    lines += ["QWAIT 50", "STOP"]

    mock_plan: list[int] = []
    if feedback and measurements and rng.random() < 0.4:
        if rng.random() < 0.5:
            length = int(rng.integers(1, 60))   # exhausts mid-run
        else:
            length = measurements * SHOTS       # covers the whole run
        mock_plan = [int(bit) for bit in rng.integers(0, 2, size=length)]
    return "\n".join(lines), mock_plan, clifford_only


def run_engine(text: str, mock_plan: list[int], seed: int,
               use_replay: bool, noise: NoiseModel | None = None,
               counts: bool = False):
    """Run one program on one engine; returns (machine, reasons,
    traces|None).

    ``reasons`` are the machine's replay blockers, read *before* the
    run (a mock queue drains during it).  ``traces`` is None when the
    run raised a timing violation — the differential property is then
    that *both* engines raise it.  With ``counts`` the run is
    ``run_counts`` and its ``ShotCounts`` stands in for the traces.
    """
    isa = two_qubit_instantiation()
    plant = QuantumPlant(isa.topology,
                         noise=noise if noise is not None
                         else NoiseModel(),
                         rng=np.random.default_rng(seed))
    machine = QuMAv2(isa, plant)
    if mock_plan:
        machine.measurement_unit.inject_mock_results(2, mock_plan)
    machine.load(Assembler(isa).assemble_text(text))
    reasons = machine.replay_unsupported_reasons()
    run = machine.run_counts if counts else machine.run
    try:
        traces = run(SHOTS, use_replay=use_replay)
    except TimingViolationError:
        return machine, reasons, None
    return machine, reasons, traces


def assert_counts_fold_traces(twin, counts, machine, traces):
    """``run_counts`` on a same-seeded twin equals the traces of the
    ``run`` folded one by one, with identical engine statistics."""
    folded = ShotCounts()
    for trace in traces:
        folded.add(trace)
    assert counts.as_dict() == folded.as_dict()
    assert twin.engine_stats.as_dict() == machine.engine_stats.as_dict()


def assert_timing_identical(trace_a, trace_b):
    assert trace_a.triggers == trace_b.triggers
    assert trace_a.slips == trace_b.slips
    assert trace_a.instructions_executed == trace_b.instructions_executed
    assert trace_a.classical_time_ns == trace_b.classical_time_ns
    assert trace_a.stop_reached == trace_b.stop_reached
    assert [(r.qubit, r.measure_start_ns, r.arrival_ns)
            for r in trace_a.results] == \
        [(r.qubit, r.measure_start_ns, r.arrival_ns)
         for r in trace_b.results]


def joint_histogram(traces):
    """Counts of the per-shot final result vector (the ShotCounts key)."""
    histogram = {}
    for trace in traces:
        last = {}
        for record in trace.results:
            last[record.qubit] = record.reported_result
        key = tuple(sorted(last.items()))
        histogram[key] = histogram.get(key, 0) + 1
    return histogram


def assert_distributions_agree(interp_hist, replay_hist):
    """Chi-squared homogeneity test, pooling sparse outcome bins."""
    keys = sorted(set(interp_hist) | set(replay_hist))
    if len(keys) < 2:
        assert set(interp_hist) == set(replay_hist)
        return
    table = np.array([[interp_hist.get(k, 0) for k in keys],
                      [replay_hist.get(k, 0) for k in keys]])
    totals = table.sum(axis=0)
    dense = table[:, totals >= 10]
    pooled = table[:, totals < 10].sum(axis=1, keepdims=True)
    if pooled.sum() > 0:
        dense = np.hstack([dense, pooled])
    if dense.shape[1] < 2:
        return  # everything pooled into one bin: nothing to compare
    from scipy.stats import chi2_contingency
    _, p_value, _, _ = chi2_contingency(dense)
    assert p_value > 1e-4, \
        f"engines statistically distinguishable (p={p_value})"


def check_engines_agree(text: str, mock_plan: list[int], seed: int,
                        noise: NoiseModel, clifford_only: bool) -> str:
    """Run one case on the interpreter, on the replay-side machine and
    on its ``run_counts`` twin, assert every cross-check and return the
    case's :data:`ENGINE_MIX` bucket."""
    interpreter, _, interp_traces = run_engine(text, mock_plan,
                                               seed=10_000 + seed,
                                               use_replay=False,
                                               noise=noise)
    replay, reasons, replay_traces = run_engine(text, mock_plan,
                                                seed=20_000 + seed,
                                                use_replay=True,
                                                noise=noise)
    twin, _, twin_counts = run_engine(text, mock_plan, seed=20_000 + seed,
                                      use_replay=True, noise=noise,
                                      counts=True)

    # Engine agreement on timing violations.
    assert (interp_traces is None) == (replay_traces is None), \
        "one engine raised a timing violation, the other did not"
    assert (twin_counts is None) == (replay_traces is None)
    if interp_traces is None:
        return "timing-violation"
    assert_counts_fold_traces(twin, twin_counts, replay, replay_traces)

    # Plant-backend selection must agree across engines and match the
    # generated shape: the clifford_only cases (Clifford gate pool,
    # readout-only noise) ride the stabilizer tableau on both.
    expected_backend = "stabilizer" if clifford_only else "dense"
    assert interpreter.last_plant_backend == expected_backend
    assert replay.last_plant_backend == expected_backend

    assert interpreter.last_run_engine == "interpreter"
    stats = replay.engine_stats
    if mock_plan:
        # Queued mocks block both fast engines: the replay-side run is
        # a faithful interpreter run that drains the queue exactly as
        # the interpreter does.
        route = "interpreter (mock results)"
        assert _MOCK_BLOCKER in reasons
        assert replay.last_run_engine == "interpreter"
        assert replay.replay_fallback_reason == "; ".join(reasons)
        assert stats.interpreter_shots == SHOTS
        assert (remaining_mock_results(interpreter.measurement_unit, 2) ==
                remaining_mock_results(replay.measurement_unit, 2))
    elif reasons:
        # Static blockers (live loads): transparent fallback, and the
        # run must still be a faithful interpreter run.
        route = "interpreter (static blocker)"
        assert replay.last_run_engine == "interpreter"
        assert replay.replay_fallback_reason == "; ".join(reasons)
    else:
        assert stats.shots_total == SHOTS
        assert stats.interpreter_shots + stats.replay_shots == SHOTS
        if stats.replay_shots == 0:
            # 100%-growth runs report the honest split (the tree never
            # served a cached path, e.g. every path exceeds the caps).
            route = "interpreter (all growth)"
            assert replay.last_run_engine == "interpreter"
            assert "growth" in replay.replay_fallback_reason
        else:
            route = "replay"
            assert replay.last_run_engine == "replay"
        if "FMR" not in text and \
                not any(gate in text for gate in CONDITIONAL_GATES) and \
                all(len(trace.results) == 1 for trace in replay_traces):
            # One timeline whatever the outcome: the cold run's first
            # growth shot grows the root, and every terminal is built
            # from its trace.
            assert stats.interpreter_shots == 1

    # Per-path timing-bit identity on every shared outcome path.
    interp_by_path = {}
    for trace in interp_traces:
        interp_by_path.setdefault(trace.outcome_path(), trace)
    replay_by_path = {}
    for trace in replay_traces:
        replay_by_path.setdefault(trace.outcome_path(), trace)
    common = set(interp_by_path) & set(replay_by_path)
    assert common, "no outcome path produced by both engines"
    for path in common:
        assert_timing_identical(interp_by_path[path],
                                replay_by_path[path])

    # Joint outcome distributions must be indistinguishable.
    assert_distributions_agree(joint_histogram(interp_traces),
                               joint_histogram(replay_traces))
    return route


def assert_join_keying_is_sound(text: str) -> None:
    """The dataflow pass's pc-keyed join (its budget fallback) may lose
    precision but must never be more permissive than the exploration
    keying: join-safe implies exploration-safe, and it never kills a
    load the exploration keeps live."""
    isa = two_qubit_instantiation()
    machine = QuMAv2(isa, QuantumPlant(isa.topology))
    machine.load(Assembler(isa).assemble_text(text))
    instructions = instruction_memory(machine)
    exploration = analyze_data_memory(instructions)
    joined = dataflow._report(
        instructions, dataflow._explore(instructions, join=True), "joined")
    assert exploration.replay_safe or not joined.replay_safe
    assert joined.killed_load_count <= exploration.killed_load_count


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_interpreter_and_replay_are_equivalent(seed):
    text, mock_plan, clifford_only = generate_case(seed)
    assert_join_keying_is_sound(text)
    noise = clifford_only_noise() if clifford_only else NoiseModel()
    route = check_engines_agree(text, mock_plan, seed, noise,
                                clifford_only)
    ENGINE_MIX[route] += 1
    if route != "timing-violation":
        BACKEND_MIX["stabilizer" if clifford_only else "dense"] += 1
    if mock_plan:
        # The mocked run never reached replay; the same program without
        # mocks must pass the full equivalence.
        check_engines_agree(text, [], seed, noise, clifford_only)


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_feedback_free_cases_grow_one_shot(seed):
    """Feedback-free cases pass every equivalence check, and their
    cold replay run makes exactly one growth shot (asserted inside
    :func:`check_engines_agree`)."""
    text, mock_plan, clifford_only = generate_case(seed, feedback=False)
    assert not mock_plan
    noise = clifford_only_noise() if clifford_only else NoiseModel()
    route = check_engines_agree(text, mock_plan, seed, noise,
                                clifford_only)
    assert route in ("replay", "timing-violation")


def pauli_gate_noise() -> NoiseModel:
    """Stochastic Pauli gate error + readout flips, no decoherence.

    On a Clifford program this lands on the stabilizer backend but
    *blocks* replay (per-shot trajectory sampling) — exactly the
    regime the Pauli-frame batched engine serves."""
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=0.03,
                                  two_qubit_error=0.05))


def generate_frame_case(seed: int) -> tuple[str, bool]:
    """One random Clifford program for the ``pauli_frame`` shape.

    Blocks: single-qubit Clifford gates, CZ on the chip's coupled
    pair, waits, and plain measurements (1-3 per shot).  A fifth of
    the cases deliberately include a conditionally executed gate —
    those must be *refused* by the frame engine's static pass and fall
    back to the per-shot tableau interpreter transparently.  Returns
    ``(program_text, expects_frame)``.
    """
    rng = np.random.default_rng(seed)
    include_conditional = bool(rng.random() < 0.2)
    lines = ["SMIS S0, {0}", "SMIS S2, {2}", "SMIS S3, {0, 2}",
             "SMIT T0, {(0, 2)}", "QWAIT 10000"]
    kinds = list(rng.choice(
        ["gate", "cz", "qwait", "measure"],
        size=int(rng.integers(5, 12)),
        p=[0.40, 0.20, 0.15, 0.25]))
    measurements = 0
    for kind in kinds:
        if kind == "measure" and measurements >= 3:
            kind = "gate"
        if kind == "gate":
            target = rng.choice(["S0", "S2"])
            lines += [f"{rng.choice(GATES)} {target}", "QWAIT 5"]
        elif kind == "cz":
            lines += ["CZ T0", "QWAIT 5"]
        elif kind == "qwait":
            lines += [f"QWAIT {int(rng.integers(1, 40))}"]
        else:
            measurements += 1
            target = rng.choice(["S0", "S2", "S3"])
            lines += [f"MEASZ {target}", "QWAIT 50"]
    if measurements == 0:
        lines += ["MEASZ S3", "QWAIT 50"]
    if include_conditional:
        lines += [f"{rng.choice(CONDITIONAL_GATES)} S2", "QWAIT 5"]
    lines += ["QWAIT 50", "STOP"]
    return "\n".join(lines), not include_conditional


def run_frame_engine(text: str, seed: int, use_replay: bool,
                     plant_backend: str = "auto", counts: bool = False):
    """One run of a frame-shape program on one engine/backend (its
    ``run_counts`` aggregate instead of its traces with ``counts``)."""
    isa = two_qubit_instantiation()
    plant = QuantumPlant(isa.topology, noise=pauli_gate_noise(),
                         rng=np.random.default_rng(seed))
    machine = QuMAv2(isa, plant, plant_backend=plant_backend)
    machine.load(Assembler(isa).assemble_text(text))
    run = machine.run_counts if counts else machine.run
    return machine, run(SHOTS, use_replay=use_replay)


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_frame_batched_equivalence(seed):
    """``pauli_frame`` shape: random feedback-free Clifford programs
    with stochastic Pauli noise, run three ways — Pauli-frame batched,
    per-shot tableau interpreter, dense density matrix — asserting
    chi-squared joint-histogram agreement, engine/backend-selection
    agreement, and per-path timing-bit identity.
    """
    text, expects_frame = generate_frame_case(seed)

    frame, frame_traces = run_frame_engine(text, seed=40_000 + seed,
                                           use_replay=True)
    twin, twin_counts = run_frame_engine(text, seed=40_000 + seed,
                                         use_replay=True, counts=True)
    assert_counts_fold_traces(twin, twin_counts, frame, frame_traces)
    tableau, tableau_traces = run_frame_engine(text, seed=50_000 + seed,
                                               use_replay=False)
    dense, dense_traces = run_frame_engine(text, seed=60_000 + seed,
                                           use_replay=True,
                                           plant_backend="dense")

    # Backend selection: Clifford pool + Pauli/readout noise rides the
    # tableau on both engine configurations; the dense run is pinned.
    assert frame.last_plant_backend == "stabilizer", \
        f"tableau refused: {frame.plant_backend_reason}"
    assert tableau.last_plant_backend == "stabilizer"
    assert dense.last_plant_backend == "dense"
    assert tableau.last_run_engine == "interpreter"

    stats = frame.engine_stats
    assert stats.shots_total == SHOTS
    assert stats.interpreter_shots + stats.replay_shots + \
        stats.frame_batched == SHOTS
    if expects_frame:
        assert not frame.frame_batch_unsupported_reasons()
        assert frame.last_run_engine == "frame"
        assert stats.engine == "frame"
        assert stats.frame_batched == SHOTS
        assert stats.frame_reference_shots == 1
        assert stats.interpreter_shots == 0
        FRAME_MIX["frame"] += 1
    else:
        # The conditional gate forks the Clifford sequence: the frame
        # pass must refuse and the run must fall back transparently to
        # the per-shot tableau interpreter (trajectory noise blocks
        # replay too).
        reasons = frame.frame_batch_unsupported_reasons()
        assert any("conditionally" in reason for reason in reasons)
        assert frame.last_run_engine == "interpreter"
        assert stats.frame_batched == 0
        assert stats.interpreter_shots == SHOTS
        assert "trajectory" in frame.replay_fallback_reason
        # Without FMR the run reserves once: its later shots re-run the
        # first shot's trigger stream, and must equal the same-seed
        # per-shot pipeline trace for trace on every field.
        pipeline, pipeline_traces = run_frame_engine(
            text, seed=40_000 + seed, use_replay=False)
        assert len(frame_traces) == len(pipeline_traces) == SHOTS
        for trace, expected in zip(frame_traces, pipeline_traces):
            assert trace.triggers == expected.triggers
            assert trace.results == expected.results
            assert trace.slips == expected.slips
            assert trace.instructions_executed == \
                expected.instructions_executed
            assert trace.classical_time_ns == expected.classical_time_ns
            assert trace.stop_reached == expected.stop_reached
        FRAME_MIX["ineligible (conditional gate)"] += 1

    # Per-path timing-bit identity against the per-shot tableau run.
    frame_by_path = {}
    for trace in frame_traces:
        frame_by_path.setdefault(trace.outcome_path(), trace)
    tableau_by_path = {}
    for trace in tableau_traces:
        tableau_by_path.setdefault(trace.outcome_path(), trace)
    common = set(frame_by_path) & set(tableau_by_path)
    assert common, "no outcome path produced by both engines"
    for path in common:
        assert_timing_identical(frame_by_path[path],
                                tableau_by_path[path])

    # Three-way joint-distribution agreement: batched vs per-shot
    # tableau (the bit-compatibility claim) and batched vs dense (the
    # physics ground truth).
    frame_hist = joint_histogram(frame_traces)
    assert_distributions_agree(frame_hist,
                               joint_histogram(tableau_traces))
    assert_distributions_agree(frame_hist,
                               joint_histogram(dense_traces))


CHAOS_SHOTS = 40


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_fault_injection_chaos(seed, monkeypatch):
    """Random programs x a corrupted replay tree, self-verifying replay
    on.

    The audit's contract on the one fault no program can produce, a
    kept tree whose cached templates no longer match the interpreter:
    for a replay-eligible, cross-run-cacheable case the tree is grown,
    every kept terminal is corrupted (``tree_corruption``), and an
    audited run (``audit_fraction=1.0``) must still deliver every shot
    — with exactly one audit divergence, the chunk re-served by the
    interpreter and the tree evicted whenever a cached shot landed on a
    corrupted terminal, and no divergence otherwise.  Every case then
    re-runs clean: no divergence, no degradation.  A program that
    violates timing on a fresh same-seed twin is counted as a timing
    violation: the violation is the program's own.
    """
    text, mock_plan, clifford_only = generate_case(seed)
    noise = clifford_only_noise() if clifford_only else NoiseModel()

    def fresh_setup():
        setup = ExperimentSetup.create(noise=noise, seed=30_000 + seed,
                                       audit_fraction=1.0)
        if mock_plan:
            setup.machine.measurement_unit.inject_mock_results(2,
                                                               mock_plan)
        return setup

    setup = fresh_setup()
    machine = setup.machine
    assembled = setup.assemble_text(text)
    try:
        fresh_setup().run(assembled, CHAOS_SHOTS)
    except TimingViolationError:
        AUDIT_MIX["timing-violation"] += 1
        return
    machine.load(assembled)
    if machine.replay_unsupported_reasons():
        AUDIT_MIX["not replayable"] += 1
    elif not machine.data_memory_report().cross_run_cacheable:
        AUDIT_MIX["not cross-run cacheable"] += 1
    else:
        machine.run_counts(CHAOS_SHOTS)  # grow the tree
        rng = np.random.default_rng(77_000 + seed)
        corrupted = {}
        for node in kept_terminals(machine._tree):
            corrupt_template(node, rng)
            corrupted[id(node.template)] = node.template
        walked = []
        sample_cohort = TimelineTree.sample_cohort

        def recorded(tree, *args, **kwargs):
            batch = sample_cohort(tree, *args, **kwargs)
            walked.extend(group.template for group in batch.groups)
            return batch

        monkeypatch.setattr(TimelineTree, "sample_cohort", recorded)
        traces = setup.run(assembled, CHAOS_SHOTS)
        monkeypatch.undo()
        assert len(traces) == CHAOS_SHOTS
        stats = machine.engine_stats
        served = any(id(template) in corrupted for template in walked)
        assert stats.audit_divergences == int(served)
        if served:
            assert stats.last_audit.tree_evicted
            assert machine._tree is None
            assert stats.interpreter_shots == stats.shots_total \
                == CHAOS_SHOTS
            AUDIT_MIX["divergence caught"] += 1
        else:
            AUDIT_MIX["no corrupted terminal walked"] += 1

    # Recovery: reset caches and queues, re-run clean.
    machine.clear_replay_cache()
    machine.measurement_unit.clear_mock_results()
    if mock_plan:
        machine.measurement_unit.inject_mock_results(2, mock_plan)
    clean = setup.run(assembled, CHAOS_SHOTS)
    assert len(clean) == CHAOS_SHOTS
    stats = machine.engine_stats
    assert stats.audit_divergences == 0
    assert not stats.degradations
