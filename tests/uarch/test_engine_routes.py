"""Seeded output pins for every engine route of ``QuMAv2.run_iter``.

The machine drives one run through one of six routes: the
static-blocker interpreter, the caller-forced interpreter, warm replay,
the Pauli-frame batch, and two ways a selected replay run ends up on
the interpreter (an audit divergence, a run whose every shot was a
growth shot).  Each route consumes
the plant RNG in its own order, so the SHA-256 of the run's
``ShotCounts`` and ``EngineStats`` on a fixed seed pins both the
physics the route delivered and the draw order that produced it — a
refactor of the engine loop that reorders a single draw changes the
digest.

``run_counts`` folds engine outcomes without building a trace per
shot; on every route it must equal ``run_iter``'s traces folded one by
one on a same-seeded twin, with identical ``EngineStats``.

The four engine labels on the machine (``last_run_engine``,
``replay_fallback_reason``, ``last_plant_backend``,
``plant_backend_reason``) must read exactly the run's ``engine_stats``.

The engine decision itself is a table over the binary's static verdict
and two run-time facts (Pauli gate noise on the tableau, queued mock
results): each row pins the engine, the fallback reason and the
``outcome_independent`` flag the replay engine is handed.  The verdict
is computed once per loaded binary: the dataflow pass and the
module-level replay analysis run once over a cold and a warm run.
"""

import collections
import hashlib
import json

import numpy as np
import pytest

from repro.core import Assembler, two_qubit_instantiation
from repro.experiments.reset import FIG4_PROGRAM as ACTIVE_RESET
from repro.quantum import NoiseModel, QuantumPlant
from repro.quantum.noise import DecoherenceModel, GateErrorModel
from repro.uarch import QuMAv2, ShotCounts
from repro.uarch import machine as machine_module
from repro.uarch.machine import _CHUNK_SHOTS, _MOCK_BLOCKER, \
    _TRAJECTORY_BLOCKER
from tree_corruption import corrupt_random_template

#: LD above the only ST to its address: the load observes the previous
#: shot, a hard replay blocker.
LIVE_LOAD = """
SMIS S2, {2}
LDI R6, 256
QWAIT 10000
LD R7, R6(0)
ST R0, R6(0)
X90 S2
MEASZ S2
QWAIT 50
C_X S2
MEASZ S2
STOP
"""

#: Feedback-free Clifford program (frame-batch eligible under Pauli
#: gate noise).
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

#: 70 measurements per shot: beyond the tree's depth cap, so every
#: shot of a replay run is a growth shot.
DEEP_LOOP = """
SMIS S2, {2}
LDI R0, 70
LDI R1, 1
QWAIT 10000
loop:
MEASZ S2
QWAIT 50
SUB R0, R0, R1
CMP R0, R1
BR GE, loop
QWAIT 50
STOP
"""


def pauli_noise() -> NoiseModel:
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=0.03,
                                  two_qubit_error=0.05))


def make_machine(text, seed, noise=None, audit_fraction=0.0):
    isa = two_qubit_instantiation()
    plant = QuantumPlant(isa.topology, noise=noise or NoiseModel(),
                         rng=np.random.default_rng(seed))
    machine = QuMAv2(isa, plant, audit_fraction=audit_fraction)
    machine.load(Assembler(isa).assemble_text(text))
    return machine


def fold_run_iter(machine, shots, **kwargs):
    """The spliced-trace twin of ``run_counts``: every trace of
    ``run_iter`` folded with ``ShotCounts.add``."""
    counts = ShotCounts()
    for trace in machine.run_iter(shots, **kwargs):
        counts.add(trace)
    return counts


def route_static_blocker(count=QuMAv2.run_counts):
    machine = make_machine(LIVE_LOAD, seed=101)
    return machine, count(machine, 200)


def route_replay_disabled(count=QuMAv2.run_counts):
    machine = make_machine(ACTIVE_RESET, seed=102)
    return machine, count(machine, 200, use_replay=False)


def route_warm_replay(count=QuMAv2.run_counts):
    machine = make_machine(ACTIVE_RESET, seed=103)
    count(machine, 200)
    return machine, count(machine, 2000)


def route_frame_batch(count=QuMAv2.run_counts):
    machine = make_machine(FRAME_CLIFFORD, seed=104, noise=pauli_noise())
    return machine, count(machine, 500)


def route_audit_divergence(count=QuMAv2.run_counts):
    machine = make_machine(ACTIVE_RESET, seed=106, audit_fraction=1.0)
    count(machine, 50)
    corrupt_random_template(machine._tree, np.random.default_rng(9))
    return machine, count(machine, 120)


def route_all_growth(count=QuMAv2.run_counts):
    machine = make_machine(DEEP_LOOP, seed=107)
    return machine, count(machine, 3)


#: route -> (run function, expected engine, SHA-256 of ShotCounts.as_dict(),
#: SHA-256 of EngineStats.as_dict()), captured before the engine loops
#: were merged.  The warm-replay counts digest was re-pinned when the
#: plain replay run moved to cohort walks, whose draws are node-major;
#: the exactness of that order is pinned statistically in
#: tests/uarch/test_cohort_replay.py.  The stats digests were re-pinned
#: when ``EngineStats`` dropped ``tree_roots`` and
#: ``mock_results_replayed``, and again when it dropped
#: ``faults_injected`` and ``segment_cache_hits`` (a copy of
#: ``replay_shots``); no run's draws changed either time.  The
#: audit-divergence route corrupts the kept tree directly
#: (``tree_corruption.corrupt_random_template`` on a ``seed=9`` RNG)
#: where it once armed a machine fault plan that did so at the chunk
#: start: the same trigger of the same terminal, before the same walk.  The frame-batch
#: counts digest was re-pinned when the frames became bit-packed: the
#: exact sparse noise sampler (binomial hit count, uniform hit subset)
#: and packed readout masks draw in a new order, with the same
#: distribution — pinned against the unpacked propagation in
#: tests/quantum/test_pauli_frame.py.  It was re-pinned again when
#: frame noise moved onto the recording's fault table: each group of
#: noise sites draws its hit cells over the sites x shots grid at once,
#: coins are re-parametrised against the reference outcome, and one
#: readout mask per rate covers every row, so the draws move and the
#: law does not — pinned bit for bit against the unpacked walk under
#: forced faults and by distribution in the same file.  It was re-pinned
#: a third time when the readout mask became one random byte per cell
#: plus a sparse remainder: exact in law, its rate and independence
#: pinned in tests/quantum/test_pauli_frame.py.  The
#: audit-divergence digests were re-pinned when audits moved onto the
#: cohort walk: the tree fault fires at the chunk start, the walked
#: terminals are audited before the chunk is delivered, and the
#: diverging chunk is re-served whole by the interpreter, so that run
#: is labelled "interpreter".  The warm-replay and audit-divergence
#: digests were re-pinned again when each tree node began drawing one
#: uniform per shot and reading its ``(raw, reported)`` edge off the
#: node's cumulative edge law, edges ordered by reported bit (one draw
#: where there were two): the
#: counts move with the draws, and so do the stats, because the shots
#: a run grows the tree by depend on the walk's draws.  The law is the
#: same — pinned by chi-squared, under symmetric, asymmetric and
#: one-sided readout, in tests/uarch/test_cohort_replay.py.
ROUTES = {
    "static-blocker": (
        route_static_blocker, "interpreter",
        "99b5ed961746ac202ae56a1bb7f78510375b8c06b0e0040304985a24867cfde4",
        "ea45f3c2eb3d7625a9b92e5bad5fcb78385293f326eabb4cc0b17d4512ec9670"),
    "replay-disabled": (
        route_replay_disabled, "interpreter",
        "84c7e5a42ad5b6b11e53b06a1fe98dd3fdc9d98f032b888750d500bcaa89a98b",
        "4e31559698ffd1d2ab0b564b9180da8765ea0f6fbe0e4901a0f51556a7aa2e5c"),
    "warm-replay": (
        route_warm_replay, "replay",
        "3db93c27263d3da53c0e245595fbc863a361ea72d0d3034e36898a7c48591803",
        "e5bd1e628177770fdd6e9c754f493bfd1b5c26d553fdfd5183a9256be6692b73"),
    "frame-batch": (
        route_frame_batch, "frame",
        "33ddb43062ef596d0d5eceb08a913ad0a1ad1fe1309fd8c29663951209e418d0",
        "bb6754c18c2f265f677f7376b8321eb9b0eba1b5e5a32d702919df67016156ac"),
    "audit-divergence": (
        route_audit_divergence, "interpreter",
        "d13325cb1e7f72cd7813f1c8cc78adf4084cca95d87cf19825a1f8b4e40d894d",
        "f1d8dd1d7e40fcb28e28155151101d93e7a9e98d06330a4dd44268f69549cd9a"),
    "all-growth": (
        route_all_growth, "interpreter",
        "202c51821aec9b8b1532dbc102df7a2c964d9c467cf010c11ba4e9213c0006b8",
        "8985fd214e6028bd51e3a51c5530c0282fd40a2f6444ebda4adc85e39af4156a"),
}


def digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("route", list(ROUTES))
def test_route_output_is_pinned(route):
    run_route, engine, counts_digest, stats_digest = ROUTES[route]
    machine, counts = run_route()
    stats = machine.engine_stats
    assert stats.engine == engine
    assert digest(counts.as_dict()) == counts_digest
    assert digest(stats.as_dict()) == stats_digest


@pytest.mark.parametrize("route", list(ROUTES))
def test_labels_read_engine_stats(route):
    machine, _ = ROUTES[route][0]()
    stats = machine.engine_stats
    assert machine.last_run_engine == stats.engine
    assert machine.replay_fallback_reason == stats.fallback_reason
    assert machine.last_plant_backend == stats.plant_backend
    assert machine.plant_backend_reason == stats.plant_backend_reason


@pytest.mark.parametrize("route", list(ROUTES))
def test_run_counts_equals_folded_run_iter(route):
    run_route = ROUTES[route][0]
    machine, counts = run_route()
    twin, folded = run_route(fold_run_iter)
    assert json.dumps(counts.as_dict(), sort_keys=True) == \
        json.dumps(folded.as_dict(), sort_keys=True)
    assert machine.engine_stats.as_dict() == twin.engine_stats.as_dict()


def test_run_counts_keeps_no_per_shot_state():
    """Fold plans are kept per frame-batch template only: none on an
    interpreter run, none on a replay run (a cohort folds each terminal
    template once with its multiplicity)."""
    _, counts = route_static_blocker()
    assert not counts._plans
    _, counts = route_warm_replay()
    assert not counts._plans
    _, counts = route_frame_batch()
    assert len(counts._plans) == 1


def frame_machine():
    return make_machine(FRAME_CLIFFORD, seed=108, noise=pauli_noise())


def test_frame_chunk_boundary_counts_equal_folded_run_iter():
    shots = _CHUNK_SHOTS + 100
    machine = frame_machine()
    counts = machine.run_counts(shots)
    twin = frame_machine()
    folded = fold_run_iter(twin, shots)
    assert machine.engine_stats.engine == "frame"
    assert counts.shots == shots
    assert counts.as_dict() == folded.as_dict()
    assert machine.engine_stats.as_dict() == twin.engine_stats.as_dict()


@pytest.mark.parametrize("engine", ["frame", "replay"])
def test_stats_never_trail_delivered_traces(engine):
    """Both fast engines count a chunk when they yield it, before its
    first trace: mid-stream, shots_total advances once per chunk and is
    never below the traces delivered."""
    shots = _CHUNK_SHOTS + 100
    if engine == "frame":
        machine = frame_machine()
    else:
        machine = make_machine(ACTIVE_RESET, seed=109)
    delivered = 0
    seen = set()
    for _ in machine.run_iter(shots):
        delivered += 1
        snapshot = machine.engine_stats_snapshot()
        assert snapshot.engine == engine
        assert snapshot.shots_total >= delivered
        assert snapshot.shots_total == snapshot.frame_batched + \
            snapshot.replay_shots + snapshot.interpreter_shots
        seen.add(snapshot.shots_total)
    assert delivered == shots
    assert seen == {_CHUNK_SHOTS, shots}


#: The dataflow pass's reason for LIVE_LOAD's load.
LIVE_LOAD_REASON = (
    "LD at pc 3 reads data memory address 0x100 that ST at pc 4 writes "
    "— the stored value is live across shots (no same-shot store kills "
    "the load first)")

#: name -> (program, Pauli gate noise, queued mocks, use_replay,
#: expected engine, expected fallback reason, the outcome_independent
#: flag handed to the replay engine (None: it is not called)).
DECISIONS = {
    "caller-forced interpreter": (
        ACTIVE_RESET, False, False, False,
        "interpreter", "replay disabled by caller", None),
    "static blocker": (
        LIVE_LOAD, False, False, True,
        "interpreter", LIVE_LOAD_REASON, None),
    "replay with feedback": (
        ACTIVE_RESET, False, False, True, "replay", None, False),
    "replay without feedback": (
        FRAME_CLIFFORD, False, False, True, "replay", None, True),
    "frame": (
        FRAME_CLIFFORD, True, False, True, "frame", None, None),
    "frame blocked by C_X": (
        ACTIVE_RESET, True, False, True,
        "interpreter", _TRAJECTORY_BLOCKER, None),
    "queued mocks": (
        FRAME_CLIFFORD, False, True, True,
        "interpreter", _MOCK_BLOCKER, None),
    "queued mocks under Pauli noise": (
        FRAME_CLIFFORD, True, True, True, "interpreter",
        f"{_TRAJECTORY_BLOCKER}; {_MOCK_BLOCKER}", None),
}


@pytest.mark.parametrize("row", list(DECISIONS))
def test_engine_decision_table(row, monkeypatch):
    text, pauli, mocked, use_replay, engine, reason, independent = \
        DECISIONS[row]
    machine = make_machine(text, seed=110,
                           noise=pauli_noise() if pauli else None)
    if mocked:
        machine.measurement_unit.inject_mock_results(2, [1, 0])
    flags = []
    replay_shots = machine._replay_shots

    def spy(*args, **kwargs):
        flags.append(kwargs["outcome_independent"])
        return replay_shots(*args, **kwargs)

    monkeypatch.setattr(machine, "_replay_shots", spy)
    machine.run_counts(200, use_replay=use_replay)
    stats = machine.engine_stats
    assert stats.engine == engine
    assert stats.fallback_reason == reason
    assert flags == ([] if independent is None else [independent])


@pytest.mark.parametrize("text, pauli, engine", [
    (ACTIVE_RESET, False, "replay"),
    (FRAME_CLIFFORD, True, "frame"),
    (LIVE_LOAD, False, "interpreter")], ids=["replay", "frame",
                                             "static-blocker"])
def test_verdict_is_computed_once_per_binary(text, pauli, engine,
                                             monkeypatch):
    """A cold and a warm run of one binary analyse it once: one
    dataflow report and one module-level replay analysis; the backend
    verdict is read once per run."""
    calls = collections.Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(QuMAv2, "data_memory_report", counted(
        "dataflow", QuMAv2.data_memory_report))
    monkeypatch.setattr(QuMAv2, "plant_backend_reasons", counted(
        "backend", QuMAv2.plant_backend_reasons))
    monkeypatch.setattr(machine_module, "replay_unsupported_reasons",
                        counted("replay",
                                machine_module.replay_unsupported_reasons))
    machine = make_machine(text, seed=111,
                           noise=pauli_noise() if pauli else None)
    machine.run_counts(100)
    assert machine.last_run_engine == engine
    assert calls == {"dataflow": 1, "replay": 1, "backend": 1}
    machine.run_counts(100)
    assert calls == {"dataflow": 1, "replay": 1, "backend": 2}
