"""Seeded output pins for every engine route of ``QuMAv2.run_iter``.

The machine drives one run through one of seven routes: the
static-blocker interpreter, the caller-forced interpreter, warm replay,
the Pauli-frame batch, and three ways a selected fast path ends up on
the interpreter (a faulted frame reference shot, an audit divergence,
a replay run whose every shot was a growth shot).  Each route consumes
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
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import Assembler, two_qubit_instantiation
from repro.experiments.reset import FIG4_PROGRAM as ACTIVE_RESET
from repro.quantum import NoiseModel, QuantumPlant
from repro.quantum.noise import DecoherenceModel, GateErrorModel
from repro.uarch import FaultPlan, FaultSpec, QuMAv2, ShotCounts
from repro.uarch.machine import _CHUNK_SHOTS

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


def route_frame_reference_fault(count=QuMAv2.run_counts):
    machine = make_machine(FRAME_CLIFFORD, seed=105, noise=pauli_noise())
    machine.arm_faults(FaultPlan([FaultSpec("backend_gate", shot=0)]))
    return machine, count(machine, 100)


def route_audit_divergence(count=QuMAv2.run_counts):
    machine = make_machine(ACTIVE_RESET, seed=106, audit_fraction=1.0)
    count(machine, 50)
    machine.arm_faults(FaultPlan([FaultSpec("tree_bitflip")], seed=9))
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
#: ``mock_results_replayed`` (no run's draws changed).
ROUTES = {
    "static-blocker": (
        route_static_blocker, "interpreter",
        "99b5ed961746ac202ae56a1bb7f78510375b8c06b0e0040304985a24867cfde4",
        "e7e808078ea5320e61a4ad3933436cc52e60013994d56ca2c638e53684121d0a"),
    "replay-disabled": (
        route_replay_disabled, "interpreter",
        "84c7e5a42ad5b6b11e53b06a1fe98dd3fdc9d98f032b888750d500bcaa89a98b",
        "c62f61b70d93fef8278581f80d687ec39f6fe00bd833ff0209d06d34d968d314"),
    "warm-replay": (
        route_warm_replay, "replay",
        "cbdc96b04a470991d86e25258896834830c21141bae41387c487e9b8f54b5d11",
        "815cc4c26369c08c773f6da7a702dd5f0bbc0b246b742d302cca7733f085b082"),
    "frame-batch": (
        route_frame_batch, "frame",
        "92b6050f4b7760cc53e79f89f43076348ddeb03429a0b5e1460439429ec37a5e",
        "f056b970df08d3610c1d9bc789ce177986632a233167df08c2ad78bed444aba4"),
    "frame-reference-fault": (
        route_frame_reference_fault, "interpreter",
        "d9f3dcb227ae397ac7aaeb1e65a0422a2fe64bfd3178f3fa4a0698d46bfffdab",
        "27d1bae201693e1caf732e7a0ee4cb117111deaeded8b99da261acd063345583"),
    "audit-divergence": (
        route_audit_divergence, "replay",
        "d13325cb1e7f72cd7813f1c8cc78adf4084cca95d87cf19825a1f8b4e40d894d",
        "47ccff5779c50950685d07f683f95507481c93c129661b69f9c1f46ad538245b"),
    "all-growth": (
        route_all_growth, "interpreter",
        "202c51821aec9b8b1532dbc102df7a2c964d9c467cf010c11ba4e9213c0006b8",
        "9bcd6f4a5749b3f5c8f2a3b2718c2516b03509aa11fe01f207b88ae6dcf842ee"),
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


def test_frame_stats_never_trail_delivered_traces():
    """Frame stats advance per chunk, before the chunk's first trace:
    mid-stream, shots_total is never below the traces delivered."""
    shots = _CHUNK_SHOTS + 100
    machine = frame_machine()
    delivered = 0
    seen = set()
    for _ in machine.run_iter(shots):
        delivered += 1
        snapshot = machine.engine_stats_snapshot()
        assert snapshot.shots_total >= delivered
        assert snapshot.frame_batched == snapshot.shots_total
        seen.add(snapshot.shots_total)
    assert delivered == shots
    assert seen == {_CHUNK_SHOTS, shots}
