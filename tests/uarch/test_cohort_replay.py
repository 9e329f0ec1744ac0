"""Cohort replay: a chunk of shots walks the tree as index
cohorts (``TimelineTree.sample_cohort``).

Each internal node draws one uniform per shot of the cohort that
reached it, all at once, and reads each shot's ``(raw, reported)``
edge off the node's cumulative edge law: the draw order is node-major
instead of shot-major, and raw outcome and readout error share one
draw, but each shot still samples from the same conditional
probabilities.  These tests pin that exactness against the path
probabilities computed from the tree itself — under symmetric,
asymmetric and one-sided readout error and near-deterministic nodes
— and pin that the one-shot walk reads the same edge rule, the
invariant the multiplicity fold relies on (a terminal's edge keys are
its template's own outcomes), that every replay run — plain or
audited — walks the tree once per chunk, and that ``run_iter``
delivers the walk's ``ShotBatch`` in shot order.  A feedback-free binary builds its terminals from its
first growth shot's trace instead of growing each by an interpreter
shot; its seeded counts are pinned to those the growth shots gave.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.core import Assembler, two_qubit_instantiation
from repro.core.operations import add_rabi_amplitude_operations, \
    default_operation_set
from repro.experiments.cfc import FIG5_PROGRAM
from repro.experiments.reset import FIG4_PROGRAM as ACTIVE_RESET
from repro.experiments.runner import ExperimentSetup
from repro.quantum import NoiseModel, QuantumPlant
from repro.quantum.noise import ReadoutErrorModel
from repro.uarch import QuMAv2, ShotTrace, TimelineTree
from repro.uarch.machine import _CHUNK_SHOTS
from repro.uarch.replay import _DETERMINISTIC_EPS
from repro.workloads.rabi import rabi_step_circuit

#: One measurement, no feedback: one timeline whatever the outcome.
RABI = """
SMIS S2, {2}
QWAIT 10000
X90 S2
MEASZ S2
QWAIT 50
STOP
"""

RAMSEY = """
SMIS S2, {2}
QWAIT 10000
X90 S2
QWAIT 600
X90 S2
MEASZ S2
QWAIT 50
STOP
"""


def make_machine(text, seed, noise=None):
    isa = two_qubit_instantiation()
    plant = QuantumPlant(isa.topology, noise=noise or NoiseModel(),
                         rng=np.random.default_rng(seed))
    machine = QuMAv2(isa, plant)
    machine.load(Assembler(isa).assemble_text(text))
    return machine


def cached_tree(machine) -> TimelineTree:
    assert machine._tree is not None
    return machine._tree


def edge_probability(node, raw, reported, readout) -> float:
    """P(raw, reported) at an internal node: the raw outcome from the
    node's pre-collapse P(1) (clamped like the walk), the reported one
    from the readout-error model."""
    p_one = node.p_one
    if p_one <= _DETERMINISTIC_EPS:
        p_one = 0.0
    elif p_one >= 1.0 - _DETERMINISTIC_EPS:
        p_one = 1.0
    p_raw = p_one if raw else 1.0 - p_one
    p_flip = readout.p10 if raw else readout.p01
    return p_raw * (p_flip if reported != raw else 1.0 - p_flip)


def path_probabilities(tree, readout):
    """Exact probability of every terminal template and of every
    unexplored edge (keyed by its outcome prefix)."""
    terminals, missing = {}, {}
    stack = [(tree._root, (), 1.0)]
    while stack:
        node, prefix, probability = stack.pop()
        if node.template is not None:
            terminals[id(node.template)] = probability
            continue
        for raw in (0, 1):
            for reported in (0, 1):
                edge = probability * edge_probability(node, raw, reported,
                                                      readout)
                if edge == 0.0:
                    continue
                path = prefix + ((raw, reported),)
                child = node.children.get((raw, reported))
                if child is None:
                    missing[path] = edge
                else:
                    stack.append((child, path, edge))
    return terminals, missing


def pin_near_deterministic(tree):
    """Move every second-measurement ``P(1)`` to within
    ``_DETERMINISTIC_EPS`` of the bit it leans to (active reset's
    second measurement reads a nearly prepared state)."""
    for node in tree._root.children.values():
        if node.template is None:
            near_one = node.p_one > 0.5
            node.p_one = 1.0 - _DETERMINISTIC_EPS / 2 if near_one \
                else _DETERMINISTIC_EPS / 2


#: Readout models the walk's exact law is checked under: the
#: calibrated symmetric default, an asymmetric one (a walk that swaps
#: ``p01`` and ``p10`` fails it) and a one-sided one (a 0 is never
#: misread, so no ``(0, 1)`` edge may appear).
READOUTS = {
    "symmetric": ReadoutErrorModel(),
    "asymmetric": ReadoutErrorModel(p01=0.02, p10=0.15),
    "one-sided": ReadoutErrorModel(p01=0.0, p10=0.2),
}


@pytest.mark.parametrize("readout, nudge, min_paths", [
    (READOUTS["symmetric"], None, 8),
    (READOUTS["asymmetric"], None, 8),
    # A node has at most three edges when a 0 is never misread.
    (READOUTS["one-sided"], None, 7),
    (READOUTS["asymmetric"], pin_near_deterministic, 8),
], ids=["symmetric", "asymmetric", "one-sided", "near-deterministic"])
def test_cohort_terminal_counts_match_exact_path_probabilities(
        readout, nudge, min_paths):
    """Grow the active-reset tree, then sample 200k shots as one
    cohort against the frozen tree (the growth callback inserts
    nothing, so a shot reaching an unexplored edge is counted under
    that edge).  The observed counts per terminal and per unexplored
    edge must fit the exact path probabilities (chi-squared), and no
    shot may take an edge of probability zero.  The near-deterministic
    case moves nodes' ``P(1)`` to within ``_DETERMINISTIC_EPS`` of 0
    and of 1 after growth, where the walk clamps them."""
    from scipy.stats import chisquare
    machine = make_machine(ACTIVE_RESET, seed=31,
                           noise=NoiseModel(readout=readout))
    machine.run_counts(3000)
    tree = cached_tree(machine)
    assert tree.path_count >= min_paths
    if nudge is not None:
        nudge(tree)
    terminals, missing = path_probabilities(tree, readout)
    assert sum(terminals.values()) + sum(missing.values()) == \
        pytest.approx(1.0)

    grown: dict[tuple, int] = {}

    def frozen_grow(prefix):
        key = tuple(prefix)
        grown[key] = grown.get(key, 0) + 1
        return ShotTrace()

    shots = 200_000
    batch = tree.sample_cohort(shots, frozen_grow)
    observed = {id(group.template): group.size for group in batch.groups}
    assert len(batch.growth) == sum(grown.values())
    assert sum(observed.values()) + len(batch.growth) == shots
    assert set(observed) <= set(terminals)
    assert set(grown) <= set(missing)

    bins = [(observed.get(key, 0), probability * shots)
            for key, probability in terminals.items()]
    bins += [(grown.get(key, 0), probability * shots)
             for key, probability in missing.items()]
    # Lump the rare bins so every expected count is at least five.
    rare = [(o, e) for o, e in bins if e < 5.0]
    bins = [(o, e) for o, e in bins if e >= 5.0]
    if rare:
        bins.append((sum(o for o, _ in rare), sum(e for _, e in rare)))
    observed_counts = np.array([o for o, _ in bins], dtype=float)
    expected_counts = np.array([e for _, e in bins])
    expected_counts *= observed_counts.sum() / expected_counts.sum()
    assert len(bins) >= min_paths
    _, p_value = chisquare(observed_counts, expected_counts)
    assert p_value > 1e-3


def test_one_shot_walk_reads_the_cohort_edge_rule():
    """``sample_shot`` and a one-shot cohort draw the same uniforms in
    the same order, so on a saturated tree they must take the same
    path from the same seed: both read each edge off the node's
    cumulative cuts."""
    readout = READOUTS["asymmetric"]
    machine = make_machine(ACTIVE_RESET, seed=30,
                           noise=NoiseModel(readout=readout))
    machine.run_counts(3000)
    tree = cached_tree(machine)
    paths = set()
    for seed in range(300):
        machine.plant.rng = np.random.default_rng(seed)
        template, outcomes = tree.sample_shot()
        machine.plant.rng = np.random.default_rng(seed)
        batch = tree.sample_cohort(1, lambda prefix: ShotTrace())
        if template is None:
            assert batch.growth
            continue
        (walked,) = batch.groups
        assert walked.template is template
        assert template.outcome_path() == tuple(outcomes)
        paths.add(tuple(outcomes))
    assert len(paths) >= 6


def test_cohort_grows_one_representative_per_unexplored_edge():
    """A cold tree grows one shot per unexplored edge a cohort
    reaches, and each such shot adds exactly one path; the rest of
    that cohort continues down the new branch."""
    machine = make_machine(ACTIVE_RESET, seed=32)
    machine.run_counts(5000)
    stats = machine.engine_stats
    assert stats.engine == "replay"
    assert stats.growth_stopped_reason is None
    assert stats.tree_paths >= 8
    assert stats.interpreter_shots == stats.segment_cache_misses
    assert stats.interpreter_shots == stats.tree_paths
    assert stats.replay_shots == 5000 - stats.interpreter_shots


def terminal_paths(tree):
    """(edge keys from the root, terminal template) of every
    terminal."""
    stack = [(tree._root, ())]
    while stack:
        node, path = stack.pop()
        if node.template is not None:
            yield path, node.template
        for key, child in node.children.items():
            stack.append((child, path + (key,)))


def test_terminal_edge_keys_are_the_template_outcomes_active_reset():
    machine = make_machine(ACTIVE_RESET, seed=33)
    machine.run_counts(2000)
    paths = list(terminal_paths(cached_tree(machine)))
    assert len(paths) >= 8
    for path, template in paths:
        assert path == template.outcome_path()


def test_terminal_edge_keys_are_the_template_outcomes_mock_cfc():
    """Fig. 5 after its mock queue drained: the mocked run is served by
    the interpreter and grows no tree; the next run replays both CFC
    branches on real outcomes (a readout flip reports 1)."""
    machine = make_machine(FIG5_PROGRAM, seed=34)
    machine.measurement_unit.inject_mock_results(
        2, [i % 2 for i in range(200)])
    machine.run_counts(200)
    assert machine.engine_stats.engine == "interpreter"
    assert machine._tree is None
    machine.run_counts(300)
    assert machine.engine_stats.engine == "replay"
    tree = cached_tree(machine)
    paths = list(terminal_paths(tree))
    assert any(template.results and template.results[0].reported_result
               for _, template in paths)
    for path, template in paths:
        assert path == template.outcome_path()


class CountingWalks:
    """Counts the tree's per-shot and cohort walks."""

    def __init__(self, monkeypatch):
        self.shots = 0
        self.cohorts = 0
        sample_shot = TimelineTree.sample_shot
        sample_cohort = TimelineTree.sample_cohort

        def counted_shot(tree, *args, **kwargs):
            self.shots += 1
            return sample_shot(tree, *args, **kwargs)

        def counted_cohort(tree, *args, **kwargs):
            self.cohorts += 1
            return sample_cohort(tree, *args, **kwargs)

        monkeypatch.setattr(TimelineTree, "sample_shot", counted_shot)
        monkeypatch.setattr(TimelineTree, "sample_cohort", counted_cohort)


def test_audited_run_walks_once_per_chunk(monkeypatch):
    machine = make_machine(ACTIVE_RESET, seed=35)
    machine.audit_fraction = 0.1
    walks = CountingWalks(monkeypatch)
    machine.run_counts(_CHUNK_SHOTS + 10)
    assert machine.engine_stats.engine == "replay"
    assert walks.shots == 0
    assert walks.cohorts == 2


def test_plain_run_walks_once_per_chunk(monkeypatch):
    machine = make_machine(ACTIVE_RESET, seed=36)
    walks = CountingWalks(monkeypatch)
    machine.run_counts(_CHUNK_SHOTS + 10)
    assert machine.engine_stats.engine == "replay"
    assert walks.shots == 0
    assert walks.cohorts == 2


def test_run_iter_delivers_the_walk_in_shot_order(monkeypatch):
    """``run_iter`` splices a cohort walk in shot order: shot ``s`` has
    the outcome path of the terminal group holding index ``s`` (and
    shares its template's timeline), and a growth shot is yielded as
    the very trace its interpreter shot produced."""
    batches = []
    sample_cohort = TimelineTree.sample_cohort

    def recorded(tree, *args, **kwargs):
        batch = sample_cohort(tree, *args, **kwargs)
        batches.append(batch)
        return batch

    monkeypatch.setattr(TimelineTree, "sample_cohort", recorded)
    machine = make_machine(ACTIVE_RESET, seed=37)
    traces = list(machine.run_iter(400))
    (batch,) = batches
    assert batch.growth and len(batch.groups) >= 2
    for shot, trace in batch.growth.items():
        assert traces[shot] is trace
    covered = set(batch.growth)
    for group in batch.groups:
        template = group.template
        path = template.outcome_path()
        for shot in group.indices.tolist():
            assert traces[shot].outcome_path() == path
            assert traces[shot].triggers is template.triggers
            assert traces[shot] is not template
        covered.update(group.indices.tolist())
    assert covered == set(range(400))


def test_cold_feedback_free_run_grows_one_shot(monkeypatch):
    """A cold Rabi run under readout error runs one interpreter shot,
    for the root; the cohort reaches all four ``(raw, reported)``
    terminals, each built from that shot's trace, and lands on them as
    cached shots."""
    machine = make_machine(RABI, seed=38)
    batches = []
    sample_cohort = TimelineTree.sample_cohort

    def recorded(tree, *args, **kwargs):
        batches.append(sample_cohort(tree, *args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(TimelineTree, "sample_cohort", recorded)
    machine.run_counts(2000)
    stats = machine.engine_stats
    assert stats.engine == "replay"
    assert stats.interpreter_shots == stats.segment_cache_misses == 1
    assert stats.tree_paths == 4
    assert stats.replay_shots == 1999
    (batch,) = batches
    assert sorted(group.template.outcome_path() for group in batch.groups) \
        == [((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)]
    (reference,) = batch.growth.values()
    for group in batch.groups:
        assert group.template.triggers is reference.triggers


def test_built_terminals_respect_the_node_cap():
    """Building a terminal counts against the node cap like growing
    one: at the cap growth stops, and every shot that reaches a
    missing terminal runs on the interpreter."""
    machine = make_machine(RABI, seed=40)
    tree = TimelineTree(machine.plant, max_nodes=2,
                        outcome_independent=True)
    batch = tree.sample_cohort(
        500, lambda prefix: machine._grow_tree_shot(tree, prefix))
    assert "node cap" in tree.growth_stopped_reason
    assert tree.node_count == 2 and tree.path_count == 1
    assert len(batch.growth) > 1
    assert len(batch.growth) + sum(
        group.size for group in batch.groups) == 500


@pytest.mark.parametrize("program", [ACTIVE_RESET, FIG5_PROGRAM],
                         ids=["fig4-conditional", "fig5-fmr"])
def test_feedback_runs_grow_one_path_per_shot(program):
    """Conditional micro-ops and ``FMR`` fork the timeline: every path
    still grows by its own interpreter shot."""
    machine = make_machine(program, seed=39)
    machine.run_counts(3000)
    stats = machine.engine_stats
    assert stats.engine == "replay"
    assert stats.interpreter_shots == stats.tree_paths > 1


def sweep_point_digest(program, seed: int) -> str:
    """SHA-256 of a cold sweep point's ``ShotCounts``: the Rabi pulses
    registered as in a Rabi sweep, a fresh seeded set-up, 1000 shots."""
    operations = default_operation_set()
    add_rabi_amplitude_operations(operations, 8, max_angle=2.0 * math.pi)
    setup = ExperimentSetup.create(isa=two_qubit_instantiation(operations),
                                   noise=NoiseModel(), seed=seed)
    setup.machine.load(program(setup))
    counts = setup.machine.run_counts(1000)
    assert setup.machine.engine_stats.interpreter_shots == 1
    return hashlib.sha256(
        json.dumps(counts.as_dict(), sort_keys=True).encode()).hexdigest()


#: Captured while every terminal still grew by a forced interpreter
#: shot: a forced shot draws nothing from the plant's generator, so
#: building the terminals instead leaves the counts bit for bit.
#: Re-pinned when each node began drawing one uniform per shot against
#: its cumulative edge law instead of a raw Bernoulli and a readout
#: flip: the draws move, the law does not (the chi-squared test above).
@pytest.mark.parametrize("program, seed, expected", [
    (lambda setup: setup.compile_circuit(rabi_step_circuit(3, qubit=2)),
     41, "d48a2ca3ef09a27635f9a76f1a81080aa2e736858dd7ce61d1d3cdd4ea52a4a0"),
    (lambda setup: setup.assemble_text(RAMSEY),
     42, "c528cfbd451af3562348716ae6a05d08c714f1ab3f5fba358003c2bf098f53f1"),
], ids=["rabi", "ramsey"])
def test_cold_sweep_point_counts_are_pinned(program, seed, expected):
    assert sweep_point_digest(program, seed) == expected
