"""Cohort replay: a chunk of shots walks the tree as index
cohorts (``TimelineTree.sample_cohort``).

The cohort draws every node's outcomes for all of its shots at once,
so the draw order is node-major instead of shot-major; each shot still
samples from the same conditional probabilities.  These tests pin that
exactness against the path probabilities computed from the tree
itself, the invariant the multiplicity fold relies on (a terminal's
edge keys are its template's own outcomes), and that the runs which
must stay shot by shot — armed fault plans and audits — still walk
once per shot.
"""

import numpy as np
import pytest

from repro.core import Assembler, two_qubit_instantiation
from repro.experiments.cfc import FIG5_PROGRAM
from repro.experiments.reset import FIG4_PROGRAM as ACTIVE_RESET
from repro.quantum import NoiseModel, QuantumPlant
from repro.uarch import FaultPlan, FaultSpec, QuMAv2, ShotTrace, \
    TimelineTree
from repro.uarch.replay import _DETERMINISTIC_EPS


def make_machine(text, seed, noise=None):
    isa = two_qubit_instantiation()
    plant = QuantumPlant(isa.topology, noise=noise or NoiseModel(),
                         rng=np.random.default_rng(seed))
    machine = QuMAv2(isa, plant)
    machine.load(Assembler(isa).assemble_text(text))
    return machine


def cached_tree(machine) -> TimelineTree:
    (tree,) = machine._tree_cache.values()
    return tree


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


def test_cohort_terminal_counts_match_exact_path_probabilities():
    """Grow the active-reset tree, then sample 200k shots as one
    cohort against the frozen tree (the growth callback inserts
    nothing, so a shot reaching an unexplored edge is counted under
    that edge).  The observed counts per terminal and per unexplored
    edge must fit the exact path probabilities (chi-squared)."""
    from scipy.stats import chisquare
    machine = make_machine(ACTIVE_RESET, seed=31)
    machine.run_counts(3000)
    tree = cached_tree(machine)
    assert tree.path_count >= 8
    readout = machine.plant.noise.readout
    terminals, missing = path_probabilities(tree, readout)
    assert sum(terminals.values()) + sum(missing.values()) == \
        pytest.approx(1.0)

    grown: dict[tuple, int] = {}

    def frozen_grow(prefix):
        key = tuple(prefix)
        grown[key] = grown.get(key, 0) + 1
        return ShotTrace()

    shots = 200_000
    cohort = tree.sample_cohort(shots, frozen_grow)
    observed = {id(template): len(indices)
                for template, indices in cohort.terminals}
    assert len(cohort.growth) == sum(grown.values())
    assert sum(observed.values()) + len(cohort.growth) == shots
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
    assert len(bins) >= 8
    _, p_value = chisquare(observed_counts, expected_counts)
    assert p_value > 1e-3


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
    assert not machine._tree_cache
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


def planned(machine):
    machine.arm_faults(FaultPlan([FaultSpec("tree_bitflip",
                                            shot=10**6)]))


def audited(machine):
    machine.audit_fraction = 0.1


@pytest.mark.parametrize("arm", [planned, audited],
                         ids=["fault-plan", "audits"])
def test_per_shot_runs_walk_once_per_shot(monkeypatch, arm):
    machine = make_machine(ACTIVE_RESET, seed=35)
    arm(machine)
    walks = CountingWalks(monkeypatch)
    shots = 300
    machine.run_counts(shots)
    assert machine.engine_stats.engine == "replay"
    assert walks.shots == shots
    assert walks.cohorts == 0


def test_plain_run_walks_once_per_chunk(monkeypatch):
    from repro.uarch.machine import _CHUNK_SHOTS
    machine = make_machine(ACTIVE_RESET, seed=36)
    walks = CountingWalks(monkeypatch)
    machine.run_counts(_CHUNK_SHOTS + 10)
    assert machine.engine_stats.engine == "replay"
    assert walks.shots == 0
    assert walks.cohorts == 2
