"""The cohort walk splits by counts; shot indices are built on demand.

``TimelineTree.sample_cohort`` draws one uniform per shot at each
internal node and sizes each child's cohort by counting the uniforms
between two cuts.  A terminal group's shot indices are built only when
something reads them, from one stable partition per node, shared by
its children.  The identity pin runs that walk against
:func:`reference_sample_cohort` — the walk as it was when every node
partitioned its cohort's index array eagerly, kept verbatim — on two
machines seeded alike, cold and then warm: the materialised groups
(templates, index arrays, order) and the growth shots (keys and
traces) must match bit for bit.  The count tests pin what the laziness
buys: a warm plain ``run_counts`` builds no shot-index array, calls no
``argsort`` and builds a fold plan only for a terminal no walk reached
before, while ``run_iter`` builds each reached node's partition
exactly once.
"""

import numpy as np
import pytest

from repro.core import rotated_surface_instantiation
from repro.experiments.cfc import FIG5_PROGRAM
from repro.experiments.reset import FIG4_PROGRAM as ACTIVE_RESET
from repro.experiments.runner import ExperimentSetup
from repro.quantum import NoiseModel
from repro.quantum.noise import DecoherenceModel, GateErrorModel
from repro.uarch import ShotTrace, TimelineTree
from repro.uarch import replay
from repro.uarch.replay import _walkable
from repro.uarch.trace import FoldPlan, ShotBatch, ShotGroup
from repro.workloads.allxy import allxy_two_qubit_circuit
from repro.workloads.surface_code import rotated_surface_circuit


def reference_sample_cohort(self, shots, grow):
    """The index-partition walk: each internal node stably partitions
    its cohort's shot indices by edge code before its children walk.
    The body is kept verbatim; only the returned groups are wrapped in
    the group value the machine reads."""
    rng = self._plant.rng
    batch = ShotBatch(shots)
    # (parent node, edge key, shot indices, outcome prefix)
    stack = [(None, None, np.arange(shots), [])]
    while stack:
        parent, key, indices, prefix = stack.pop()
        node = self._child(parent, key)
        if node is None and parent is not None:
            node = self._build_terminal(parent, key, prefix)
        grown = 0
        while grown < len(indices) and not _walkable(node):
            batch.growth[int(indices[grown])] = grow(prefix)
            grown += 1
            node = self._child(parent, key)
        indices = indices[grown:]
        if not len(indices):
            continue
        if node.template is not None:
            batch.groups.append((node.template, indices))
            continue
        uniforms = rng.random(len(indices))
        past = [uniforms >= cut for cut in self._edge_cuts(node.p_one)]
        codes = past[0].view(np.uint8) + past[1]
        codes += past[2]
        # Code k's shots sit at [bounds[k], bounds[k + 1]).
        bounds = [0, *(len(indices) - np.count_nonzero(mask)
                       for mask in past), len(indices)]
        ordered = indices[np.argsort(codes, kind="stable")]
        for code in (3, 2, 1, 0):        # (0, 0) is walked first
            start, end = bounds[code], bounds[code + 1]
            if start < end:
                pair = (code & 1, code >> 1)
                stack.append((node, pair, ordered[start:end],
                              prefix + [pair]))
    batch.groups = [ShotGroup(template, len(indices), indices)
                    for template, indices in batch.groups]
    return batch


def readout_only_noise():
    """Readout flips only: the surface code stays on the tableau and
    replays."""
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=0.0,
                                  two_qubit_error=0.0))


def active_reset(setup):
    return setup.assemble_text(ACTIVE_RESET)


def cfc(setup):
    return setup.assemble_text(FIG5_PROGRAM)


def allxy(setup):
    return setup.compile_circuit(allxy_two_qubit_circuit(7))


def surface17(setup):
    return setup.compile_circuit(rotated_surface_circuit(3, rounds=1))


#: name -> (program(setup), set-up keywords, shots per run).
SCENARIOS = {
    "active_reset": (active_reset, {}, 3000),
    "cfc": (cfc, {}, 3000),
    "allxy": (allxy, {}, 3000),
    "surface17": (surface17, {"isa": rotated_surface_instantiation(3),
                              "noise": readout_only_noise()}, 300),
}


def loaded_machine(scenario, seed):
    program, keywords, _ = SCENARIOS[scenario]
    keywords = {"noise": NoiseModel(), **keywords}
    setup = ExperimentSetup.create(seed=seed, **keywords)
    setup.machine.load(program(setup))
    return setup.machine


def walked_batches(monkeypatch, scenario, seed, walk):
    """Every batch ``walk`` returns over a cold and then a warm run of
    ``scenario`` (``run_counts`` then ``run_iter``), plus each run's
    counts."""
    batches, counts = [], []

    def recorded(tree, *args):
        batches.append(walk(tree, *args))
        return batches[-1]

    machine = loaded_machine(scenario, seed)
    shots = SCENARIOS[scenario][2]
    with monkeypatch.context() as patch:
        patch.setattr(TimelineTree, "sample_cohort", recorded)
        counts.append(machine.run_counts(shots).as_dict())
        assert machine.engine_stats.engine == "replay"
        warm = [trace.outcome_path() for trace in machine.run_iter(shots)]
        assert machine.engine_stats.tree_reused
    return batches, counts, warm


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_lazy_groups_equal_the_index_partition_walk(monkeypatch, scenario,
                                                    seed):
    lazy, lazy_counts, lazy_warm = walked_batches(
        monkeypatch, scenario, seed, TimelineTree.sample_cohort)
    eager, eager_counts, eager_warm = walked_batches(
        monkeypatch, scenario, seed, reference_sample_cohort)
    assert lazy_counts == eager_counts
    assert lazy_warm == eager_warm
    assert len(lazy) == len(eager) == 2
    assert lazy[0].growth, "the cold run grows its tree"
    for ours, theirs in zip(lazy, eager):
        assert ours.shots == theirs.shots
        assert list(ours.growth) == list(theirs.growth)
        assert list(ours.growth.values()) == list(theirs.growth.values())
        assert len(ours.groups) == len(theirs.groups)
        for group, expected in zip(ours.groups, theirs.groups):
            assert group.template == expected.template
            assert group.size == expected.size
            assert group.indices.dtype == expected.indices.dtype
            np.testing.assert_array_equal(group.indices, expected.indices)


def saturated_machine(seed):
    """An active-reset machine whose kept tree served a whole run
    without growing."""
    machine = loaded_machine("active_reset", seed)
    for _ in range(10):
        machine.run_counts(20_000)
        if machine.engine_stats.interpreter_shots == 0:
            return machine
    raise AssertionError("the active-reset tree did not saturate")


def test_frozen_tree_walks_alike_from_one_state():
    """On one frozen tree (the growth callback inserts nothing), from
    one generator state, both walks hand out the very same template
    objects, index arrays and growth keys, and leave the generator in
    the same state."""
    machine = loaded_machine("active_reset", seed=3)
    machine.run_counts(3000)
    tree = machine._tree
    rng = machine.plant.rng

    def frozen_walk(walk):
        prefixes = []

        def frozen_grow(prefix):
            prefixes.append(tuple(prefix))
            return ShotTrace()

        return walk(tree, 20_000, frozen_grow), prefixes

    for _ in range(5):
        state = rng.bit_generator.state
        expected, expected_prefixes = frozen_walk(reference_sample_cohort)
        after = rng.bit_generator.state
        rng.bit_generator.state = state
        batch, prefixes = frozen_walk(TimelineTree.sample_cohort)
        assert rng.bit_generator.state == after
        assert prefixes == expected_prefixes
        assert list(batch.growth) == list(expected.growth)
        assert len(batch.groups) == len(expected.groups)
        for group, reference in zip(batch.groups, expected.groups):
            assert group.template is reference.template
            np.testing.assert_array_equal(group.indices, reference.indices)


class PartitionCounts:
    """Counts splits made, partitions built (and of which split),
    cohort index arrays built, ``argsort`` calls and fold plans
    built."""

    def __init__(self, monkeypatch):
        self.splits = 0
        self.built: list[int] = []
        self.cohort_indices = 0
        self.argsorts = 0
        self.plans = 0
        split_init = replay._Split.__init__
        ordered = replay._Split.ordered
        cohort_indices = replay._Cohort.indices
        argsort = np.argsort
        plan_of = FoldPlan.of.__func__

        def counted_init(split, *args):
            self.splits += 1
            split_init(split, *args)

        def counted_ordered(split):
            if split._ordered is None:
                self.built.append(id(split))
            return ordered(split)

        def counted_indices(cohort):
            self.cohort_indices += 1
            return cohort_indices(cohort)

        def counted_argsort(*args, **kwargs):
            self.argsorts += 1
            return argsort(*args, **kwargs)

        def counted_plan(cls, template):
            self.plans += 1
            return plan_of(cls, template)

        monkeypatch.setattr(replay._Split, "__init__", counted_init)
        monkeypatch.setattr(replay._Split, "ordered", counted_ordered)
        monkeypatch.setattr(replay._Cohort, "indices", counted_indices)
        monkeypatch.setattr(np, "argsort", counted_argsort)
        monkeypatch.setattr(FoldPlan, "of", classmethod(counted_plan))


def terminals(tree):
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if node.template is not None:
            yield node
        stack.extend(node.children.values())


def test_warm_run_counts_builds_no_partition(monkeypatch):
    """A warm plain run reads group sizes only.  The one fold plan a
    terminal needs is built when a walk first reaches it and kept on
    its tree node."""
    machine = saturated_machine(seed=5)
    unplanned = [node for node in terminals(machine._tree)
                 if node.plan is None]
    counts = PartitionCounts(monkeypatch)
    machine.run_counts(40_000)
    stats = machine.engine_stats
    assert stats.tree_reused and stats.interpreter_shots == 0
    assert counts.splits > 0
    assert counts.built == []
    assert counts.cohort_indices == 0
    assert counts.argsorts == 0
    assert counts.plans == sum(node.plan is not None for node in unplanned)
    counts.plans = 0
    machine.run_counts(40_000)
    assert machine.engine_stats.interpreter_shots == 0
    assert counts.plans <= sum(node.plan is None for node in unplanned)
    assert counts.built == [] and counts.argsorts == 0


def test_warm_run_iter_partitions_each_reached_node_once(monkeypatch):
    machine = saturated_machine(seed=5)
    counts = PartitionCounts(monkeypatch)
    traces = list(machine.run_iter(4000))
    assert len(traces) == 4000
    assert machine.engine_stats.interpreter_shots == 0
    assert counts.splits > 0
    assert len(counts.built) == len(set(counts.built)) == counts.splits
    assert counts.argsorts == counts.splits
