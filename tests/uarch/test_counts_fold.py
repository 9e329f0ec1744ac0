"""Fold equivalence of the ways shots enter ``ShotCounts``.

``run_counts`` never splices a trace for a cached replay walk or a
Pauli-frame chunk: it folds a replay terminal's template once with its
multiplicity (``add(template, shots=k)`` — a cached walk's outcomes
are the template's own) or a whole chunk of bit-packed reported
outcomes (``add_batch``, one ``(words,)`` row of 64 shots per word per
result).  Both must give exactly the aggregate that one ``add`` per
spliced trace gives — same ``as_dict()``, byte for byte once
serialised — on any template: qubits measured several times,
unmeasured qubits, no measurement at all, nonzero slips, and more
measured qubits than fit one packed machine word; and on any shot
count, whole words and partial last words alike.  Both engines deliver
a chunk as one ``ShotBatch`` (template groups, growth traces, optional
packed columns), whose ``fold`` must equal its own ``traces`` folded
one by one.  A replay terminal's fold plan (``FoldPlan``) is built
once and kept on its tree node, so folding it chunk after chunk must
equal its spliced shots too.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum.pauli_frame import pack_shots
from repro.uarch import ShotCounts, ShotTrace
from repro.uarch.trace import _PACKED_COUNT_QUBITS, FoldPlan, \
    ResultRecord, ShotBatch, ShotGroup, SlipRecord


@st.composite
def templates(draw):
    """A frozen template: a measurement sequence over a qubit pool (a
    qubit may repeat, pool qubits may stay unmeasured, the sequence may
    be empty) plus zero or more slips."""
    pool = draw(st.sampled_from([1, 3, 17, 90]))
    length = draw(st.integers(0, 2 * pool))
    qubits = draw(st.lists(st.integers(0, pool - 1),
                           min_size=length, max_size=length))
    results = [ResultRecord(qubit=qubit, raw_result=0, reported_result=0,
                            measure_start_ns=100.0 * index,
                            arrival_ns=100.0 * index + 60.0)
               for index, qubit in enumerate(qubits)]
    slip_ns = draw(st.lists(st.integers(1, 500), max_size=3))
    slips = [SlipRecord(cycle=index, due_ns=20.0 * index,
                        actual_ns=20.0 * index + late)
             for index, late in enumerate(slip_ns)]
    return ShotTrace(results=results, slips=slips,
                     instructions_executed=len(qubits) + 1,
                     classical_time_ns=1000.0, stop_reached=True)


@st.composite
def batches(draw):
    """A template and a ``(shots, measurements)`` pair of raw and
    reported 0/1 outcome matrices; 1..200 shots span one to four
    packed words, most with a partial last word."""
    template = draw(templates())
    shots = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = (shots, len(template.results))
    raw = rng.integers(0, 2, size=shape, dtype=np.uint8)
    # Biased reported bits so joint keys repeat across rows.
    reported = (rng.random(shape) < draw(st.sampled_from([0.05, 0.5])))
    return template, raw, reported.astype(np.uint8)


def own_outcomes(template, rng):
    """``template`` with random outcomes of its own, as a replay
    terminal carries the outcomes of every shot that reaches it."""
    pairs = rng.integers(0, 2, size=(len(template.results), 2))
    return template.with_sampled_results(
        [(raw, reported) for raw, reported in pairs.tolist()])


@st.composite
def shot_batches(draw):
    """A ``ShotBatch`` of 1..200 shots, each in one of one to three
    template groups or (sometimes) a growth shot with its own trace.
    Without columns each group has its own template and outcomes (a
    replay chunk); with packed raw/reported columns every group
    template shares one result layout, the column rows (a frame chunk
    is the one-group case).  A group's indices are an array, or (as
    the engines make them) built on first read or implied by a group
    of every shot."""
    shots = draw(st.integers(1, 200))
    groups = draw(st.integers(1, 3))
    columns = draw(st.booleans())
    growth = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(templates())
    if columns:
        group_templates = [ShotTrace(results=base.results,
                                     slips=base.slips[:group])
                           for group in range(groups)]
    else:
        group_templates = [own_outcomes(draw(templates()), rng)
                           for _ in range(groups)]
    owner = rng.integers(-1 if growth else 0, groups, size=shots)
    raw = reported = None
    if columns:
        shape = (shots, len(base.results))
        raw = pack_shots(rng.integers(0, 2, size=shape))
        reported = pack_shots(rng.random(shape) < 0.3)
    lazy = draw(st.booleans())
    batch = ShotBatch(shots)
    for group, template in enumerate(group_templates):
        indices = np.flatnonzero(owner == group)
        size = len(indices)
        if not size:
            continue
        if lazy:                           # as the engines make them
            indices = None if size == shots else (lambda chosen=indices:
                                                   chosen)
        batch.groups.append(ShotGroup(template, size, indices))
    batch.raw, batch.reported = raw, reported
    growth_template = draw(templates())
    for shot in np.flatnonzero(owner < 0).tolist():
        batch.growth[shot] = own_outcomes(growth_template, rng)
    return batch


def serialised(counts: ShotCounts) -> bytes:
    return json.dumps(counts.as_dict(), sort_keys=True).encode()


def spliced_rows(template, raw, reported):
    return [list(zip(raw_row, reported_row))
            for raw_row, reported_row in zip(raw.tolist(),
                                              reported.tolist())]


@settings(max_examples=150, deadline=None)
@given(batch=batches())
def test_add_batch_equals_add(batch):
    template, raw, reported = batch
    by_trace = ShotCounts()
    for outcomes in spliced_rows(template, raw, reported):
        by_trace.add(template.with_sampled_results(outcomes))
    by_batch = ShotCounts()
    by_batch.add_batch(template, pack_shots(reported), len(reported))
    assert serialised(by_batch) == serialised(by_trace)


@settings(max_examples=150, deadline=None)
@given(batch=batches(), shots=st.integers(1, 50))
def test_add_with_shots_equals_repeated_add(batch, shots):
    """``add(t, shots=k)`` (a replay terminal folded once with its
    multiplicity) serialises byte-identically to ``k`` calls of
    ``add(t)``."""
    template, raw, reported = batch
    for outcomes in spliced_rows(template, raw, reported)[:3]:
        trace = template.with_sampled_results(outcomes)
        repeated = ShotCounts()
        for _ in range(shots):
            repeated.add(trace)
        once = ShotCounts()
        once.add(trace, shots=shots)
        assert serialised(once) == serialised(repeated)


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(batches(), min_size=1, max_size=4),
       ways=st.lists(st.sampled_from(["add", "shots", "batch"]),
                     min_size=4, max_size=4))
def test_mixed_folds_into_one_aggregate(parts, ways):
    """Several templates folded into one aggregate, each a different
    way (a run that mixes growth shots, replay terminals and frame
    chunks)."""
    reference = ShotCounts()
    mixed = ShotCounts()
    for (template, raw, reported), way in zip(parts, ways):
        rows = spliced_rows(template, raw, reported)
        for outcomes in rows:
            reference.add(template.with_sampled_results(outcomes))
        if way == "batch":
            mixed.add_batch(template, pack_shots(reported), len(reported))
        elif way == "shots":
            multiplicity: dict = {}
            for outcomes in rows:
                key = tuple(outcomes)
                multiplicity[key] = multiplicity.get(key, 0) + 1
            for outcomes, shots in multiplicity.items():
                mixed.add(template.with_sampled_results(list(outcomes)),
                          shots=shots)
        else:
            for outcomes in rows:
                mixed.add(template.with_sampled_results(outcomes))
    assert serialised(mixed) == serialised(reference)
    assert len(mixed._plans) <= len(parts)


@settings(max_examples=150, deadline=None)
@given(batch=shot_batches())
def test_shot_batch_fold_equals_folded_traces(batch):
    """``ShotBatch.fold`` (``run_counts``) equals its spliced
    ``traces`` (``run_iter``) folded one ``add`` at a time."""
    traces = list(batch.traces())
    assert len(traces) == batch.shots
    by_trace = ShotCounts()
    for trace in traces:
        by_trace.add(trace)
    by_batch = ShotCounts()
    batch.fold(by_batch)
    assert serialised(by_batch) == serialised(by_trace)


@settings(max_examples=100, deadline=None)
@given(template=templates(), seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(1, 300), min_size=1, max_size=5))
def test_repeated_terminal_folds_equal_spliced_adds(template, seed, sizes):
    """A replay terminal folded chunk after chunk with its one kept
    plan (``ShotBatch.fold`` of a group carrying it) equals the same
    shots spliced from it and added one by one.  Neither way leaves a
    plan in the aggregate: ``add`` keeps none per trace."""
    terminal = own_outcomes(template, np.random.default_rng(seed))
    plan = FoldPlan.of(terminal)
    path = list(terminal.outcome_path())
    folded, spliced = ShotCounts(), ShotCounts()
    for size in sizes:
        ShotBatch(size, [ShotGroup(terminal, size, plan=plan)]).fold(folded)
        for _ in range(size):
            spliced.add(terminal.with_sampled_results(path))
    assert serialised(folded) == serialised(spliced)
    assert not folded._plans and not spliced._plans


@pytest.mark.parametrize("final_qubits", [_PACKED_COUNT_QUBITS - 1,
                                          _PACKED_COUNT_QUBITS,
                                          _PACKED_COUNT_QUBITS + 1])
@pytest.mark.parametrize("shots", [1, 63, 64, 65, 20_000])
def test_add_batch_at_the_packed_count_threshold(final_qubits, shots):
    """``add_batch`` counts on the packed words up to
    ``_PACKED_COUNT_QUBITS`` final qubits and by per-shot keys past it;
    both equal the spliced traces folded one by one, on whole and
    partial last words.  Every qubit is measured twice, so the final
    rows are every other result row."""
    qubits = [qubit for qubit in range(final_qubits) for _ in range(2)]
    template = ShotTrace(
        results=[ResultRecord(qubit=qubit, raw_result=0, reported_result=0,
                              measure_start_ns=100.0 * index,
                              arrival_ns=100.0 * index + 60.0)
                 for index, qubit in enumerate(qubits)],
        slips=[SlipRecord(cycle=1, due_ns=0.0, actual_ns=30.0)])
    rng = np.random.default_rng(shots + final_qubits)
    reported = (rng.random((shots, len(qubits)))
                < rng.uniform(0.05, 0.95, size=len(qubits)))
    reported = reported.astype(np.uint8)
    by_trace = ShotCounts()
    for outcomes in spliced_rows(template, reported, reported):
        by_trace.add(template.with_sampled_results(outcomes))
    by_batch = ShotCounts()
    by_batch.add_batch(template, pack_shots(reported), shots)
    assert serialised(by_batch) == serialised(by_trace)


def test_zero_measurement_frame_batch():
    """The frame engine's ``(0, words)`` output for a program that
    measures nothing still counts shots and slips."""
    template = ShotTrace(slips=[SlipRecord(cycle=3, due_ns=0.0,
                                           actual_ns=40.0)])
    reference = ShotCounts()
    for _ in range(5):
        reference.add(template.with_sampled_results([]))
    counts = ShotCounts()
    counts.add_batch(template, pack_shots(np.zeros((5, 0), dtype=np.uint8)),
                     5)
    assert serialised(counts) == serialised(reference)
    assert counts.shots == 5 and counts.total_slips == 5
    assert counts.max_slip_ns == 40.0 and not counts.joint


def test_zero_shot_add_is_a_no_op():
    """``add(t, shots=0)`` folds nothing, like ``add_batch(..., 0)``."""
    template = ShotTrace(
        results=[ResultRecord(qubit=2, raw_result=1, reported_result=1,
                              measure_start_ns=0.0, arrival_ns=60.0)],
        slips=[SlipRecord(cycle=3, due_ns=0.0, actual_ns=40.0)])
    counts = ShotCounts()
    counts.add(template, shots=0)
    batched = ShotCounts()
    batched.add_batch(template, pack_shots(np.ones((0, 1), dtype=np.uint8)),
                      0)
    assert counts.as_dict() == ShotCounts().as_dict() == batched.as_dict()


def test_wide_template_packs_into_several_words():
    """More than 64 measured qubits: the packed final columns span
    two machine words."""
    qubits = list(range(70)) + [5, 69, 0]
    template = ShotTrace(results=[
        ResultRecord(qubit=qubit, raw_result=0, reported_result=0,
                     measure_start_ns=float(index), arrival_ns=0.0)
        for index, qubit in enumerate(qubits)])
    rng = np.random.default_rng(7)
    reported = (rng.random((300, len(qubits))) < 0.02).astype(np.uint8)
    reported[::3] = reported[0]            # repeated joint keys
    reference = ShotCounts()
    for row in reported.tolist():
        reference.add(template.with_sampled_results(
            [(bit, bit) for bit in row]))
    counts = ShotCounts()
    counts.add_batch(template, pack_shots(reported), len(reported))
    assert serialised(counts) == serialised(reference)
    assert len(counts.joint) < 300


def test_fold_plans_are_per_template_not_per_shot():
    template = ShotTrace(results=[
        ResultRecord(qubit=2, raw_result=0, reported_result=0,
                     measure_start_ns=0.0, arrival_ns=60.0)])
    counts = ShotCounts()
    for bit in [0, 1] * 500:
        counts.add_batch(template, pack_shots(np.array([[bit]],
                                                       dtype=np.uint8)), 1)
    assert len(counts._plans) == 1
    assert counts.ones == {2: 500} and counts.measured == {2: 1000}
