"""Fold equivalence of the ways shots enter ``ShotCounts``.

``run_counts`` never splices a trace for a cached replay walk or a
Pauli-frame chunk: it folds a replay terminal's template once with its
multiplicity (``add(template, shots=k)`` — a cached walk's outcomes
are the template's own) or a whole reported-outcome matrix
(``add_batch``).  Both must give exactly the aggregate that one
``add`` per spliced trace gives — same ``as_dict()``, byte for byte
once serialised — on any template: qubits measured several times,
unmeasured qubits, no measurement at all, nonzero slips, and more
measured qubits than fit one packed machine word.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch import ShotCounts, ShotTrace
from repro.uarch.trace import ResultRecord, SlipRecord


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
    reported 0/1 outcome matrices."""
    template = draw(templates())
    shots = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = (shots, len(template.results))
    raw = rng.integers(0, 2, size=shape, dtype=np.uint8)
    # Biased reported bits so joint keys repeat across rows.
    reported = (rng.random(shape) < draw(st.sampled_from([0.05, 0.5])))
    return template, raw, reported.astype(np.uint8)


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
    by_batch.add_batch(template, reported)
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
            mixed.add_batch(template, reported)
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


def test_zero_measurement_frame_batch():
    """The frame engine's ``(shots, 0)`` output for a program that
    measures nothing still counts shots and slips."""
    template = ShotTrace(slips=[SlipRecord(cycle=3, due_ns=0.0,
                                           actual_ns=40.0)])
    reference = ShotCounts()
    for _ in range(5):
        reference.add(template.with_sampled_results([]))
    counts = ShotCounts()
    counts.add_batch(template, np.zeros((5, 0), dtype=np.uint8))
    assert serialised(counts) == serialised(reference)
    assert counts.shots == 5 and counts.total_slips == 5
    assert counts.max_slip_ns == 40.0 and not counts.joint


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
    counts.add_batch(template, reported)
    assert serialised(counts) == serialised(reference)
    assert len(counts.joint) < 300


def test_fold_plans_are_per_template_not_per_shot():
    template = ShotTrace(results=[
        ResultRecord(qubit=2, raw_result=0, reported_result=0,
                     measure_start_ns=0.0, arrival_ns=60.0)])
    counts = ShotCounts()
    for bit in [0, 1] * 500:
        counts.add_batch(template, np.array([[bit]], dtype=np.uint8))
    assert len(counts._plans) == 1
    assert counts.ones == {2: 500} and counts.measured == {2: 1000}
