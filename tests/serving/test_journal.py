"""Checkpoint-journal integrity and crash-recovery properties.

The property test is the heart of the PR's durability claim: resuming
from *any* byte-truncation prefix of the journal — including torn
mid-record writes and trailing garbage — must reproduce the
uninterrupted sweep's :class:`ShotCounts` bit for bit.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.errors import ExperimentIntegrityError
from repro.serving import CheckpointJournal, record_digest
from repro.serving.sweep import execution_payload
from repro.uarch.trace import ShotCounts

from serving_workload import make_spec, run_points_inline
from repro.serving import execute_point


@pytest.fixture(scope="session")
def reference_journal(inline_setup, tmp_path_factory):
    """A complete journal for a 4-point sweep, plus the expected
    counts it encodes (computed in-process, no worker pool)."""
    spec = make_spec("journal-prop", num_points=4, shots=12, seed=3)
    path = tmp_path_factory.mktemp("journal") / "reference.jsonl"
    expected = {}
    with CheckpointJournal(path) as journal:
        journal.load(spec)
        for index in range(spec.num_points):
            point = spec.point(index)
            counts, stats, latency_s = execute_point(
                inline_setup, spec, point)
            journal.append_point(execution_payload(
                point, counts, stats, latency_s))
            expected[index] = counts
    return spec, path.read_bytes(), expected


class TestRecordDigest:
    def test_digest_ignores_its_own_field(self):
        record = {"kind": "point", "index": 3, "seed": 9}
        digest = record_digest(record)
        assert record_digest({**record, "digest": digest}) == digest

    def test_digest_changes_with_content(self):
        assert (record_digest({"index": 1})
                != record_digest({"index": 2}))


class TestJournalBasics:
    def test_fresh_journal_writes_header(self, tmp_path):
        spec = make_spec("fresh", num_points=2)
        path = tmp_path / "fresh.jsonl"
        with CheckpointJournal(path) as journal:
            assert journal.load(spec) == {}
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "header"
        assert header["fingerprint"] == spec.fingerprint()
        assert header["digest"] == record_digest(header)

    def test_append_then_reload_roundtrips(self, tmp_path,
                                           inline_setup):
        spec = make_spec("roundtrip", num_points=2)
        path = tmp_path / "roundtrip.jsonl"
        counts = run_points_inline(inline_setup, spec, [0])
        point = spec.point(0)
        payload = {"index": 0, "seed": point.seed,
                   "counts": counts[0].as_dict(), "engine": "replay",
                   "plant_backend": "dense", "interpreter_shots": 3,
                   "replay_shots": 9, "latency_s": 0.01}
        with CheckpointJournal(path) as journal:
            journal.load(spec)
            journal.append_point(payload)
        with CheckpointJournal(path) as journal:
            completed = journal.load(spec)
        assert set(completed) == {0}
        assert (ShotCounts.from_dict(completed[0]["counts"])
                == counts[0])

    def test_agreeing_duplicates_are_ignored(self, tmp_path,
                                             inline_setup):
        spec = make_spec("dupes", num_points=2)
        path = tmp_path / "dupes.jsonl"
        counts = run_points_inline(inline_setup, spec, [0])
        payload = {"index": 0, "seed": spec.point(0).seed,
                   "counts": counts[0].as_dict()}
        with CheckpointJournal(path) as journal:
            journal.load(spec)
            journal.append_point(payload)
            journal.append_point(payload)
        with CheckpointJournal(path) as journal:
            assert set(journal.load(spec)) == {0}
            assert journal.duplicates_ignored == 1

    def test_conflicting_duplicates_refuse_to_load(self, tmp_path,
                                                   inline_setup):
        spec = make_spec("conflict", num_points=2)
        path = tmp_path / "conflict.jsonl"
        counts = run_points_inline(inline_setup, spec, [0])
        good = counts[0].as_dict()
        bad = dict(good)
        bad["shots"] = good["shots"] + 1
        with CheckpointJournal(path) as journal:
            journal.load(spec)
            journal.append_point({"index": 0,
                                  "seed": spec.point(0).seed,
                                  "counts": good})
            journal.append_point({"index": 0,
                                  "seed": spec.point(0).seed,
                                  "counts": bad})
        with pytest.raises(ExperimentIntegrityError,
                           match="conflicting"):
            CheckpointJournal(path).load(spec)

    def test_fingerprint_mismatch_refuses_to_load(self, tmp_path):
        spec = make_spec("mine", num_points=2, seed=1)
        other = make_spec("mine", num_points=2, seed=2)
        path = tmp_path / "mine.jsonl"
        with CheckpointJournal(path) as journal:
            journal.load(spec)
        with pytest.raises(ExperimentIntegrityError,
                           match="fingerprint") as info:
            CheckpointJournal(path).load(other)
        assert info.value.context["sweep"] == "mine"

    def test_wrong_seed_refuses_to_load(self, tmp_path):
        spec = make_spec("seeded", num_points=2)
        path = tmp_path / "seeded.jsonl"
        with CheckpointJournal(path) as journal:
            journal.load(spec)
            journal.append_point({"index": 0, "seed": 12345,
                                  "counts": {}})
        with pytest.raises(ExperimentIntegrityError, match="seed"):
            CheckpointJournal(path).load(spec)

    def test_out_of_range_index_refuses_to_load(self, tmp_path):
        spec = make_spec("bounds", num_points=2)
        path = tmp_path / "bounds.jsonl"
        with CheckpointJournal(path) as journal:
            journal.load(spec)
            journal.append_point({"index": 99,
                                  "seed": 0, "counts": {}})
        with pytest.raises(ExperimentIntegrityError, match="outside"):
            CheckpointJournal(path).load(spec)

    def test_append_before_load_is_an_error(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "closed.jsonl")
        with pytest.raises(ExperimentIntegrityError, match="load"):
            journal.append_point({"index": 0})

    def test_bitflip_in_record_drops_suffix(self, tmp_path,
                                            reference_journal):
        spec, data, expected = reference_journal
        lines = data.splitlines(keepends=True)
        # Flip one byte inside the point-1 record (header is line 0):
        # it and both records after it become untrusted; point 0
        # survives.
        corrupt = bytearray(lines[2])
        corrupt[len(corrupt) // 2] ^= 0x01
        path = tmp_path / "bitflip.jsonl"
        path.write_bytes(b"".join(lines[:2]) + bytes(corrupt)
                         + b"".join(lines[3:]))
        journal = CheckpointJournal(path)
        completed = journal.load(spec)
        journal.close()
        assert set(completed) == {0}
        assert journal.torn_records_dropped == 3


class TestTruncationResumeProperty:
    """ISSUE 7 satellite: resume from ANY truncation prefix of the
    journal — torn mid-record writes included — yields final counts
    identical to the uninterrupted sweep."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[
                  HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_prefix_resumes_bit_identical(self, data, tmp_path,
                                              reference_journal,
                                              inline_setup):
        spec, journal_bytes, expected = reference_journal
        cut = data.draw(st.integers(min_value=0,
                                    max_value=len(journal_bytes)),
                        label="truncation byte offset")
        garbage = data.draw(st.binary(max_size=24),
                            label="trailing garbage")
        path = tmp_path / f"truncated-{cut}.jsonl"
        path.write_bytes(journal_bytes[:cut] + garbage)

        journal = CheckpointJournal(path)
        completed = journal.load(spec)

        # Every record the loader accepted is bit-identical to the
        # uninterrupted run's counts for that point.
        for index, payload in completed.items():
            assert (ShotCounts.from_dict(payload["counts"])
                    == expected[index])

        # Re-executing exactly the missing points (what the service
        # does on resume) reproduces the full sweep bit for bit, and
        # the re-opened journal accepts the appends — the torn suffix
        # was truncated away, not left to shadow them.
        remaining = [index for index in range(spec.num_points)
                     if index not in completed]
        recomputed = run_points_inline(inline_setup, spec, remaining)
        for index in remaining:
            point = spec.point(index)
            journal.append_point({"index": index, "seed": point.seed,
                                  "counts": recomputed[index].as_dict()})
        journal.close()

        final = dict(completed)
        with CheckpointJournal(path) as reopened:
            reloaded = reopened.load(spec)
        assert set(reloaded) == set(range(spec.num_points))
        for index in range(spec.num_points):
            merged = (recomputed[index] if index in recomputed
                      else ShotCounts.from_dict(
                          final[index]["counts"]))
            assert merged == expected[index]
            assert (ShotCounts.from_dict(reloaded[index]["counts"])
                    == expected[index])

    def test_full_journal_resumes_everything(self, tmp_path,
                                             reference_journal):
        spec, journal_bytes, expected = reference_journal
        path = tmp_path / "full.jsonl"
        path.write_bytes(journal_bytes)
        with CheckpointJournal(path) as journal:
            completed = journal.load(spec)
        assert set(completed) == set(range(spec.num_points))
