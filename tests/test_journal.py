"""Tests for the batch write-ahead journal (repro.core.journal).

Covers the record format (checksummed JSONL), the longest-valid-prefix
loader with tail quarantine, fingerprint binding, and the resume path
through ``evaluate_batch``/``resume_batch``: a resumed batch restores
completed answers bitwise, recomputes error records, and reports the
same replay-stable counters as an uninterrupted run.
"""

import json
import warnings

import pytest

from repro.core.estimator import PQEEngine
from repro.core.journal import (
    JOURNAL_VERSION,
    BatchJournal,
    JournalWarning,
    batch_fingerprint,
    check_fingerprint,
    load_journal,
)
from repro.core.parallel import BatchItem
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import JournalError, ReproError
from repro.queries import parse_query
from repro.testing.faults import flip_bit, truncate_tail


def _pdb(shift: int = 0) -> ProbabilisticDatabase:
    labels = {}
    for i in range(3):
        labels[Fact("R", (f"a{i + shift}", f"b{i}"))] = "1/2"
        labels[Fact("S", (f"b{i}", f"c{i}"))] = "2/3"
    return ProbabilisticDatabase(labels)


@pytest.fixture
def rs_items(rs_query):
    return [
        BatchItem(rs_query, _pdb(shift), method="fpras")
        for shift in range(4)
    ]


@pytest.fixture
def engine():
    return PQEEngine(seed=11)


class TestRecordFormat:
    def test_every_line_is_checksummed_json(self, tmp_path, engine, rs_items):
        path = tmp_path / "batch.jsonl"
        engine.evaluate_batch(rs_items, seed=11, journal=path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(rs_items)  # header + one per item
        for line in lines:
            record = json.loads(line)
            assert "checksum" in record
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["version"] == JOURNAL_VERSION
        assert header["items"] == len(rs_items)

    def test_loader_round_trip(self, tmp_path, engine, rs_items):
        path = tmp_path / "batch.jsonl"
        fresh = engine.evaluate_batch(rs_items, seed=11, journal=path)
        loaded = load_journal(path)
        assert loaded.quarantined == 0
        assert sorted(loaded.completed()) == [0, 1, 2, 3]
        for index in range(len(rs_items)):
            restored = loaded.restore_result(index)
            assert restored.replayed
            assert restored.answer == fresh.results[index].answer
            assert restored.seed == fresh.results[index].seed

    def test_exact_fraction_survives_round_trip(self, tmp_path, engine):
        # lineage-exact answers carry a Fraction; the "num/den" string
        # representation must restore it bitwise.
        items = [BatchItem(parse_query("Q :- R(x, y), S(y, z)"), _pdb(),
                           method="lineage-exact")]
        path = tmp_path / "exact.jsonl"
        fresh = engine.evaluate_batch(items, seed=11, journal=path)
        restored = load_journal(path).restore_result(0)
        assert restored.answer.rational == fresh.results[0].answer.rational
        assert restored.answer.value == fresh.results[0].answer.value
        assert restored.answer.exact

    def test_missing_file_loads_empty(self, tmp_path):
        loaded = load_journal(tmp_path / "never-written.jsonl")
        assert loaded.header is None
        assert loaded.items == {}

    def test_error_records_are_not_replayed(self, tmp_path):
        from repro.core.parallel import BatchItemError, BatchItemResult

        path = tmp_path / "errors.jsonl"
        with BatchJournal(path) as journal:
            journal.write_header("fp", 7, 1)
            journal.record_item(
                BatchItemResult(
                    index=0,
                    answer=None,
                    seed=123,
                    elapsed=0.5,
                    error=BatchItemError(
                        exception="EstimationError",
                        message="boom",
                        phase="counting.nfta",
                        elapsed=0.5,
                        retries=2,
                        budget=None,
                    ),
                )
            )
        loaded = load_journal(path)
        assert 0 in loaded.items          # recorded ...
        assert loaded.completed() == {}   # ... but never replayed


class TestTailQuarantine:
    def _journal(self, tmp_path, engine, rs_items):
        path = tmp_path / "batch.jsonl"
        engine.evaluate_batch(rs_items, seed=11, journal=path)
        return path

    def test_torn_tail_keeps_valid_prefix(self, tmp_path, engine, rs_items):
        path = self._journal(tmp_path, engine, rs_items)
        truncate_tail(path, drop_bytes=10)
        with pytest.warns(JournalWarning, match=str(path.name)):
            loaded = load_journal(path)
        assert loaded.quarantined == 1
        assert len(loaded.completed()) == len(rs_items) - 1

    def test_bit_flip_quarantines_line_and_tail(
        self, tmp_path, engine, rs_items
    ):
        path = self._journal(tmp_path, engine, rs_items)
        lines = path.read_text().splitlines()
        # Damage the second line (first item record): it and everything
        # after are untrusted; the header survives.
        offset = len(lines[0]) + 1 + len(lines[1]) // 2
        flip_bit(path, offset=offset, bit=4)
        with pytest.warns(JournalWarning):
            loaded = load_journal(path)
        assert loaded.header is not None
        assert loaded.quarantined == len(rs_items)
        assert len(loaded.completed()) == 0

    def test_trailing_garbage(self, tmp_path, engine, rs_items):
        path = self._journal(tmp_path, engine, rs_items)
        with open(path, "a") as stream:
            stream.write("not json at all\n")
        with pytest.warns(JournalWarning, match="line 6"):
            loaded = load_journal(path)
        assert len(loaded.completed()) == len(rs_items)

    def test_quarantine_never_raises_on_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        loaded = load_journal(path)
        assert loaded.items == {}

    def test_foreign_version_header_is_quarantined(self, tmp_path):
        path = tmp_path / "future.jsonl"
        with BatchJournal(path) as journal:
            journal._append(
                {"type": "header", "version": JOURNAL_VERSION + 1,
                 "fingerprint": "fp", "seed": 7, "items": 1}
            )
        with pytest.warns(JournalWarning):
            loaded = load_journal(path)
        assert loaded.header is None


class TestFingerprint:
    def test_binds_seed_items_and_engine(self, engine, rs_items):
        base = batch_fingerprint(rs_items, 11, engine)
        assert batch_fingerprint(rs_items, 11, engine) == base
        assert batch_fingerprint(rs_items, 12, engine) != base
        assert batch_fingerprint(rs_items[:-1], 11, engine) != base
        other_engine = PQEEngine(seed=11, epsilon=0.5)
        assert batch_fingerprint(rs_items, 11, other_engine) != base

    def test_default_engine_fingerprint_is_pinned(self, rs_items):
        """Journals written by default engines stay resumable: the
        digest names the kernel backend, so dropping it or changing the
        default would orphan every existing journal."""
        assert batch_fingerprint(rs_items, 11, PQEEngine(seed=11)) == (
            "b5c9cb9319eb64dc8aeb70ab17aaca9e12b4e0e3f3da6b84f709f0586cd969f5"
        )

    def test_mismatch_refuses_resume(self, tmp_path, engine, rs_items):
        path = tmp_path / "batch.jsonl"
        engine.evaluate_batch(rs_items, seed=11, journal=path)
        with pytest.raises(JournalError, match="different batch"):
            check_fingerprint(load_journal(path), "0" * 64, path)

    def test_resume_with_different_seed_raises(
        self, tmp_path, engine, rs_items
    ):
        path = tmp_path / "batch.jsonl"
        engine.evaluate_batch(rs_items, seed=11, journal=path)
        with pytest.raises(JournalError):
            engine.resume_batch(rs_items, seed=99, journal=path)

    def test_plain_run_refuses_another_batchs_journal(
        self, tmp_path, engine, rs_items
    ):
        """Without ``resume`` the binding is still checked: appending
        under a foreign header would let that batch's next resume
        replay records it never computed."""
        path = tmp_path / "batch.jsonl"
        engine.evaluate_batch(rs_items, seed=11, journal=path)
        before = path.read_bytes()
        with pytest.raises(JournalError, match="different batch"):
            engine.evaluate_batch(rs_items[:2], seed=11, journal=path)
        assert path.read_bytes() == before
        resumed = engine.resume_batch(rs_items, seed=11, journal=path)
        assert all(result.replayed for result in resumed.results)

    def test_headerless_journal_resumes_fresh(self, tmp_path):
        check_fingerprint(
            load_journal(tmp_path / "absent.jsonl"), "fp", "absent"
        )  # nothing recorded → nothing to contradict


class TestResume:
    def test_resume_requires_journal(self, engine, rs_items):
        with pytest.raises(ReproError, match="requires a journal"):
            engine.evaluate_batch(rs_items, seed=11, resume=True)

    def test_full_journal_replays_everything(
        self, tmp_path, engine, rs_items
    ):
        path = tmp_path / "batch.jsonl"
        fresh = engine.evaluate_batch(rs_items, seed=11, journal=path)
        resumed = engine.resume_batch(rs_items, seed=11, journal=path)
        assert all(r.replayed for r in resumed.results)
        assert resumed.values == fresh.values
        assert [r.seed for r in resumed.results] == [
            r.seed for r in fresh.results
        ]

    def test_partial_journal_computes_remainder(
        self, tmp_path, engine, rs_items
    ):
        path = tmp_path / "batch.jsonl"
        fresh = engine.evaluate_batch(rs_items, seed=11, journal=path)
        # Tear off the last item's record — as a crash would have.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        resumed = engine.resume_batch(rs_items, seed=11, journal=path)
        assert [r.replayed for r in resumed.results] == [
            True, True, True, False
        ]
        assert resumed.values == fresh.values

    def test_resumed_replay_stable_counters_match(
        self, tmp_path, engine, rs_items
    ):
        path = tmp_path / "batch.jsonl"
        engine.evaluate_batch(
            rs_items, seed=11, journal=path, telemetry=True
        )
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")  # keep 2 of 4 items
        resumed = engine.resume_batch(
            rs_items, seed=11, journal=path, telemetry=True
        )
        clean = engine.evaluate_batch(rs_items, seed=11, telemetry=True)
        assert (
            resumed.telemetry.metrics.replay_stable_counters()
            == clean.telemetry.metrics.replay_stable_counters()
        )

    def test_resume_after_torn_tail(self, tmp_path, engine, rs_items):
        path = tmp_path / "batch.jsonl"
        fresh = engine.evaluate_batch(rs_items, seed=11, journal=path)
        truncate_tail(path, drop_bytes=25)
        with pytest.warns(JournalWarning):
            resumed = engine.resume_batch(rs_items, seed=11, journal=path)
        assert resumed.values == fresh.values

    def test_resumed_run_re_records_computed_items(
        self, tmp_path, engine, rs_items
    ):
        path = tmp_path / "batch.jsonl"
        engine.evaluate_batch(rs_items, seed=11, journal=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        engine.resume_batch(rs_items, seed=11, journal=path)
        # The recomputed item was appended, so a second resume replays
        # the whole batch.
        second = engine.resume_batch(rs_items, seed=11, journal=path)
        assert all(r.replayed for r in second.results)
