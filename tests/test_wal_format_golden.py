"""Byte-level pin of the three write-ahead-log formats.

Each golden file under ``tests/golden/wal_format/`` was written by the
journal writers from the fixed inputs below.  Rebuilding it with the
current writers must reproduce it byte for byte: any difference means
recovery could no longer read logs written by an earlier build.

Refresh (only for a deliberate, versioned format change) with
``pytest tests/test_wal_format_golden.py --update-golden``.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from repro.core.estimator import PQEAnswer
from repro.core.journal import (
    BatchJournal,
    RequestJournal,
    load_journal,
    load_request_journal,
)
from repro.core.parallel import BatchItemError, BatchItemResult
from repro.db.delta import Delta, DeltaJournal, DeltaOp, load_delta_journal
from repro.db.fact import Fact

GOLDEN = Path(__file__).parent / "golden" / "wal_format"

ANSWER = PQEAnswer(
    value=0.4375,
    method="fpras",
    exact=False,
    degradations=("lineage-exact: BudgetExceededError",),
    retries=1,
)
EXACT = PQEAnswer(
    value=0.5, method="lineage-exact", exact=True, rational=Fraction(1, 2)
)


def write_batch(path: Path) -> None:
    with BatchJournal(path) as journal:
        journal.write_header("f" * 64, 7, 3)
        journal.record_item(
            BatchItemResult(index=0, answer=ANSWER, seed=1234,
                            elapsed=0.125, retries=1),
            {"karp_luby.samples": 96},
        )
        journal.record_item(
            BatchItemResult(index=1, answer=EXACT, seed=99, elapsed=0.5)
        )
        journal.record_item(
            BatchItemResult(
                index=2,
                answer=None,
                seed=5,
                elapsed=0.25,
                error=BatchItemError(
                    exception="EstimationError",
                    message="boom",
                    phase="counting.nfta",
                    elapsed=0.25,
                    retries=2,
                    budget=None,
                    degradations=("fpras: EstimationError",),
                ),
            )
        )


def write_request(path: Path) -> None:
    with RequestJournal(path) as journal:
        journal.write_header("e" * 64)
        journal.record_request(
            "k" * 64, ANSWER, seed=42, elapsed=0.0625,
            deps={"relations": ["R", "S"], "token": "t" * 64},
        )
        journal.record_request("j" * 64, EXACT, seed=None, elapsed=0.5)


def write_delta(path: Path) -> None:
    first = Delta([
        DeltaOp.reweight(Fact("R", ("a", "b")), "1/5"),
        DeltaOp.insert(Fact("S", ("b", "c")), "2/7"),
    ])
    second = Delta([DeltaOp.delete(Fact("R", ("a", "b")))])
    with DeltaJournal(path) as journal:
        journal.write_header("b" * 64)
        journal.record_delta(
            first, from_version=0, to_version=1, token_after="1" * 64
        )
        journal.record_applied(1, {"cache": 3, "registry": 1}, 7)
        journal.record_delta(
            second, from_version=1, to_version=2, token_after="2" * 64
        )


WRITERS = {"batch": write_batch, "request": write_request,
           "delta": write_delta}


@pytest.mark.parametrize("schema", sorted(WRITERS))
def test_writers_reproduce_the_pinned_bytes(schema, tmp_path, update_golden):
    golden = GOLDEN / f"{schema}.jsonl"
    written = tmp_path / golden.name
    WRITERS[schema](written)
    if update_golden:
        GOLDEN.mkdir(parents=True, exist_ok=True)
        golden.write_bytes(written.read_bytes())
    assert written.read_bytes() == golden.read_bytes()


def test_loaders_read_the_pinned_files():
    batch = load_journal(GOLDEN / "batch.jsonl")
    assert (batch.quarantined, sorted(batch.items)) == (0, [0, 1, 2])
    assert sorted(batch.completed()) == [0, 1]
    assert batch.restore_result(0).answer == ANSWER
    assert batch.restore_result(1).answer == EXACT

    requests = load_request_journal(GOLDEN / "request.jsonl")
    assert (requests.quarantined, len(requests)) == (0, 2)
    assert requests.restore_answer("k" * 64) == ANSWER
    assert "deps" not in requests.requests["j" * 64]

    deltas = load_delta_journal(GOLDEN / "delta.jsonl")
    assert (deltas.quarantined, len(deltas)) == (0, 2)
    assert deltas.header["base_token"] == "b" * 64
    assert sorted(deltas.applied) == [1]
