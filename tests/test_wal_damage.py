"""One damage matrix over the three write-ahead-log schemas.

Every schema (batch, request, delta) × every kind of damage (torn tail,
torn final newline, mid-file bit flip, trailing garbage, a
checksum-valid record missing a field its replay reads) must:

1. load the exact verified prefix with a :class:`JournalWarning`, and
   leave the file untouched (a read-only load repairs nothing);
2. accept one more record through the schema's open path;
3. reload as the prefix plus that record, with the dropped bytes kept
   in ``<path>.quarantine``.

Two end-to-end cases pin the defect this guards against — records
appended behind a damaged tail used to be quarantined by the next load.
"""

import sys
import threading
import warnings
from pathlib import Path

import pytest

from repro.core.estimator import PQEAnswer, PQEEngine
from repro.core.journal import (
    BatchJournal,
    JournalWarning,
    RequestJournal,
    load_journal,
    load_request_journal,
)
from repro.core.parallel import BatchItem, BatchItemResult
from repro.db.delta import (
    Delta,
    DeltaJournal,
    DeltaOp,
    VersionedDatabase,
    apply_delta,
    load_delta_journal,
)
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.testing.faults import flip_bit, truncate_tail

BINDING = "b" * 64
ANSWER = PQEAnswer(value=0.25, method="fpras", exact=False)
PAYLOAD = {"value": 0.25, "method": "fpras", "exact": False,
           "rational": None, "degradations": [], "retries": 0}
OP = {"op": "insert", "relation": "R", "constants": ["a", "z"],
      "probability": "1/2"}


def _append_item(log, n):
    log.record_item(
        BatchItemResult(index=n, answer=ANSWER, seed=n, elapsed=0.5)
    )


def _append_request(log, n):
    log.record_request(f"key-{n}", ANSWER, seed=n, elapsed=0.5)


def _append_delta(log, n):
    fact = Fact("R", ("a", f"b{n}"))
    log.record_delta(
        Delta([DeltaOp.insert(fact, "1/2")]),
        from_version=n, to_version=n + 1, token_after=f"{n + 1}" * 64,
    )


#: schema -> (log class, loader, append the n-th body record, extra
#: header fields)
SCHEMAS = {
    "batch": (BatchJournal, load_journal, _append_item,
              {"seed": 7, "items": 4}),
    "request": (RequestJournal, load_request_journal, _append_request, {}),
    "delta": (DeltaJournal, load_delta_journal, _append_delta, {}),
}

#: Checksum-valid records, each missing a field the replay reads.
MISSING_FIELD = {
    "batch-no-ok": ("batch", {
        "type": "item", "index": 3, "seed": 3, "elapsed": 0.5,
        "retries": 0, "counters": None,
        "error": {"exception": "EstimationError", "message": "boom"},
    }),
    "batch-answer-no-method": ("batch", {
        "type": "item", "index": 3, "ok": True, "seed": 3,
        "elapsed": 0.5, "retries": 0, "counters": None,
        "answer": {k: v for k, v in PAYLOAD.items() if k != "method"},
    }),
    "request-empty-answer": ("request", {
        "type": "request", "key": "key-3", "seed": 3, "elapsed": 0.5,
        "answer": {},
    }),
    "delta-no-digest": ("delta", {
        "type": "delta", "from_version": 3, "to_version": 4,
        "token_after": "4" * 64, "ops": [OP],
    }),
    "delta-malformed-op": ("delta", {
        "type": "delta", "from_version": 3, "to_version": 4,
        "digest": "d" * 32, "token_after": "4" * 64,
        "ops": [{k: v for k, v in OP.items() if k != "constants"}],
    }),
}


def _torn_tail(path, starts, log_cls):
    truncate_tail(path, 25)
    return 2


def _torn_newline(path, starts, log_cls):
    truncate_tail(path, 1)
    return 3


def _bit_flip(path, starts, log_cls):
    flip_bit(path, offset=(starts[1] + starts[2]) // 2, bit=4)
    return 1


def _trailing_garbage(path, starts, log_cls):
    with open(path, "ab") as stream:
        stream.write(b"not json at all\n")
    return 3


DAMAGE = {
    "torn-tail": _torn_tail,
    "torn-newline": _torn_newline,
    "bit-flip": _bit_flip,
    "trailing-garbage": _trailing_garbage,
}

def _missing_field(record):
    def damage(path, starts, log_cls):
        with log_cls(path) as log:
            log._append(record)
        return 3

    return damage


CASES = [
    pytest.param(schema, DAMAGE[kind], id=f"{schema}-{kind}")
    for schema in SCHEMAS
    for kind in DAMAGE
] + [
    pytest.param(schema, _missing_field(record), id=f"missing-{name}")
    for name, (schema, record) in MISSING_FIELD.items()
]


@pytest.mark.parametrize("schema, damage", CASES)
def test_damage_keeps_prefix_and_next_append_lands_after_it(
    schema, damage, tmp_path
):
    log_cls, load, append, header = SCHEMAS[schema]
    path = tmp_path / f"{schema}.wal"
    with log_cls(path) as log:
        log.bind(BINDING, **header)
        for n in range(3):
            append(log, n)
    clean = load(path)
    blob = path.read_bytes()
    # Byte offset at which each body record starts (plus the end).
    starts, offset = [], blob.index(b"\n") + 1
    for line in blob[offset:].split(b"\n")[:3]:
        starts.append(offset)
        offset += len(line) + 1
    starts.append(offset)

    kept = damage(path, starts, log_cls)
    damaged = path.read_bytes()
    dropped = damaged[starts[kept]:]

    with pytest.warns(JournalWarning):
        loaded = load(path)
    assert loaded.header == clean.header
    assert loaded.records == clean.records[:kept]
    assert path.read_bytes() == damaged

    with log_cls(path) as log:
        with pytest.warns(JournalWarning):
            reopened = log.bind(BINDING, **header)
        append(log, len(reopened.records))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        final = load(path)
    assert final.quarantined == 0
    assert final.header == clean.header
    assert final.records[:-1] == clean.records[:kept]
    assert len(final.records) == kept + 1
    quarantine = Path(f"{path}.quarantine")
    if dropped:
        assert quarantine.read_bytes() == dropped
    else:
        assert not quarantine.exists()


def test_concurrent_first_appends_cut_the_tail_once(tmp_path):
    path = tmp_path / "requests.wal"
    with RequestJournal(path) as log:
        log.bind(BINDING)
        _append_request(log, 0)
    with open(path, "ab") as stream:
        stream.write(b"torn{")
    log = RequestJournal(path)
    with pytest.warns(JournalWarning):
        log.bind(BINDING)

    def worker(first):
        for n in range(first, first + 25):
            _append_request(log, n)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(100 * t + 1,))
            for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
        log.close()
    assert not any(thread.is_alive() for thread in threads)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        final = load_request_journal(path)
    assert len(final.records) == 1 + 8 * 25
    assert Path(f"{path}.quarantine").read_bytes() == b"torn{"


# ---------------------------------------------------------------------
# End-to-end repros
# ---------------------------------------------------------------------


R1AB = Fact("R1", ("a", "b"))


def _base() -> ProbabilisticDatabase:
    return ProbabilisticDatabase(
        {R1AB: "1/2", Fact("R2", ("b", "c")): "2/3"}
    )


def test_delta_after_torn_newline_survives_restart(tmp_path):
    wal = tmp_path / "deltas.wal"
    first = Delta([DeltaOp.reweight(R1AB, "1/5")])
    second = Delta([DeltaOp.reweight(R1AB, "1/6")])
    with VersionedDatabase(_base(), journal=wal) as vdb:
        vdb.apply(first)
    # Keep header + delta 1 and tear off delta 1's newline.
    header, delta1 = wal.read_bytes().split(b"\n")[:2]
    wal.write_bytes(header + b"\n" + delta1)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vdb = VersionedDatabase(_base(), journal=wal)
    assert vdb.version == 1
    vdb.apply(second)
    vdb.close()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        again = VersionedDatabase(_base(), journal=wal)
    assert again.version == 2
    assert not caught
    expected = apply_delta(apply_delta(_base(), first), second)
    assert again.cache_token == expected.cache_token
    again.close()


def test_resume_after_torn_tail_is_replayed_by_the_next_resume(
    tmp_path, rs_query
):
    items = []
    for shift in range(3):
        items.append(BatchItem(
            rs_query,
            ProbabilisticDatabase({
                Fact("R", (f"a{shift}", "b")): "1/2",
                Fact("S", ("b", "c")): "2/3",
            }),
            method="fpras",
        ))
    engine = PQEEngine(seed=11)
    path = tmp_path / "batch.wal"
    fresh = engine.evaluate_batch(items, seed=11, journal=path)
    truncate_tail(path, 25)
    with pytest.warns(JournalWarning):
        first = engine.resume_batch(items, seed=11, journal=path)
    assert [r.replayed for r in first.results] == [True, True, False]
    second = engine.resume_batch(items, seed=11, journal=path)
    assert [r.replayed for r in second.results] == [True, True, True]
    assert second.values == fresh.values
