"""Checksummed write-ahead logs: one primitive, three record schemas.

:class:`ChecksummedLog` is the only code that writes or reads a
write-ahead log; :class:`BatchJournal` (settled batch items, replayed
by :meth:`PQEEngine.resume_batch
<repro.core.estimator.PQEEngine.resume_batch>`), :class:`RequestJournal`
(the serve daemon's responses) and :class:`~repro.db.delta.DeltaJournal`
(a version chain's deltas) are thin record schemas over it.

Batch record format (one JSON object per line)::

    {"type": "header", "version": 1, "fingerprint": "<sha256>",
     "seed": 7, "items": 16, "checksum": "<sha256>"}
    {"type": "item", "index": 3, "ok": true, "seed": 1234,
     "elapsed": 0.0021, "retries": 0,
     "answer": {"value": 0.5, "method": "fpras", "exact": false,
                "rational": null, "degradations": []},
     "counters": {"karp_luby.samples": 96, ...} | null,
     "checksum": "<sha256>"}
    {"type": "item", "index": 5, "ok": false, ...,
     "error": {"exception": "EstimationError", "message": "...",
               "phase": "counting.nfta", "retries": 1}, ...}

Every record carries a ``checksum``: the SHA-256 hex digest of its own
canonical JSON serialisation (sorted keys, compact separators) with the
``checksum`` field removed.  Loading keeps the longest prefix of
checksum-verified records that the schema's validator accepts and
**quarantines the tail** — a torn final line from a crash mid-``write``,
a bit-flipped byte, trailing garbage or a record missing a field the
replay reads produces a :class:`~repro.errors.JournalWarning` naming the
file and line, never an exception and never a wrong probability
(quarantined items are simply recomputed).  The first append after such
a load moves the dropped bytes to ``<path>.quarantine`` and truncates
the log to its verified prefix, so new records never land behind the
damage.

Exactness across the round trip: probabilities are stored as JSON
floats (Python's ``repr``-based float serialisation is shortest-round-
trip exact) plus the exact ``Fraction`` as a ``"num/den"`` string when
present, so a replayed :class:`~repro.core.estimator.PQEAnswer` is
bitwise-identical to the recorded one.  ``counters`` holds the item's
*replay-stable* deterministic counters (see
:data:`repro.obs.metrics.REPLAY_SENSITIVE_PREFIXES`), so a resumed
batch's merged deterministic telemetry matches an uninterrupted run's.

A header binds each log to its owner: a batch fingerprint (SHA-256 over
the batch seed, the engine's routing-relevant configuration, and every
item's ``(task, method, query token, database token)``), the serving
engine's fingerprint, or the base database's token.  Replaying a log
bound to a different owner raises :class:`~repro.errors.JournalError` —
replaying answers computed for different items or a different ε would
be silent corruption.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
import warnings
from fractions import Fraction
from pathlib import Path

from repro.errors import JournalError, JournalWarning
from repro.obs import metric_inc

__all__ = [
    "JOURNAL_VERSION",
    "BatchJournal",
    "ChecksummedLog",
    "JournalWarning",
    "RequestJournal",
    "batch_fingerprint",
    "check_fingerprint",
    "load_journal",
    "load_request_journal",
]

JOURNAL_VERSION = 1


def _checksummed(record: dict) -> dict:
    """Return ``record`` with its ``checksum`` field filled in."""
    body = {k: v for k, v in record.items() if k != "checksum"}
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    body["checksum"] = digest
    return body


class LoadedLog:
    """The verified prefix of a log: its first ``header`` (``None`` when
    absent), the other accepted ``records`` in order, and the count of
    ``quarantined`` lines.  Schemas subclass it to index the records."""

    def __init__(self, header, records, quarantined):
        self.header = header
        self.records = records
        self.quarantined = quarantined


class ChecksummedLog:
    """An append-only, fsync'd, checksummed JSONL write-ahead log.

    Appends are serialised under a lock (worker threads record their
    own completions) and each record is flushed and ``fsync``'d before
    the append returns — after a crash the log holds every record whose
    append returned, missing at most the one in-flight line (which the
    loader then quarantines).

    A schema subclass sets the class attributes below and overrides
    :meth:`validate`, the per-record check that decides where the
    verified prefix ends.
    """

    #: How warnings and errors name the file.
    name = "journal"
    #: The header record's ``type`` and ``version``.
    header_type = "header"
    version = JOURNAL_VERSION
    #: The header field binding the log to its owner, and how a
    #: mismatch is described.
    binding = "fingerprint"
    foreign = "for a different owner"
    phase = "journal"
    #: The :class:`LoadedLog` subclass :meth:`load` returns.
    loaded_type = LoadedLog

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._stream: io.TextIOWrapper | None = None
        #: End of the verified prefix when the last load found damage
        #: after it; the next append cuts the log back to it.
        self._verified_end: int | None = None

    # -- the schema hook -------------------------------------------------

    def validate(self, record: dict, accepted: list[dict]) -> bool:
        """Whether a checksum-verified, non-header ``record`` may extend
        the verified prefix, given the ``accepted`` records before it.
        Must reject every record whose replay would fail."""
        raise NotImplementedError

    # -- writing --------------------------------------------------------

    def _append(self, record: dict) -> None:
        line = json.dumps(
            _checksummed(record), sort_keys=True, separators=(",", ":")
        )
        with self._lock:
            if self._verified_end is not None:
                self._restore_prefix(self._verified_end)
                self._verified_end = None
            if self._stream is None:
                self._stream = open(self.path, "a", encoding="utf-8")
            self._stream.write(line + "\n")
            self._stream.flush()
            os.fsync(self._stream.fileno())
        metric_inc("journal.appends")

    def _restore_prefix(self, end: int) -> None:
        """Cut the log back to the verified prefix ``[0, end)`` before
        the first append after a damaged load: the dropped tail moves to
        ``<path>.quarantine`` (made durable before the truncation), and
        a final record that lost its newline gets it back."""
        with open(self.path, "r+b") as log:
            log.seek(end)
            dropped = log.read()
            if dropped:
                with open(f"{self.path}.quarantine", "ab") as sink:
                    sink.write(dropped)
                    sink.flush()
                    os.fsync(sink.fileno())
                log.truncate(end)
            if end:
                log.seek(end - 1)
                if log.read(1) != b"\n":
                    log.write(b"\n")
            log.flush()
            os.fsync(log.fileno())

    def write_header(self, expected: str, **fields) -> None:
        """Append the header binding the log to ``expected``."""
        self._append(
            {
                "type": self.header_type,
                "version": self.version,
                self.binding: expected,
                **fields,
            }
        )

    def close(self) -> None:
        with self._lock:
            if self._stream is not None:
                self._stream.close()
                self._stream = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- reading --------------------------------------------------------

    def _accepts(self, record, accepted: list[dict]) -> bool:
        if not isinstance(record, dict) or (
            _checksummed(record)["checksum"] != record.get("checksum")
        ):
            return False
        if record.get("type") == self.header_type:
            return record.get("version") == self.version and isinstance(
                record.get(self.binding), str
            )
        return self.validate(record, accepted)

    def load(self) -> LoadedLog:
        """Read the log, keeping the longest valid prefix.

        A line that is not JSON, fails its checksum, or is rejected by
        :meth:`validate` quarantines itself **and everything after it**
        (a torn tail means later bytes cannot be trusted), with a
        :class:`~repro.errors.JournalWarning` naming the file and line
        number.  A final record that verifies but lost its newline is
        kept, also with a warning.  Blank lines are skipped; a missing
        file loads empty.  The first header record wins.

        The file itself is left as it was: only the first append after
        a damaged load cuts it back to the verified prefix, so a
        read-only recovery changes nothing on disk.
        """
        header = None
        records: list[dict] = []
        quarantined = 0
        self._verified_end = None
        if not self.path.exists():
            return self.loaded_type(header, records, quarantined)
        data = self.path.read_bytes()
        lines = data.split(b"\n")
        if not lines[-1]:
            lines.pop()
        end = 0
        for number, line in enumerate(lines, start=1):
            if line.strip():
                try:
                    record = json.loads(line.decode("utf-8"))
                except ValueError:
                    record = None
                if not self._accepts(record, records):
                    quarantined = len(lines) - number + 1
                    warnings.warn(
                        f"{self.name} {self.path}: quarantined line "
                        f"{number} and the {quarantined - 1} line(s) after "
                        f"it (torn or corrupt tail); the records before "
                        f"it are kept",
                        JournalWarning,
                        stacklevel=3,
                    )
                    metric_inc("journal.quarantines")
                    break
                if record.get("type") != self.header_type:
                    records.append(record)
                elif header is None:
                    header = record
            end += len(line) + 1
        if end > len(data):
            warnings.warn(
                f"{self.name} {self.path}: line {len(lines)} lost its "
                f"newline (torn write); the record verifies and is kept",
                JournalWarning,
                stacklevel=3,
            )
        if end != len(data):
            self._verified_end = min(end, len(data))
        return self.loaded_type(header, records, quarantined)

    def check_binding(self, header: dict | None, expected: str) -> None:
        """Refuse to replay a log whose header binds it to another
        owner (a headerless log has nothing to contradict)."""
        if header is None:
            return
        recorded = header.get(self.binding)
        if recorded != expected:
            raise JournalError(
                f"{self.name} {self.path} was recorded {self.foreign} "
                f"({self.binding} {recorded!r:.20} != {expected!r:.20}); "
                f"refusing to replay its records",
                phase=self.phase,
            )

    def bind(self, expected: str, **header):
        """Open the log for its owner: load the verified prefix, check
        the header binding, and write the header — ``expected`` plus
        the extra ``header`` fields — when the log has none.  Returns
        the loaded prefix."""
        loaded = self.load()
        self.check_binding(loaded.header, expected)
        if loaded.header is None:
            self.write_header(expected, **header)
        return loaded


# ----------------------------------------------------------------------
# Answer payloads shared by the batch and request schemas
# ----------------------------------------------------------------------


def _answer_payload(answer) -> dict:
    rational = answer.rational
    return {
        "value": answer.value,
        "method": answer.method,
        "exact": answer.exact,
        "rational": str(rational) if rational is not None else None,
        "degradations": list(answer.degradations),
        "retries": answer.retries,
    }


def _valid_answer(payload) -> bool:
    """Whether :func:`_restore_answer` can rebuild ``payload``."""
    if not (
        isinstance(payload, dict)
        and isinstance(payload.get("value"), (int, float))
        and isinstance(payload.get("method"), str)
        and isinstance(payload.get("exact"), bool)
        and isinstance(payload.get("degradations", []), list)
        and isinstance(payload.get("retries", 0), int)
    ):
        return False
    rational = payload.get("rational")
    if rational is None:
        return True
    try:
        Fraction(rational)
    except (TypeError, ValueError, ZeroDivisionError):
        return False
    return True


def _restore_answer(payload: dict):
    from repro.core.estimator import PQEAnswer

    rational = payload.get("rational")
    return PQEAnswer(
        value=payload["value"],
        method=payload["method"],
        exact=payload["exact"],
        rational=Fraction(rational) if rational is not None else None,
        degradations=tuple(payload.get("degradations", ())),
        retries=payload.get("retries", 0),
    )


# ----------------------------------------------------------------------
# The batch schema
# ----------------------------------------------------------------------


def batch_fingerprint(items, seed, engine) -> str:
    """The digest binding a journal to one (items, seed, engine) batch.

    Covers everything that changes answers: per-item task/method and
    the canonical ``cache_token`` digests of query and database, the
    batch seed, and the engine knobs that steer routing and sampling.
    """
    digest = hashlib.sha256()
    digest.update(
        f"repro-journal:{JOURNAL_VERSION}:{seed}:"
        f"{engine.epsilon!r}:{engine.repetitions}:"
        f"{engine.lineage_budget}:{engine.exact_set_cap}:"
        f"{engine.kernel_backend}".encode()
    )
    for item in items:
        digest.update(
            f"|{item.task}:{item.method}:{item.query.cache_token}:"
            f"{item.database.cache_token}".encode()
        )
    return digest.hexdigest()


def _error_payload(error) -> dict:
    return {
        "exception": error.exception,
        "message": error.message,
        "phase": error.phase,
        "elapsed": error.elapsed,
        "retries": error.retries,
        "degradations": list(error.degradations),
    }


class LoadedJournal(LoadedLog):
    """The verified prefix of a batch journal.

    ``items`` maps item index to its **latest** verified item record (a
    resumed run re-records items it recomputes, and the newer record
    wins).
    """

    def __init__(self, header, records, quarantined):
        super().__init__(header, records, quarantined)
        self.items = {record["index"]: record for record in records}

    def completed(self) -> dict[int, dict]:
        """Index → record for items that completed successfully.  Only
        these are replayed: error records (a crashed worker, an
        exhausted budget) are recomputed on resume — that is the point
        of resuming."""
        return {
            index: record
            for index, record in self.items.items()
            if record["ok"]
        }

    def restore_result(self, index: int):
        """Rebuild the :class:`BatchItemResult` for a completed item."""
        from repro.core.parallel import BatchItemResult

        record = self.items[index]
        return BatchItemResult(
            index=index,
            answer=_restore_answer(record["answer"]),
            seed=record["seed"],
            elapsed=record["elapsed"],
            retries=record["retries"],
            replayed=True,
        )


class BatchJournal(ChecksummedLog):
    """One batch's write-ahead journal (see the module docstring)."""

    foreign = "for a different batch"
    phase = "journal.resume"
    loaded_type = LoadedJournal

    def validate(self, record: dict, accepted: list[dict]) -> bool:
        if record.get("type") != "item":
            return False
        ok = record.get("ok")
        return (
            isinstance(record.get("index"), int)
            and isinstance(ok, bool)
            and isinstance(record.get("seed", ""), (int, type(None)))
            and isinstance(record.get("elapsed"), (int, float))
            and isinstance(record.get("retries"), int)
            and isinstance(record.get("counters"), (dict, type(None)))
            and (_valid_answer(record.get("answer")) if ok
                 else isinstance(record.get("error"), dict))
        )

    def write_header(self, fingerprint: str, seed, items: int) -> None:
        super().write_header(fingerprint, seed=seed, items=items)

    def record_item(self, result, counters: dict | None = None) -> None:
        """Append one settled :class:`BatchItemResult` (success or
        structured error)."""
        record = {
            "type": "item",
            "index": result.index,
            "ok": result.ok,
            "seed": result.seed,
            "elapsed": result.elapsed,
            "retries": result.retries,
            "counters": counters,
        }
        if result.ok:
            record["answer"] = _answer_payload(result.answer)
        else:
            record["error"] = _error_payload(result.error)
        self._append(record)


def load_journal(path: str | Path) -> LoadedJournal:
    """Read a batch journal's verified prefix (see
    :meth:`ChecksummedLog.load`)."""
    return BatchJournal(path).load()


def check_fingerprint(loaded: LoadedJournal, fingerprint: str, path) -> None:
    """Refuse to replay a journal recorded for a different batch."""
    BatchJournal(path).check_binding(loaded.header, fingerprint)


# ----------------------------------------------------------------------
# The serve request schema
# ----------------------------------------------------------------------


class LoadedRequestJournal(LoadedLog):
    """The verified prefix of a serve request journal; ``requests``
    maps each key to its latest record."""

    def __init__(self, header, records, quarantined):
        super().__init__(header, records, quarantined)
        self.requests = {record["key"]: record for record in records}

    def __len__(self) -> int:
        return len(self.requests)

    def restore_answer(self, key: str):
        """Rebuild the recorded :class:`PQEAnswer` for ``key``."""
        return _restore_answer(self.requests[key]["answer"])


class RequestJournal(ChecksummedLog):
    """The serve daemon's write-ahead request log.

    Unlike a :class:`BatchJournal` — bound to one finite batch with
    integer indexes — a request journal is open-ended: records are
    keyed by the request's content digest (query/database
    ``cache_token``, task, method, seed), appended as requests settle,
    and replayed when the daemon restarts.  Only **full-fidelity**
    answers are recorded (rung 0, no degradations): a load-shed answer
    is correct for its *widened* ε but must not be replayed to a future
    unloaded request.  The header fingerprint binds the journal to the
    serving engine's configuration, the same way a batch fingerprint
    binds to a batch.
    """

    name = "request journal"
    header_type = "serve-header"
    foreign = "under a different engine configuration"
    phase = "serve.journal"
    loaded_type = LoadedRequestJournal

    def validate(self, record: dict, accepted: list[dict]) -> bool:
        return (
            record.get("type") == "request"
            and isinstance(record.get("key"), str)
            and _valid_answer(record.get("answer"))
            and isinstance(record.get("seed", ""), (int, type(None)))
            and isinstance(record.get("deps"), (dict, type(None)))
        )

    def record_request(
        self,
        key: str,
        answer,
        *,
        seed: int | None,
        elapsed: float,
        deps: dict | None = None,
    ) -> None:
        """Append one settled full-fidelity response.

        ``deps`` records the answer's data dependencies — the relations
        the query read and the database's projection token over them —
        so that after a delta the replay path can re-check eligibility
        per record instead of discarding the whole journal (records
        whose relations were untouched replay bitwise on the new
        version; see ``docs/incremental.md``).
        """
        record = {
            "type": "request",
            "key": key,
            "seed": seed,
            "elapsed": elapsed,
            "answer": _answer_payload(answer),
        }
        if deps is not None:
            record["deps"] = deps
        self._append(record)


def load_request_journal(path: str | Path) -> LoadedRequestJournal:
    """Read a serve request journal's verified prefix; the latest
    verified record for a key wins."""
    return RequestJournal(path).load()
