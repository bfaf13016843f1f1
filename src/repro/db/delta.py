"""Versioned probabilistic databases: typed deltas, WAL, invalidation.

The FPRAS machinery of the paper assumes a fixed instance ``H = (D,
π)``; a service does not get that luxury.  This module turns
:class:`~repro.db.probabilistic.ProbabilisticDatabase` into the head of
an immutable version chain:

* :class:`DeltaOp` — one typed mutation (``insert`` / ``delete`` /
  ``reweight`` of a single fact);
* :class:`Delta` — an ordered, canonically-digested batch of ops
  applied transactionally (all or nothing);
* :func:`apply_delta` — pure function from ``(version n, delta)`` to
  version ``n+1``, maintaining the homomorphic token accumulators of
  :mod:`repro.db.tokens` incrementally: the new version's
  ``cache_token`` is bitwise-identical to a from-scratch rebuild
  (property-tested over random delta streams) without re-hashing
  untouched facts, and reweight-only deltas share the parent's
  :class:`~repro.db.instance.DatabaseInstance` object outright;
* :class:`DeltaJournal` / :func:`load_delta_journal` — the record
  schema of applied deltas over the write-ahead log primitive
  :class:`~repro.core.journal.ChecksummedLog`;
* :class:`VersionedDatabase` — the mutable head: journals, invalidates,
  and publishes under a lock, with ``fault_point("db.delta")`` hit at
  every step so the chaos tier can crash or corrupt each one.

Consistency model
-----------------
The WAL append is the commit point.  A crash before it recovers to the
old version (nothing durable changed); a crash anywhere after it
recovers to the new version (recovery replays the journal's valid
prefix over the base).  Either way the recovered state is *one* of the
two versions, never a blend — and because every cache entry is keyed
by content-addressed (projection) tokens, a half-finished invalidation
can only cause misses, never a stale-wrong answer.  Invalidation is
reclamation and accounting; correctness never depends on it.

Counters: ``delta.applied``, ``delta.ops``,
``delta.invalidated.{cache,diskcache,kernels,journal,registry}``,
``delta.survived`` (classified scheduling-sensitive — invalidation
totals depend on what earlier traffic cached).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.core.journal import ChecksummedLog, LoadedLog
from repro.db.fact import Fact
from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.db.tokens import (
    ACCUMULATOR_MODULUS,
    EMPTY_ACCUMULATOR,
    fact_line,
    line_summand,
    weighted_fact_line,
)
from repro.errors import DeltaError, JournalError
from repro.obs import metric_inc

__all__ = [
    "DELTA_JOURNAL_VERSION",
    "Delta",
    "DeltaJournal",
    "DeltaOp",
    "DatabaseVersion",
    "VersionedDatabase",
    "apply_delta",
    "load_delta_journal",
]

DELTA_JOURNAL_VERSION = 1

_OPS = ("insert", "delete", "reweight")


def _as_probability(value) -> Fraction:
    from repro.db.probabilistic import _as_probability as coerce

    return coerce(value)


@dataclass(frozen=True)
class DeltaOp:
    """One typed mutation of a single fact.

    ``insert`` and ``reweight`` carry the (new) probability; ``delete``
    must not.  Probabilities accept anything
    :class:`~fractions.Fraction` does and are validated to ``[0, 1]``
    at construction, so a malformed op can never reach the journal.
    """

    op: str
    fact: Fact
    probability: Fraction | None = None

    def __post_init__(self):
        if self.op not in _OPS:
            raise DeltaError(
                f"unknown delta op {self.op!r}; choose from {_OPS}"
            )
        if self.op == "delete":
            if self.probability is not None:
                raise DeltaError("delete ops must not carry a probability")
        else:
            if self.probability is None:
                raise DeltaError(f"{self.op} ops require a probability")
            object.__setattr__(
                self, "probability", _as_probability(self.probability)
            )

    @classmethod
    def insert(cls, fact: Fact, probability) -> "DeltaOp":
        return cls("insert", fact, probability)

    @classmethod
    def delete(cls, fact: Fact) -> "DeltaOp":
        return cls("delete", fact)

    @classmethod
    def reweight(cls, fact: Fact, probability) -> "DeltaOp":
        return cls("reweight", fact, probability)

    def canonical_line(self) -> str:
        """The op's contribution to the delta digest (order-sensitive
        at the :class:`Delta` level)."""
        if self.op == "delete":
            return f"{self.op}:{fact_line(self.fact)}"
        return f"{self.op}:{weighted_fact_line(self.fact, self.probability)}"

    def to_record(self) -> dict:
        """JSON-safe encoding for the delta journal."""
        record = {
            "op": self.op,
            "relation": self.fact.relation,
            "constants": list(self.fact.constants),
        }
        if self.probability is not None:
            record["probability"] = (
                f"{self.probability.numerator}/"
                f"{self.probability.denominator}"
            )
        return record

    @classmethod
    def from_record(cls, record: dict) -> "DeltaOp":
        try:
            fact = Fact(record["relation"], tuple(record["constants"]))
            probability = record.get("probability")
            return cls(
                record["op"],
                fact,
                Fraction(probability) if probability is not None else None,
            )
        except DeltaError:
            raise
        except Exception as failure:
            raise DeltaError(
                f"malformed delta op record {record!r}: {failure}"
            ) from failure


class Delta:
    """An ordered batch of ops applied as one transaction.

    Order matters — ``insert R(a); reweight R(a)`` is legal, the
    reverse is not — so the digest covers the sequence, not the set.
    """

    __slots__ = ("_ops", "__dict__")

    def __init__(self, ops: Iterable[DeltaOp]):
        self._ops = tuple(ops)
        if not self._ops:
            raise DeltaError("a delta must contain at least one op")

    @property
    def ops(self) -> tuple[DeltaOp, ...]:
        return self._ops

    @cached_property
    def digest(self) -> str:
        canonical = "\x1f".join(op.canonical_line() for op in self._ops)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]

    @cached_property
    def touched_relations(self) -> frozenset[str]:
        return frozenset(op.fact.relation for op in self._ops)

    @cached_property
    def structural_relations(self) -> frozenset[str]:
        """Relations whose fact *set* changes (insert/delete ops).

        A relation touched only by reweights keeps its fact set —
        artifacts keyed on unweighted projection tokens (UR reductions,
        exact UR counts, their kernel memos) stay valid, and
        invalidation spares them
        (:meth:`repro.core.cache.ReductionCache.invalidate_relations`).
        """
        return frozenset(
            op.fact.relation for op in self._ops if op.op != "reweight"
        )

    @cached_property
    def touched_facts(self) -> frozenset[Fact]:
        return frozenset(op.fact for op in self._ops)

    def to_records(self) -> list[dict]:
        return [op.to_record() for op in self._ops]

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "Delta":
        return cls(DeltaOp.from_record(record) for record in records)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[DeltaOp]:
        return iter(self._ops)

    def __repr__(self) -> str:
        kinds = ", ".join(
            f"{kind}={sum(1 for op in self._ops if op.op == kind)}"
            for kind in _OPS
            if any(op.op == kind for op in self._ops)
        )
        return f"Delta(ops={len(self._ops)}, {kinds})"


def _shifted(
    accumulators: dict[str, tuple[int, int]],
    relation: str,
    summand: int,
    count_change: int,
) -> None:
    """Add ``summand`` (mod 2^256) and ``count_change`` to a relation."""
    acc, count = accumulators.get(relation, EMPTY_ACCUMULATOR)
    accumulators[relation] = (
        (acc + summand) % ACCUMULATOR_MODULUS,
        count + count_change,
    )


def apply_delta(
    base: ProbabilisticDatabase, delta: Delta
) -> ProbabilisticDatabase:
    """The new immutable version ``delta`` produces from ``base``.

    Validates every op against the running state (all-or-nothing: the
    first bad op aborts with :class:`~repro.errors.DeltaError` before
    anything is built), then assembles the child with incrementally
    maintained token accumulators.  The resulting ``cache_token`` and
    ``projection_token`` values are bitwise-identical to a from-scratch
    :class:`ProbabilisticDatabase` over the same facts — the Hypothesis
    property in ``tests/test_delta.py`` holds the two constructions
    equal over random delta streams.

    A reweight-only delta reuses the parent's ``DatabaseInstance``
    object (the fact set is untouched), so instance-keyed artifacts —
    decompositions resolved per query, UR reductions, the instance's
    own cached accumulators — carry over without recomputation.
    """
    probabilities = dict(base._probabilities)
    weighted = dict(base._accumulators)
    facts_changed = False
    for op in delta.ops:
        existing = probabilities.get(op.fact)
        if op.op == "insert":
            if existing is not None:
                raise DeltaError(
                    f"insert of {op.fact}: fact already present "
                    f"(reweight to change its label)"
                )
            probabilities[op.fact] = op.probability
            _shifted(
                weighted,
                op.fact.relation,
                line_summand(weighted_fact_line(op.fact, op.probability)),
                1,
            )
            facts_changed = True
        elif op.op == "delete":
            if existing is None:
                raise DeltaError(f"delete of {op.fact}: fact not present")
            del probabilities[op.fact]
            _shifted(
                weighted,
                op.fact.relation,
                -line_summand(weighted_fact_line(op.fact, existing)),
                -1,
            )
            facts_changed = True
        else:  # reweight
            if existing is None:
                raise DeltaError(
                    f"reweight of {op.fact}: fact not present "
                    f"(insert it first)"
                )
            probabilities[op.fact] = op.probability
            _shifted(
                weighted,
                op.fact.relation,
                line_summand(weighted_fact_line(op.fact, op.probability))
                - line_summand(weighted_fact_line(op.fact, existing)),
                0,
            )
    weighted = {
        rel: pair for rel, pair in weighted.items() if pair[1] > 0
    }
    if facts_changed:
        # Rebuilding the instance revalidates the schema (e.g. an
        # insert reusing a relation name at a different arity fails
        # here, before anything is journalled) …
        instance = DatabaseInstance(probabilities)
        # … and its unweighted accumulators are seeded incrementally
        # from the parent's, mirroring the weighted ones above.
        unweighted = dict(base.instance._accumulators)
        for op in delta.ops:
            if op.op == "insert":
                _shifted(
                    unweighted,
                    op.fact.relation,
                    line_summand(fact_line(op.fact)),
                    1,
                )
            elif op.op == "delete":
                _shifted(
                    unweighted,
                    op.fact.relation,
                    -line_summand(fact_line(op.fact)),
                    -1,
                )
        instance.__dict__["_accumulators"] = {
            rel: pair for rel, pair in unweighted.items() if pair[1] > 0
        }
    else:
        instance = base.instance
    child = object.__new__(ProbabilisticDatabase)
    child._probabilities = probabilities
    child._instance = instance
    child.__dict__["_accumulators"] = weighted
    return child


# ----------------------------------------------------------------------
# Write-ahead delta journal
# ----------------------------------------------------------------------


class LoadedDeltaJournal(LoadedLog):
    """The verified prefix of a delta journal: the chain's ``deltas``
    in order and the ``applied`` trailers by version."""

    def __init__(self, header, records, quarantined):
        super().__init__(header, records, quarantined)
        self.deltas = [r for r in records if r["type"] == "delta"]
        self.applied = {
            r["version"]: r for r in records if r["type"] == "delta-applied"
        }

    def __len__(self) -> int:
        return len(self.deltas)


class DeltaJournal(ChecksummedLog):
    """The durable write-ahead log of a version chain.

    Record format (one checksummed JSON object per line, written and
    read by :class:`~repro.core.journal.ChecksummedLog`)::

        {"type": "delta-header", "version": 1,
         "base_token": "<pdb token>", "checksum": "<sha256>"}
        {"type": "delta", "from_version": 0, "to_version": 1,
         "digest": "<delta digest>", "token_after": "<pdb token>",
         "ops": [{"op": "insert", "relation": "R",
                  "constants": ["a"], "probability": "1/2"}, ...],
         "checksum": "<sha256>"}
        {"type": "delta-applied", "version": 1,
         "invalidated": {"cache": 3, ...}, "survived": 7,
         "checksum": "<sha256>"}

    The ``delta`` record *is* the commit; ``delta-applied`` is an
    informational trailer recording what invalidation reclaimed (for
    ``repro cache-stats --delta-journal``) and is not required for
    recovery.  Chain discipline is part of validity: ``delta`` records
    must carry consecutive ``from_version``/``to_version`` numbers
    starting at the version count seen so far, so a corrupted middle
    cannot be bridged by a later structurally-intact record.
    """

    name = "delta journal"
    header_type = "delta-header"
    version = DELTA_JOURNAL_VERSION
    binding = "base_token"
    foreign = "for a different base database"
    phase = "db.delta"
    loaded_type = LoadedDeltaJournal

    def validate(self, record: dict, accepted: list[dict]) -> bool:
        kind = record.get("type")
        if kind == "delta-applied":
            return (
                isinstance(record.get("version"), int)
                and isinstance(record.get("invalidated"), dict)
                and isinstance(record.get("survived"), int)
            )
        if kind != "delta":
            return False
        # The previous delta record is at most a trailer away.
        previous = next(
            (r for r in reversed(accepted) if r["type"] == "delta"), None
        )
        versions = previous["to_version"] if previous else 0
        if not (
            record.get("from_version") == versions
            and record.get("to_version") == versions + 1
            and isinstance(record.get("ops"), list)
            and isinstance(record.get("digest"), str)
            and isinstance(record.get("token_after"), str)
        ):
            return False
        try:
            Delta.from_records(record["ops"])
        except DeltaError:
            return False
        return True

    def record_delta(
        self,
        delta: Delta,
        *,
        from_version: int,
        to_version: int,
        token_after: str,
    ) -> None:
        """Append the commit record for one applied delta."""
        self._append(
            {
                "type": "delta",
                "from_version": from_version,
                "to_version": to_version,
                "digest": delta.digest,
                "token_after": token_after,
                "ops": delta.to_records(),
            }
        )

    def record_applied(
        self, version: int, invalidated: dict, survived: int
    ) -> None:
        """Append the informational invalidation trailer."""
        self._append(
            {
                "type": "delta-applied",
                "version": version,
                "invalidated": dict(invalidated),
                "survived": survived,
            }
        )


def load_delta_journal(path: str | Path) -> LoadedDeltaJournal:
    """Read a delta journal's verified prefix (see
    :meth:`repro.core.journal.ChecksummedLog.load`)."""
    return DeltaJournal(path).load()


# ----------------------------------------------------------------------
# The mutable head of the version chain
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DatabaseVersion:
    """One immutable point in the version chain.

    Readers pin the version they were admitted against and keep using
    its ``pdb`` even while a newer version publishes — the basis of the
    no-torn-reads guarantee (``tests/test_delta_chaos.py``).
    """

    version: int
    pdb: ProbabilisticDatabase
    delta_digest: str | None = None

    @property
    def token(self) -> str:
        return self.pdb.cache_token


class VersionedDatabase:
    """A probabilistic database that accepts transactional deltas.

    Parameters
    ----------
    base:
        Version 0.
    journal:
        Optional WAL path.  When the file already holds a valid chain
        for this base, the deltas are **recovered** — re-applied in
        order, each verified bitwise against its recorded
        ``token_after`` — before the head is published, so a process
        that crashed mid-update restarts at whichever version its WAL
        committed.  When the journal was recorded for a *different*
        base, :class:`~repro.errors.JournalError` is raised (replaying
        foreign deltas would be silent corruption).

    The apply path hits ``fault_point("db.delta")`` once per step —
    validate, journal, invalidate, publish — so fault plans with
    ``after=k`` target any step and the chaos tier can kill the
    process at each one.  The WAL append is the commit point: any
    failure after it rolls *forward* (the version still publishes,
    matching what recovery would reconstruct), any failure before it
    rolls back to the old version untouched.
    """

    def __init__(
        self,
        base: ProbabilisticDatabase,
        journal: str | Path | None = None,
    ):
        self._lock = threading.RLock()
        self._invalidators: dict[str, Callable] = {}
        self._journal: DeltaJournal | None = None
        #: Token of version 0 — what the delta journal header binds to,
        #: stable across deltas (the head token is ``current.token``).
        self.base_token = base.cache_token
        self._current = DatabaseVersion(version=0, pdb=base)
        self._recovered = 0
        if journal is not None:
            self._journal = DeltaJournal(journal)
            self._recover(base)

    def _recover(self, base: ProbabilisticDatabase) -> None:
        loaded = self._journal.bind(base.cache_token)
        pdb = base
        for record in loaded.deltas:
            delta = Delta.from_records(record["ops"])
            pdb = apply_delta(pdb, delta)
            if pdb.cache_token != record["token_after"]:
                raise JournalError(
                    f"delta journal {self._journal.path}: replaying "
                    f"delta {record['to_version']} produced token "
                    f"{pdb.cache_token!r} but the journal recorded "
                    f"{record['token_after']!r}; refusing the chain",
                    phase="db.delta",
                )
            self._current = DatabaseVersion(
                version=record["to_version"],
                pdb=pdb,
                delta_digest=record["digest"],
            )
            self._recovered += 1
        if self._recovered:
            metric_inc("delta.recovered", self._recovered)

    # -- reading --------------------------------------------------------

    @property
    def current(self) -> DatabaseVersion:
        """The published head.  Grab it once per request and keep it:
        the returned version never mutates."""
        with self._lock:
            return self._current

    @property
    def pdb(self) -> ProbabilisticDatabase:
        return self.current.pdb

    @property
    def version(self) -> int:
        return self.current.version

    @property
    def cache_token(self) -> str:
        """The head version's token (so a versioned database can stand
        in wherever a plain one's token is fingerprinted)."""
        return self.current.token

    @property
    def recovered(self) -> int:
        """Versions replayed from the WAL at startup."""
        return self._recovered

    # -- invalidation hooks ---------------------------------------------

    def attach_invalidator(self, name: str, hook: Callable) -> None:
        """Register ``hook(touched, structural) -> {counter: n, ...}``.

        ``touched`` is every relation the delta names; ``structural``
        the subset whose fact set changed (insert/delete).  Hooks
        guarding weight-dependent artifacts match on ``touched``; hooks
        guarding structure-only artifacts may match on ``structural``
        and let reweight-only deltas pass.  Called after the WAL commit
        of every delta; each returned counter (except ``survived``) is
        emitted as ``delta.invalidated.<counter>``.  Later
        registrations under the same name replace earlier ones.
        """
        with self._lock:
            self._invalidators[name] = hook

    def attach_cache(self, cache) -> None:
        """Convenience: reclaim a
        :class:`~repro.core.cache.ReductionCache` (memory + disk +
        kernel memos) on every delta."""
        self.attach_invalidator(
            "cache",
            lambda touched, structural: cache.invalidate_relations(
                touched, structural=structural
            ),
        )

    def _run_invalidators(self, delta: Delta) -> tuple[dict, int]:
        invalidated: dict[str, int] = {}
        survived = 0
        touched = delta.touched_relations
        structural = delta.structural_relations
        for hook in list(self._invalidators.values()):
            counts = hook(touched, structural) or {}
            for counter, value in counts.items():
                if counter == "survived":
                    survived += value
                else:
                    invalidated[counter] = (
                        invalidated.get(counter, 0) + value
                    )
        return invalidated, survived

    # -- writing --------------------------------------------------------

    def apply(self, delta: Delta) -> DatabaseVersion:
        """Apply ``delta`` transactionally and publish the new version.

        Steps (each preceded by a ``db.delta`` fault point):

        1. **validate** — build the new version in memory; any
           :class:`~repro.errors.DeltaError` aborts with no state
           change;
        2. **journal** — durably append the commit record to the WAL
           (when a journal is attached);
        3. **invalidate** — run the registered hooks, count
           reclaimed/surviving artifacts, append the informational
           trailer;
        4. **publish** — swap the head.

        Once step 2 returns, the delta is durable: an exception in
        steps 3–4 (an injected fault, a broken hook) still publishes
        before propagating, keeping the in-memory head consistent with
        what crash recovery would rebuild from the WAL.
        """
        from repro.testing.faults import fault_point

        with self._lock:
            fault_point("db.delta")  # step 1: validate
            head = self._current
            pdb = apply_delta(head.pdb, delta)
            next_version = DatabaseVersion(
                version=head.version + 1,
                pdb=pdb,
                delta_digest=delta.digest,
            )
            fault_point("db.delta")  # step 2: journal (commit point)
            if self._journal is not None:
                self._journal.record_delta(
                    delta,
                    from_version=head.version,
                    to_version=next_version.version,
                    token_after=pdb.cache_token,
                )
            try:
                fault_point("db.delta")  # step 3: invalidate
                invalidated, survived = self._run_invalidators(delta)
                for counter, value in invalidated.items():
                    if value:
                        metric_inc(f"delta.invalidated.{counter}", value)
                metric_inc("delta.survived", survived)
                if self._journal is not None:
                    self._journal.record_applied(
                        next_version.version, invalidated, survived
                    )
                fault_point("db.delta")  # step 4: publish
            finally:
                # The WAL committed above: roll forward even when a
                # hook or an injected fault raised, so the published
                # head always matches what recovery would replay.
                self._current = next_version
                metric_inc("delta.applied")
                metric_inc("delta.ops", len(delta))
            return next_version

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "VersionedDatabase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        head = self.current
        return (
            f"VersionedDatabase(version={head.version}, "
            f"facts={len(head.pdb)}, token={head.token})"
        )
