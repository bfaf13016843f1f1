"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class.  Sub-classes are grouped by the
subsystem they originate from.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


def _context_suffix(phase, elapsed, limits) -> str:
    """Render structured failure context for an exception message."""
    parts = []
    if phase is not None:
        parts.append(f"phase={phase}")
    if elapsed is not None:
        parts.append(f"elapsed={elapsed:.3f}s")
    if limits:
        rendered = ", ".join(
            f"{name}={value}" for name, value in sorted(limits.items())
        )
        parts.append(f"limits: {rendered}")
    return f" [{'; '.join(parts)}]" if parts else ""


class ContextualError(ReproError):
    """A failure carrying structured evaluation context.

    Mirrors :class:`LineageSizeBudgetExceeded`'s pattern of exposing the
    run state at failure time as attributes: ``phase`` (which stage of
    the reduce → NFTA → CountNFTA chain was executing), ``elapsed``
    (wall seconds into the evaluation, when known) and ``limits`` (a
    mapping of limit names to the values that were hit).  All three are
    optional; a plain ``ContextualError("message")`` behaves exactly
    like the unstructured exceptions it replaces.
    """

    def __init__(
        self,
        message: str = "",
        *,
        phase: str | None = None,
        elapsed: float | None = None,
        limits: dict | None = None,
    ):
        self.phase = phase
        self.elapsed = elapsed
        self.limits = dict(limits) if limits else {}
        super().__init__(
            f"{message}{_context_suffix(phase, elapsed, self.limits)}"
        )


class QueryError(ReproError):
    """A conjunctive query is malformed or violates a required property."""


class ParseError(QueryError):
    """A textual query could not be parsed."""


class SelfJoinError(QueryError):
    """An algorithm requiring self-join-freeness received a query with
    repeated relation symbols."""


class UnsafeQueryError(QueryError):
    """The lifted router *proved* a query unsafe (#P-hard exactly).

    Raised by :func:`repro.queries.lifted.lifted_probability` when the
    Dalvi–Suciu dichotomy witnesses hardness (a self-join-free CQ that
    is not hierarchical).  Degradable: the resilience ladder falls
    through to the FPRAS / intensional routes on it.
    """


class UnknownSafetyError(QueryError):
    """The lifted router could not build a safe plan, but hardness is
    not established either.

    The implemented rule set (independent join/project with separator
    variables, shattering, independent union, inclusion–exclusion over
    minimized disjuncts) is sound but incomplete for self-join CQs and
    UCQs; queries it cannot lift are classified ``unknown`` and routed
    through the existing ladder.  Degradable, like
    :class:`UnsafeQueryError`.
    """


class SchemaError(ReproError):
    """A fact or relation is inconsistent with the declared schema."""


class ProbabilityError(ReproError):
    """A probability annotation is outside ``[0, 1]`` or not rational."""


class DeltaError(ReproError):
    """A database delta cannot be applied to the version it targets.

    Raised for caller errors — inserting a fact that already exists,
    deleting or reweighting one that does not, malformed operations —
    always *before* anything is journalled or published, so a rejected
    delta leaves the versioned database exactly as it was.
    """


class GraphError(ReproError):
    """A probabilistic graph (or an RPQ over one) is malformed, or a
    graph route's structural precondition does not hold.

    The product-automaton RPQ routes require an *acyclic* graph (the
    layered reduction threads edges in topological order); they raise
    this error on cyclic inputs, and the resilience ladder degrades to
    enumeration / Monte-Carlo, which work on any graph.  Degradable,
    like :class:`UnsafeQueryError`.
    """


class DecompositionError(ContextualError):
    """A hypertree decomposition is invalid or could not be constructed."""


class WidthExceededError(DecompositionError):
    """No hypertree decomposition of the requested width exists (or was
    found within the configured search limits)."""


class AutomatonError(ReproError):
    """An automaton is structurally malformed."""


class EstimationError(ContextualError):
    """A randomized estimation procedure could not produce an estimate
    satisfying its configured guarantees."""


class BudgetExceededError(ContextualError):
    """An :class:`~repro.core.budget.EvaluationBudget` limit was hit at
    a cooperative checkpoint.

    ``kind`` names the exhausted limit (``'deadline'``,
    ``'work_units'`` or ``'lineage_clauses'``); ``used`` and ``limit``
    record how far past the cap the run was when the checkpoint fired.
    Deliberately *not* a subclass of :class:`EstimationError`: budget
    exhaustion is non-transient, so retry logic must not treat it as a
    retryable estimation failure.
    """

    def __init__(
        self,
        kind: str,
        *,
        phase: str | None = None,
        elapsed: float | None = None,
        limit=None,
        used=None,
    ):
        self.kind = kind
        self.limit = limit
        self.used = used
        detail = f" ({used} > {limit})" if limit is not None else ""
        super().__init__(
            f"evaluation budget exhausted: {kind}{detail}",
            phase=phase,
            elapsed=elapsed,
            limits={kind: limit} if limit is not None else None,
        )


class WorkerCrashError(ContextualError):
    """A process-isolated batch worker died without reporting a result.

    Raised (as a structured record, never across the pool boundary) by
    the :mod:`repro.core.procpool` supervisor when a subprocess worker
    is killed out from under it — a segfault in native code, the kernel
    OOM killer, an operator ``SIGKILL``, or a hard watchdog timeout.
    ``exitcode`` is the ``multiprocessing`` exit code (negative values
    are ``-signal``); ``item_index`` is the batch item the worker was
    evaluating when it died.  Deliberately *not* an
    :class:`EstimationError`: a crash is not a transient sampling
    failure, so the in-worker retry loop never retries it (resuming the
    batch from its journal is the recovery path).
    """

    def __init__(
        self,
        message: str,
        *,
        exitcode: int | None = None,
        item_index: int | None = None,
        phase: str | None = None,
        elapsed: float | None = None,
    ):
        self.exitcode = exitcode
        self.item_index = item_index
        super().__init__(message, phase=phase, elapsed=elapsed)


class JournalError(ContextualError):
    """A write-ahead log cannot be used for the requested operation.

    Raised for *caller* errors — opening a batch, request or delta log
    whose header binds it to a different owner (another batch, serving
    configuration or base database), or a delta chain that no longer
    replays to its recorded tokens.  ``phase`` names the log:
    ``journal.resume``, ``serve.journal`` or ``db.delta``.  Corruption
    of individual records is **not** an error: see
    :class:`JournalWarning`.
    """


class JournalWarning(UserWarning):
    """A write-ahead log's tail was quarantined (torn, bit-flipped,
    garbage, or missing a field its replay reads); the verified prefix
    is kept, and the next append moves the tail to ``<path>.quarantine``
    (see :class:`repro.core.journal.ChecksummedLog`)."""


class DiskCacheError(ContextualError):
    """The durable cache directory cannot be created or locked.

    Corrupt *entries* never raise — they are quarantined and recomputed
    (see :mod:`repro.core.diskcache`); this error covers unusable
    configuration only (e.g. the cache path exists and is a file).
    """


class ServeRejection(ContextualError):
    """The serve daemon declined a request before evaluating it.

    Structured admission-control outcomes, never engine failures: each
    subclass maps to one HTTP status and a machine-readable ``reason``
    so clients can distinguish back-off-and-retry (queue full,
    draining) from give-up (deadline expired, query quarantined).
    ``status`` is the HTTP status code the daemon responds with.
    """

    status = 503
    reason = "rejected"

    def __init__(self, message: str, **context):
        super().__init__(message, **context)


class QueueFullRejection(ServeRejection):
    """The bounded admission queue is at capacity (HTTP 429)."""

    status = 429
    reason = "queue_full"


class DrainingRejection(ServeRejection):
    """The daemon is draining for shutdown; admission is closed."""

    status = 503
    reason = "draining"


class DeadlineRejection(ServeRejection):
    """The request's deadline expired before any engine work started
    (e.g. the queue wait consumed it) — HTTP 504."""

    status = 504
    reason = "deadline_expired"


class QuarantineRejection(ServeRejection):
    """The circuit breaker has quarantined this query after repeated
    worker crashes; retry after the cooldown."""

    status = 503
    reason = "quarantined"


class LineageError(ReproError):
    """Lineage construction failed or exceeded a configured size budget."""


class LineageSizeBudgetExceeded(LineageError):
    """The DNF lineage grew past the caller-supplied clause budget.

    The partially-built clause count is stored in :attr:`clause_count` so
    benchmarks can report how far construction got before aborting.
    """

    def __init__(self, budget: int, clause_count: int):
        super().__init__(
            f"lineage exceeded clause budget {budget} "
            f"(at least {clause_count} clauses)"
        )
        self.budget = budget
        self.clause_count = clause_count
