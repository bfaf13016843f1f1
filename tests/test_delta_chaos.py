"""Chaos tier for the mutation path (``-m chaos``): crash the delta.

The acceptance matrix: a process killed — clean ``exit`` or raw
``SIGKILL`` — at *every* step of :meth:`VersionedDatabase.apply`
(validate, journal, invalidate, publish) recovers to **exactly the old
or exactly the new version**, never a hybrid, and the recovered
database answers bitwise-identically to a from-scratch oracle of that
version.  Bit-flipped WAL records quarantine their suffix the same
way.  The mid-flight scenario: a batch admitted against version *n*
while a delta publishes *n+1* returns answers bitwise-consistent with
exactly one of the two versions.

When ``CHAOS_ARTIFACT_DIR`` is set (the CI chaos/delta jobs), the
recovered delta journal — and its ``.quarantine`` sibling, when a
damaged tail was cut off — is copied there for artifact upload.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import threading
import warnings
from fractions import Fraction

import pytest

from repro.core.estimator import PQEEngine
from repro.core.exact import exact_probability
from repro.core.parallel import BatchItem, evaluate_batch
from repro.db import (
    Delta,
    DeltaOp,
    Fact,
    ProbabilisticDatabase,
    VersionedDatabase,
    apply_delta,
    load_delta_journal,
)
from repro.queries.parser import parse_query
from repro.testing.faults import FaultSpec, flip_bit, inject_faults

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.delta,
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="delta chaos scenarios need fork-based child processes",
    ),
]

QUERY = parse_query("Q :- R1(x, y), R2(y, z)")

R1AB = Fact("R1", ("a", "b"))
R2BC = Fact("R2", ("b", "c"))


def base_pdb() -> ProbabilisticDatabase:
    return ProbabilisticDatabase({
        R1AB: "1/2",
        R2BC: "2/3",
        Fact("S1", ("x", "y")): "3/4",
    })


def the_delta() -> Delta:
    return Delta([
        DeltaOp.reweight(R1AB, "1/5"),
        DeltaOp.insert(Fact("R2", ("b", "d")), "1/7"),
    ])


def _export_artifact(path):
    artifact_dir = os.environ.get("CHAOS_ARTIFACT_DIR")
    if artifact_dir:
        os.makedirs(artifact_dir, exist_ok=True)
        shutil.copy(path, artifact_dir)
        quarantine = f"{path}.quarantine"
        if os.path.exists(quarantine):
            shutil.copy(quarantine, artifact_dir)


def _crash_apply(wal, step, crash):
    """Child-process body: die at delta step ``step`` mid-apply."""
    vdb = VersionedDatabase(base_pdb(), journal=wal)
    with inject_faults(
        FaultSpec("db.delta", after=step, crash=crash)
    ):
        vdb.apply(the_delta())
    os._exit(0)  # pragma: no cover - the fault always fires first


class TestCrashAtEveryStep:
    @pytest.mark.parametrize("crash", ["exit", "sigkill"])
    @pytest.mark.parametrize("step", [0, 1, 2, 3])
    def test_crash_recovers_to_old_or_new_never_hybrid(
        self, tmp_path, step, crash
    ):
        wal = tmp_path / f"deltas-{step}-{crash}.wal"
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(
            target=_crash_apply, args=(wal, step, crash)
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode is not None and child.exitcode != 0

        with warnings.catch_warnings():
            # A crash *at* the journal step may leave a torn tail;
            # quarantining it is part of the contract.
            warnings.simplefilter("ignore")
            recovered = VersionedDatabase(base_pdb(), journal=wal)
        _export_artifact(wal)

        old = base_pdb()
        new = apply_delta(base_pdb(), the_delta())
        # Steps 1-2 fire before the WAL commit: the delta vanished.
        # Steps 3-4 fire after it: the delta is durable.
        expected = old if step < 2 else new
        assert recovered.version == (0 if step < 2 else 1)
        assert recovered.cache_token == expected.cache_token
        assert dict(recovered.pdb.probabilities) == dict(
            expected.probabilities
        )

        # No oracle-divergent answer: the recovered head evaluates
        # bitwise like a from-scratch database of the same version.
        assert exact_probability(QUERY, recovered.pdb) == (
            exact_probability(QUERY, expected)
        )
        recovered.close()

    def test_recovered_head_accepts_further_deltas(self, tmp_path):
        """Roll-forward recovery is not a dead end: the chain extends."""
        wal = tmp_path / "deltas-continue.wal"
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(
            target=_crash_apply, args=(wal, 3, "sigkill")
        )
        child.start()
        child.join(timeout=60)

        recovered = VersionedDatabase(base_pdb(), journal=wal)
        assert recovered.version == 1
        recovered.apply(Delta([DeltaOp.delete(R2BC)]))
        recovered.close()
        _export_artifact(wal)

        again = VersionedDatabase(base_pdb(), journal=wal)
        assert again.version == 2
        assert again.recovered == 2
        assert R2BC not in again.pdb.probabilities
        again.close()


class TestCorruptedWal:
    @pytest.mark.parametrize("victim", [1, 2])
    def test_flipped_bit_quarantines_suffix_never_diverges(
        self, tmp_path, victim
    ):
        wal = tmp_path / "deltas-flip.wal"
        deltas = [
            Delta([DeltaOp.reweight(R1AB, "1/5")]),
            Delta([DeltaOp.reweight(R1AB, "1/6")]),
        ]
        with VersionedDatabase(base_pdb(), journal=wal) as vdb:
            for delta in deltas:
                vdb.apply(delta)

        # Flip a bit inside the ``victim``-th delta record (lines are
        # header, delta 1, applied 1, delta 2, applied 2).
        lines = wal.read_bytes().split(b"\n")
        line_index = 1 if victim == 1 else 3
        offset = (
            sum(len(line) + 1 for line in lines[:line_index]) + 40
        )
        flip_bit(wal, offset=offset)

        with pytest.warns(Warning, match="quarantin"):
            recovered = VersionedDatabase(base_pdb(), journal=wal)
        _export_artifact(wal)

        # The valid prefix replays; everything at or after the damage
        # is gone — and the surviving head matches its oracle exactly.
        surviving = victim - 1
        assert recovered.version == surviving
        expected = base_pdb()
        for delta in deltas[:surviving]:
            expected = apply_delta(expected, delta)
        assert recovered.cache_token == expected.cache_token
        assert exact_probability(QUERY, recovered.pdb) == (
            exact_probability(QUERY, expected)
        )
        recovered.close()

        with pytest.warns(Warning, match="quarantin"):
            loaded = load_delta_journal(wal)
        assert loaded.quarantined >= 1


class TestMidFlightDelta:
    def test_batch_is_bitwise_consistent_with_exactly_one_version(
        self,
    ):
        """A batch racing a concurrent delta pins one version: every
        answer matches the version-0 expectation or every answer
        matches version 1 — no mixture, no third value."""
        vdb = VersionedDatabase(base_pdb())
        engine = PQEEngine(epsilon=0.5, seed=2023)
        items = [
            BatchItem(QUERY, vdb, method="fpras-weighted")
            for _ in range(8)
        ]

        v0_pdb = vdb.pdb
        v1_pdb = apply_delta(base_pdb(), the_delta())
        expected = {
            0: [
                r.answer.value
                for r in evaluate_batch(
                    engine,
                    [
                        BatchItem(
                            QUERY, v0_pdb, method="fpras-weighted"
                        )
                        for _ in range(8)
                    ],
                    max_workers=4,
                    seed=7,
                ).results
            ],
            1: [
                r.answer.value
                for r in evaluate_batch(
                    engine,
                    [
                        BatchItem(
                            QUERY, v1_pdb, method="fpras-weighted"
                        )
                        for _ in range(8)
                    ],
                    max_workers=4,
                    seed=7,
                ).results
            ],
        }
        assert expected[0] != expected[1]

        results = {}

        def run_batch():
            results["batch"] = evaluate_batch(
                engine, items, max_workers=4, seed=7
            )

        racer = threading.Thread(target=run_batch)
        racer.start()
        vdb.apply(the_delta())  # publishes v1 while the batch runs
        racer.join(timeout=120)
        assert "batch" in results

        batch = results["batch"]
        assert batch.ok
        values = [r.answer.value for r in batch.results]
        assert values in (expected[0], expected[1])
        # The head the daemon publishes afterwards is version 1.
        assert vdb.version == 1
        assert vdb.cache_token == v1_pdb.cache_token
