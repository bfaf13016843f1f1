"""Shared pieces of the benchmark: seeds, statistics, counters, provenance."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: The checkout root (the benchmark runs from it; its ``src`` holds the
#: program under test).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for files a run must write (serve data, WALs, traces).
#: Inside the checkout, and listed in ``.gitignore``.
WORK_DIR = ROOT / ".perfbench"

#: Seed of the pinned instance *structures*.  The workload seed draws
#: probability labels (where they leave the work unchanged), schedules
#: and every RNG stream the program consumes; the shapes themselves are
#: fixed so that runs with different seeds measure the same work.
CORPUS_SEED = 2023

#: How many times set-up is repeated; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: The host-speed probe: a fixed pure-Python loop over dicts, tuples,
#: sets and big integers (the kinds of work the program does), and the
#: time it takes on the reference host.
PROBE_LOOP = 15_000
PROBE_REFERENCE_S = 0.02

#: Counter families the check that two traced runs give identical
#: counters covers.  The families the program's telemetry contract
#: exempts (``kernels.``, ``delta.``, ``serve.``, ``lifted.plan_cache.``
#: and ``cache.inflight_waits``; see ``repro.obs.metrics``) stay out.
DETERMINISTIC_PREFIXES = (
    "count_nfta.",
    "cache.",
    "lineage.",
    "karp_luby.",
    "decomposition.orders_tried",
)


def use_source_tree() -> None:
    """Import the program from the checkout's ``src`` directory."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def derive_seed(seed: int, *labels) -> int:
    """A 63-bit seed derived from the workload seed and ``labels``."""
    text = ":".join(str(part) for part in (seed, *labels))
    digest = hashlib.sha256(f"perfbench:{text}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, int(-(-fraction * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class HostSpeed:
    """How fast the host runs right now, next to the measured work.

    On a shared host the CPU speed available to one process drifts by
    tens of percent over minutes, so absolute seconds from two runs
    minutes apart differ for reasons outside the program.  A run samples
    a fixed probe loop between its operations; the end-to-end metrics
    are reported at reference-host speed (measured seconds divided by
    :meth:`factor`), the same-run baseline ratio that keeps runs made at
    different moments comparable.  Per-layer metrics stay as measured.
    """

    def __init__(self, threads: int = 1) -> None:
        #: Probe threads: as many as the measured work runs, since two
        #: threads contending for the interpreter lock slow down with the
        #: host differently than one thread does.
        self.threads = threads
        self.samples: list[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        if self.threads == 1:
            _probe(PROBE_LOOP)
        else:
            workers = [
                threading.Thread(target=_probe,
                                 args=(PROBE_LOOP // self.threads,))
                for _ in range(self.threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        self.samples.append(time.perf_counter() - started)

    def factor(self) -> float:
        """Median probe time over its reference time (>1: slower host)."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / PROBE_REFERENCE_S


def _probe(iterations: int) -> None:
    table: dict = {}
    seen = set()
    for value in range(iterations):
        key = (value % 251, value % 241)
        table[key] = table.get(key, 0) + (value << 40)
        if value % 7 == 0:
            seen.add(frozenset((value % 13, value % 17)))
    sorted(table.items())


def timed_setup(build, host: HostSpeed, repeats: int = SETUP_REPEATS):
    """Run ``build()`` ``repeats`` times, probing the host after each;
    return (last state, median seconds)."""
    durations = []
    state = None
    for _ in range(repeats):
        started = time.perf_counter()
        state = build()
        durations.append(time.perf_counter() - started)
        host.sample()
    return state, statistics.median(durations)


def deterministic_counters(counters: dict) -> dict:
    """The counters covered by the two-traced-runs identity check."""
    return {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith(DETERMINISTIC_PREFIXES)
        and name != "cache.inflight_waits"
    }


def cold_caches() -> None:
    """Empty the program's process-wide kernel and lifted-plan stores."""
    from repro.core.kernels import clear_kernel_caches
    from repro.queries.lifted import clear_lifted_caches

    clear_kernel_caches()
    clear_lifted_caches()


def provenance(seed: int, workload: str, sizes: dict) -> dict:
    """Where a result came from: interpreter, libraries, host, source."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "source_digest": _source_digest(),
        "sizes": sizes,
    }


def _git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else None


def _source_digest() -> str:
    """SHA-256 over the program's sources: identifies the code measured
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
