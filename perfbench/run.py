"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload fpras-unsafe --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` makes the separate traced run
that reports the per-layer metrics.  Every answer the program gives is
checked; checks that fail are counted in ``failed``.

Standard output ends with one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it name every metric of the workload, including the
workload-specific ones (``fpras.queries_per_s``, ``serve.busy.p95_s``,
…), and give the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402  (the line above makes the sibling importable)

WORKLOADS = ("fpras-unsafe", "batch-mixed", "serve-delta", "exact-dp")

#: End-to-end metrics (same names on every workload) with their units.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_s": "s",
}


def at_reference_speed(value: float, unit: str, factor: float,
                       open_loop: bool = False):
    """A measured figure at reference-host speed (see ``HostSpeed``).

    An open loop's rates are set by its schedule, so they stay as
    measured."""
    if unit == "s":
        return value / factor, unit
    if unit == "1/s" and not open_loop:
        return value * factor, unit
    return value, unit


def load_workload(name: str, seed: int, toy: bool):
    if name == "fpras-unsafe":
        import wl_fpras as module
    elif name == "batch-mixed":
        import wl_batch as module
    elif name == "serve-delta":
        import wl_serve as module
    else:
        import wl_exact as module
    return module.Workload(seed, toy=toy)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--toy", action="store_true",
        help="toy input sizes (the benchmark's own smoke tests)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (common.ROOT / "src" / "repro").is_dir():
        print("error: no program sources under src/repro", file=sys.stderr)
        return 2
    common.use_source_tree()
    common.WORK_DIR.mkdir(exist_ok=True)
    import layers

    workload = load_workload(args.workload, args.seed, args.toy)
    setup_s = workload.setup()
    try:
        if args.trace:
            trace_path = common.WORK_DIR / (
                f"trace-{args.workload}-{args.seed}.jsonl"
            )
            traced = (
                workload.traced(trace_path, args.seconds)
                if hasattr(workload, "traced")
                else layers.traced_run(workload, trace_path)
            )
            problems = traced["problems"]
            attempted = traced["attempted"]
            failed = traced["failed"]
            checks = getattr(workload, "traced_checks", None)
            if checks is not None:
                extra = checks()
                problems += extra
                attempted += 1
                failed += bool(extra)
            metrics = {
                name: (traced["metrics"][name], unit)
                for name, unit in layers.PER_LAYER.items()
            }
            named = {}
            print("deterministic counters: "
                  + json.dumps(traced["counters"], sort_keys=True))
        else:
            result = workload.run(args.seconds)
            setup_s = result.get("setup_s", setup_s)
            problems = result["problems"]
            attempted = result["attempted"]
            failed = result["failed"]
            result["setup_s"] = setup_s
            factor = workload.host.factor()
            open_loop = getattr(workload, "open_loop", False)
            metrics = {
                name: at_reference_speed(result[name], unit, factor, open_loop)
                for name, unit in END_TO_END.items()
            }
            named = {
                name: at_reference_speed(value, unit, factor, open_loop)
                for name, (value, unit) in result["named"].items()
            }
            named["setup_s"] = metrics["setup_s"]
            named["failed_fraction"] = (
                common.ratio(failed, attempted), "ratio"
            )
            print(f"host speed factor = {factor:.6g} (probe time / "
                  f"{common.PROBE_REFERENCE_S} s; the figures below are "
                  f"at reference speed)")
            print("as measured: " + json.dumps({
                name: result[name] for name in END_TO_END
            }, sort_keys=True))
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    for problem in problems[:20]:
        print(f"check failed: {problem}")
    for name, (value, unit) in sorted(named.items()):
        print(f"{name} = {value:.6g} {unit}")
    print("provenance: " + json.dumps(
        common.provenance(args.seed, args.workload, workload.sizes()),
        sort_keys=True,
    ))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
