"""Smoke tests for the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/test_smoke.py

They check that every workload runs in both modes and emits every
metric BENCHMARK.json names, with its unit, and that each output check
rejects a deliberately corrupted answer.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.use_source_tree()
common.WORK_DIR.mkdir(exist_ok=True)

import layers  # noqa: E402
import run  # noqa: E402
import wl_batch  # noqa: E402
import wl_exact  # noqa: E402
import wl_fpras  # noqa: E402
import wl_serve  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _run(*arguments, cwd=common.ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in SPEC["per_layer"]}
            == layers.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_workload_emits_every_metric(workload, trace):
    completed = _run("--workload", workload, "--seed", "7", "--seconds", "3",
                     "--trace", trace, "--toy")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in spec}
    if trace == "0":
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    lonely = common.WORK_DIR / "lonely-checkout"
    shutil.rmtree(lonely, ignore_errors=True)
    shutil.copytree(HERE, lonely / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", lonely)
    try:
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact-dp",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=lonely, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(lonely, ignore_errors=True)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


# -- each output check rejects a corrupted answer ------------------------

@pytest.fixture(scope="module")
def fpras():
    workload = wl_fpras.Workload(3, toy=True)
    workload.setup()
    return workload


def test_fpras_check_rejects_a_corrupted_answer(fpras, monkeypatch):
    item, answer = fpras.query(0)
    assert fpras.check(item, answer) == []
    wrong = dataclasses.replace(answer, value=answer.value * 1.5)
    assert fpras.check(item, wrong)

    from repro.core.estimator import PQEEngine

    honest = PQEEngine.probability

    def corrupted(self, *args, **kwargs):
        answer = honest(self, *args, **kwargs)
        return dataclasses.replace(answer, value=answer.value * 1.5)

    monkeypatch.setattr(PQEEngine, "probability", corrupted)
    result = fpras.run(0.5)
    assert result["failed"] == result["attempted"] >= 1


def test_recomposition_rejects_a_corrupted_layer(fpras, monkeypatch):
    assert fpras.recompose() == []
    import repro.automata.nfta_counting as counting

    honest = counting.count_nfta

    def corrupted(*args, **kwargs):
        result = honest(*args, **kwargs)
        return dataclasses.replace(result, estimate=result.estimate * 1.001)

    monkeypatch.setattr(counting, "count_nfta", corrupted)
    assert fpras.recompose()


def test_batch_checks_reject_corrupted_answers():
    workload = wl_batch.Workload(3, toy=True)
    workload.setup()
    result = workload.call()
    assert workload.check(result) == (0, [])
    exact = next(
        (index, item.answer) for index, item in enumerate(result.results)
        if item.answer.exact and workload.truths[index] is not None
    )
    index, answer = exact
    wrong = dataclasses.replace(
        answer, value=answer.value / 2,
        rational=None if answer.rational is None else answer.rational / 2,
    )
    assert wl_batch.check_exact(index, wrong, workload.truths[index])
    values = list(result.values)
    values[-1] = values[-1] + 1e-9
    assert wl_batch.check_passes(result.values, tuple(values))


def test_serve_check_rejects_corrupted_answers():
    table = [[Fraction(1, 3)] * len(wl_serve.REQUEST_MIX)]
    exact = wl_serve.Entry(0, 0.0, "busy", "evaluate", {}, mix=0, status=200,
                           body={"ok": True, "exact": True,
                                 "rational": "1/3", "value": 1 / 3})
    assert wl_serve.check_answer(exact, range(0, 1), table) is None
    exact.body["rational"] = "1/4"
    assert wl_serve.check_answer(exact, range(0, 1), table)

    sampled = wl_serve.Entry(1, 0.0, "busy", "evaluate", {}, mix=7,
                             status=200, body={"ok": True, "exact": False,
                                               "value": 0.35,
                                               "epsilon": 0.25})
    assert wl_serve.check_answer(sampled, range(0, 1), table) is None
    sampled.body["value"] = 0.5
    assert wl_serve.check_answer(sampled, range(0, 1), table)
    # A version live during the request may justify the answer.
    table.append([Fraction(1, 2)] * len(wl_serve.REQUEST_MIX))
    assert wl_serve.check_answer(sampled, range(0, 2), table) is None


def test_exact_check_rejects_a_corrupted_answer():
    workload = wl_exact.Workload(3, toy=True)
    workload.setup()
    item = workload.items[0]
    value = wl_exact.evaluate(item)
    assert wl_exact.check(item, value) == []
    assert wl_exact.check(item, value * (1 + 1e-9))


def test_counter_check_rejects_nondeterministic_counters():
    class Drifting:
        calls = 0

        def traced_pass(self, tracer=None):
            Drifting.calls += 1
            return {"wall": 1.0, "values": [0.5], "problems": [],
                    "counters": {"count_nfta.samples_drawn": Drifting.calls}}

    traced = layers.traced_run(Drifting(), common.WORK_DIR / "drift.jsonl")
    assert traced["failed"] == 1
    assert "deterministic counters differ" in traced["problems"][0]
