"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import load_facts_csv, main
from repro.db.fact import Fact
from repro.errors import ReproError

CSV = """\
relation,probability,constant1,constant2
R1,1/2,a,b
R2,2/3,b,c
"""

CSV_NO_HEADER = """\
R1,1/2,a,b
R2,2/3,b,c
"""

CSV_WITH_COMMENTS = """\
# a probabilistic graph
R1,1/2,a,b

R2,2/3,b,c
"""


class TestLoadFactsCsv:
    @pytest.mark.parametrize(
        "text", [CSV, CSV_NO_HEADER, CSV_WITH_COMMENTS]
    )
    def test_load_variants(self, text):
        pdb = load_facts_csv(io.StringIO(text))
        assert len(pdb) == 2
        assert str(pdb.probability(Fact("R1", ("a", "b")))) == "1/2"

    def test_unary_fact(self):
        pdb = load_facts_csv(io.StringIO("U,1/3,a\n"))
        assert pdb.probability(Fact("U", ("a",))).denominator == 3

    def test_short_row_rejected(self):
        with pytest.raises(ReproError):
            load_facts_csv(io.StringIO("R1,1/2\n"))

    def test_duplicate_fact_rejected(self):
        with pytest.raises(ReproError):
            load_facts_csv(io.StringIO("R,1/2,a\nR,1/3,a\n"))

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            load_facts_csv(io.StringIO("# nothing\n"))


class TestMain:
    @pytest.fixture
    def data_file(self, tmp_path):
        path = tmp_path / "facts.csv"
        path.write_text(CSV)
        return str(path)

    def test_probability_run(self, data_file, capsys):
        code = main(
            ["--data", data_file, "--query", "Q :- R1(x,y), R2(y,z)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Pr_H(Q) =" in out
        assert "1/3" in out  # 1/2 * 2/3 exactly

    def test_method_selection(self, data_file, capsys):
        code = main(
            [
                "--data", data_file,
                "--query", "Q :- R1(x,y), R2(y,z)",
                "--method", "fpras",
                "--epsilon", "0.2",
                "--seed", "1",
            ]
        )
        assert code == 0
        assert "fpras" in capsys.readouterr().out

    def test_reliability_mode(self, data_file, capsys):
        code = main(
            [
                "--data", data_file,
                "--query", "Q :- R1(x,y), R2(y,z)",
                "--reliability",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "UR(Q, D) = 1" in out  # only the full instance satisfies

    def test_query_file(self, data_file, tmp_path, capsys):
        query_path = tmp_path / "query.txt"
        query_path.write_text("Q :- R1(x, y)")
        code = main(
            ["--data", data_file, "--query-file", str(query_path)]
        )
        assert code == 0
        assert "Pr_H(Q) = 0.5" in capsys.readouterr().out

    def test_missing_data_file(self, capsys):
        code = main(["--data", "/nonexistent.csv", "--query", "R(x)"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_query(self, data_file, capsys):
        code = main(["--data", data_file, "--query", "not a query(("])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExtendedMethods:
    @pytest.fixture
    def data_file(self, tmp_path):
        path = tmp_path / "facts.csv"
        path.write_text(CSV)
        return str(path)

    def test_fpras_weighted(self, data_file, capsys):
        code = main(
            [
                "--data", data_file,
                "--query", "Q :- R1(x,y), R2(y,z)",
                "--method", "fpras-weighted",
                "--seed", "3",
            ]
        )
        assert code == 0
        assert "fpras-weighted" in capsys.readouterr().out

    def test_monte_carlo(self, data_file, capsys):
        code = main(
            [
                "--data", data_file,
                "--query", "Q :- R1(x,y), R2(y,z)",
                "--method", "monte-carlo",
                "--seed", "3",
                "--epsilon", "0.2",
            ]
        )
        assert code == 0
        assert "monte-carlo" in capsys.readouterr().out

    def test_reliability_rejects_karp_luby(self, data_file, capsys):
        code = main(
            [
                "--data", data_file,
                "--query", "Q :- R1(x,y), R2(y,z)",
                "--method", "karp-luby",
                "--reliability",
            ]
        )
        assert code == 1

    def test_explain_flag(self, data_file, capsys):
        code = main(
            [
                "--data", data_file,
                "--query", "Q :- R1(x,y), R2(y,z)",
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "route:" in out


BATCH_JSON = """\
[
    "Q :- R1(x, y), R2(y, z)",
    {"query": "Q :- R1(x, y)", "method": "fpras-weighted"},
    {"query": "Q :- R1(x, y), R2(y, z)", "task": "reliability"}
]
"""


class TestBatch:
    @pytest.fixture
    def data_file(self, tmp_path):
        path = tmp_path / "facts.csv"
        path.write_text(CSV)
        return str(path)

    @pytest.fixture
    def batch_file(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(BATCH_JSON)
        return str(path)

    def test_batch_run(self, data_file, batch_file, capsys):
        code = main(
            [
                "eval",
                "--data", data_file,
                "--batch", batch_file,
                "--workers", "2",
                "--seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[0] Pr" in out and "[2] UR" in out
        assert "cache:" in out and "hit-rate" in out
        assert "0.333333" in out  # item 0 exactly 1/3

    def test_batch_is_reproducible_across_workers(
        self, data_file, batch_file, capsys
    ):
        outputs = []
        for workers in ("1", "4"):
            assert main(
                [
                    "--data", data_file,
                    "--batch", batch_file,
                    "--workers", workers,
                    "--seed", "7",
                ]
            ) == 0
            lines = capsys.readouterr().out.splitlines()
            outputs.append(
                [line for line in lines if line.startswith("[")]
            )
        assert outputs[0] == outputs[1]

    def test_eval_token_optional_for_single_query(self, data_file, capsys):
        code = main(
            ["eval", "--data", data_file,
             "--query", "Q :- R1(x,y), R2(y,z)"]
        )
        assert code == 0
        assert "Pr_H(Q) =" in capsys.readouterr().out

    def test_batch_excludes_query(self, data_file, batch_file, capsys):
        with pytest.raises(SystemExit):
            main(
                ["--data", data_file, "--batch", batch_file,
                 "--query", "Q :- R1(x,y)"]
            )

    def test_bad_batch_entries(self, data_file, tmp_path, capsys):
        for payload in ("{}", "[]", '[{"method": "auto"}]',
                        '[{"query": "Q :- R1(x,y)", "bogus": 1}]'):
            path = tmp_path / "bad.json"
            path.write_text(payload)
            code = main(["--data", data_file, "--batch", str(path)])
            assert code == 1
            assert "error:" in capsys.readouterr().err


FPRAS_ONLY_BATCH = """\
[{"query": "Q :- R1(x, y)", "method": "fpras-weighted"}]
"""


@pytest.mark.faults
class TestBatchResilience:
    """--timeout / --max-retries / --on-error / --json and exit codes."""

    @pytest.fixture
    def data_file(self, tmp_path):
        path = tmp_path / "facts.csv"
        path.write_text(CSV)
        return str(path)

    @pytest.fixture
    def batch_file(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(BATCH_JSON)
        return str(path)

    def test_skip_mode_reports_partial_failure(
        self, data_file, batch_file, capsys
    ):
        from repro.testing import FaultSpec, inject_faults

        with inject_faults(FaultSpec("counting.nfta", scope=1)):
            code = main(
                ["--data", data_file, "--batch", batch_file,
                 "--seed", "7", "--on-error", "skip"]
            )
        assert code == 3  # EXIT_PARTIAL
        out = capsys.readouterr().out
        assert "[1] Pr = FAILED" in out
        assert "injected fault" in out
        assert "failed:  1 of 3 items" in out
        assert "[0] Pr" in out and "[2] UR" in out  # siblings intact

    def test_json_output_carries_structured_error_records(
        self, data_file, batch_file, capsys
    ):
        import json as json_module

        from repro.testing import FaultSpec, inject_faults

        with inject_faults(FaultSpec("counting.nfta", scope=1)):
            code = main(
                ["--data", data_file, "--batch", batch_file,
                 "--seed", "7", "--on-error", "skip", "--json",
                 "--timeout", "60"]
            )
        assert code == 3
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["items"] == 3
        assert payload["succeeded"] == 2
        assert payload["failed"] == 1
        record = payload["results"][1]
        assert record["ok"] is False
        assert record["error"]["exception"] == "EstimationError"
        assert record["error"]["phase"] == "counting.nfta"
        assert "deadline=60" in record["error"]["budget"]
        assert payload["results"][0]["ok"] is True

    def test_all_failed_exit_code(self, data_file, tmp_path, capsys):
        from repro.testing import FaultSpec, inject_faults

        path = tmp_path / "one.json"
        path.write_text(FPRAS_ONLY_BATCH)
        with inject_faults(FaultSpec("counting.nfta")):
            code = main(
                ["--data", data_file, "--batch", str(path),
                 "--seed", "7", "--on-error", "skip"]
            )
        assert code == 4  # EXIT_ALL_FAILED
        capsys.readouterr()

    def test_fail_mode_renders_siblings_and_exits_nonzero(
        self, data_file, batch_file, capsys
    ):
        from repro.testing import FaultSpec, inject_faults

        with inject_faults(FaultSpec("counting.nfta", scope=1)):
            code = main(
                ["--data", data_file, "--batch", batch_file, "--seed", "7"]
            )
        assert code == 3
        captured = capsys.readouterr()
        assert "error: batch item 1" in captured.err
        assert "[0] Pr" in captured.out  # completed work still shown

    def test_degrade_mode_recovers_and_exits_zero(
        self, data_file, batch_file, capsys
    ):
        from repro.testing import FaultSpec, inject_faults

        with inject_faults(FaultSpec("counting.nfta", scope=1)):
            code = main(
                ["--data", data_file, "--batch", batch_file,
                 "--seed", "7", "--on-error", "degrade"]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded" in out

    def test_max_retries_recovers_transient_fault(
        self, data_file, batch_file, capsys
    ):
        from repro.testing import FaultSpec, inject_faults

        with inject_faults(FaultSpec("counting.nfta", scope=1, times=1)):
            code = main(
                ["--data", data_file, "--batch", batch_file,
                 "--seed", "7", "--max-retries", "1"]
            )
        assert code == 0
        capsys.readouterr()

    def test_single_query_timeout_flag(self, data_file, capsys):
        code = main(
            ["--data", data_file, "--query", "Q :- R1(x,y), R2(y,z)",
             "--timeout", "60"]
        )
        assert code == 0
        assert "Pr_H(Q) =" in capsys.readouterr().out


class TestTelemetryFlags:
    @pytest.fixture
    def data_file(self, tmp_path):
        path = tmp_path / "facts.csv"
        path.write_text(CSV)
        return str(path)

    @pytest.fixture
    def batch_file(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(BATCH_JSON)
        return str(path)

    def test_profile_single_query(self, data_file, capsys):
        code = main(
            ["--data", data_file, "--query", "Q :- R1(x,y), R2(y,z)",
             "--method", "fpras", "--seed", "3", "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "route.fpras" in out
        assert "counters:" in out

    def test_profile_batch_prints_breakdown(
        self, data_file, batch_file, capsys
    ):
        code = main(
            ["eval", "--data", data_file, "--batch", batch_file,
             "--seed", "7", "--workers", "2", "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "item" in out
        assert "span coverage:" in out

    def test_metrics_out_writes_trace_and_summary_reads_it(
        self, data_file, batch_file, tmp_path, capsys
    ):
        trace_path = str(tmp_path / "trace.jsonl")
        code = main(
            ["eval", "--data", data_file, "--batch", batch_file,
             "--seed", "7", "--workers", "2",
             "--metrics-out", trace_path]
        )
        assert code == 0
        assert f"trace:   written to {trace_path}" in capsys.readouterr().out

        from repro.obs.export import read_trace, summarize_trace

        with open(trace_path, encoding="utf-8") as stream:
            records = read_trace(stream)
        kinds = {record["type"] for record in records}
        assert {"meta", "item", "span"} <= kinds
        summary = summarize_trace(records)
        assert summary["items"] == 3
        assert summary["coverage"] is not None
        assert summary["coverage"] > 0.0

        code = main(["trace-summary", trace_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase" in out and "item" in out
        assert "span coverage" in out

    def test_trace_summary_json(self, data_file, batch_file, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.jsonl")
        assert main(
            ["eval", "--data", data_file, "--batch", batch_file,
             "--seed", "7", "--metrics-out", trace_path]
        ) == 0
        capsys.readouterr()
        assert main(["trace-summary", trace_path, "--json"]) == 0
        import json as json_module

        payload = json_module.loads(capsys.readouterr().out)
        assert payload["items"] == 3
        assert "phases" in payload and "counters" in payload

    def test_trace_summary_missing_file(self, capsys):
        assert main(["trace-summary", "/nonexistent/trace.jsonl"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_batch_json_payload_includes_telemetry(
        self, data_file, batch_file, capsys
    ):
        import json as json_module

        code = main(
            ["eval", "--data", data_file, "--batch", batch_file,
             "--seed", "7", "--profile", "--json"]
        )
        assert code == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert "telemetry" in payload
        assert payload["telemetry"]["items"] == 3
        assert payload["telemetry"]["coverage"] > 0.0

    def test_no_profile_no_trace_output(self, data_file, capsys):
        code = main(
            ["--data", data_file, "--query", "Q :- R1(x,y), R2(y,z)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile:" not in out
        assert "trace:" not in out


#: An unsafe path query whose FPRAS run genuinely samples (the answer
#: is not exact), so the seed and the kernels both matter.
CSV_SAMPLED = """\
R1,3/5,c1,c1
R1,1/5,c3,c0
R1,2/5,c3,c2
R1,4/5,c1,c3
R1,2/5,c3,c1
R2,2/5,c0,c0
R2,1/5,c0,c2
R2,4/5,c2,c3
R2,4/5,c3,c3
R2,1/5,c1,c2
R2,4/5,c0,c1
R3,4/5,c1,c2
R3,4/5,c2,c3
R3,2/5,c0,c2
R3,2/5,c2,c0
"""


class TestKernelBackendFlag:
    """``--kernel-backend`` is the one triage flag: ``auto`` (default)
    or ``reference``; the daemon has no such flag."""

    @pytest.fixture
    def data_file(self, tmp_path):
        path = tmp_path / "facts.csv"
        path.write_text(CSV_SAMPLED)
        return str(path)

    def _eval(self, data_file, capsys, *extra):
        code = main(
            ["eval", "--data", data_file,
             "--query", "Q :- R1(x,y), R2(y,z), R3(z,w)",
             "--method", "fpras", "--seed", "7", *extra]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_reference_prints_the_default_runs_value(
        self, data_file, capsys
    ):
        default = self._eval(data_file, capsys)
        assert "method:  fpras\n" in default  # sampled, not exact
        reference = self._eval(
            data_file, capsys, "--kernel-backend", "reference"
        )
        assert reference == default

    def test_explicit_tier_is_a_usage_error(self, data_file, capsys):
        with pytest.raises(SystemExit) as exited:
            self._eval(data_file, capsys, "--kernel-backend", "optimized")
        assert exited.value.code == 2
        assert "--kernel-backend" in capsys.readouterr().err

    def test_serve_has_no_backend_flag(self, data_file, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--data", data_file, "--kernel-backend", "auto"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --kernel-backend" in (
            capsys.readouterr().err
        )


class TestArgumentValidation:
    """Malformed flags are usage errors: argparse exit code 2, with a
    message naming the flag, before any file is opened."""

    @pytest.fixture
    def data_file(self, tmp_path):
        path = tmp_path / "facts.csv"
        path.write_text(CSV)
        return str(path)

    @pytest.fixture
    def batch_file(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(BATCH_JSON)
        return str(path)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "0"],
            ["--workers", "-2"],
            ["--workers", "two"],
            ["--timeout", "-1"],
            ["--timeout", "0"],
            ["--timeout", "nan"],
            ["--epsilon", "0"],
            ["--epsilon", "-0.1"],
            ["--epsilon", "1.5"],
            ["--repetitions", "0"],
            ["--max-retries", "-1"],
            ["--memory-limit", "0", "--isolation", "process"],
        ],
    )
    def test_rejected_with_exit_code_2(
        self, data_file, batch_file, flags, capsys
    ):
        with pytest.raises(SystemExit) as exited:
            main(
                ["--data", data_file, "--batch", batch_file] + flags
            )
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert flags[0] in err

    def test_messages_name_the_offending_value(self, data_file, capsys):
        with pytest.raises(SystemExit):
            main(["--data", data_file, "--query", "R(x)",
                  "--workers", "0"])
        assert "positive integer" in capsys.readouterr().err

    def test_resume_requires_journal(self, data_file, batch_file, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--data", data_file, "--batch", batch_file, "--resume"])
        assert exited.value.code == 2
        assert "--journal" in capsys.readouterr().err

    def test_memory_limit_requires_process_isolation(
        self, data_file, batch_file, capsys
    ):
        with pytest.raises(SystemExit) as exited:
            main(["--data", data_file, "--batch", batch_file,
                  "--memory-limit", "1000000"])
        assert exited.value.code == 2
        assert "--isolation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--journal", "j.wal"],
            ["--cache-dir", "cache"],
            ["--isolation", "process"],
        ],
    )
    def test_batch_only_flags_rejected_for_single_query(
        self, data_file, flags, capsys
    ):
        with pytest.raises(SystemExit) as exited:
            main(["--data", data_file, "--query", "R(x)"] + flags)
        assert exited.value.code == 2
        assert "--batch" in capsys.readouterr().err

    def test_valid_flags_still_accepted(self, data_file, capsys):
        code = main(
            ["--data", data_file, "--query", "Q :- R1(x,y), R2(y,z)",
             "--epsilon", "0.3", "--timeout", "30", "--seed", "1"]
        )
        assert code == 0
        capsys.readouterr()


class TestDurabilityFlags:
    @pytest.fixture
    def data_file(self, tmp_path):
        path = tmp_path / "facts.csv"
        path.write_text(CSV)
        return str(path)

    @pytest.fixture
    def batch_file(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(BATCH_JSON)
        return str(path)

    def test_journal_then_resume_round_trip(
        self, data_file, batch_file, tmp_path, capsys
    ):
        journal = str(tmp_path / "batch.wal")
        assert main(
            ["--data", data_file, "--batch", batch_file,
             "--seed", "7", "--journal", journal]
        ) == 0
        first = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[")
        ]
        assert main(
            ["--data", data_file, "--batch", batch_file,
             "--seed", "7", "--journal", journal, "--resume"]
        ) == 0
        out = capsys.readouterr().out
        resumed = [
            line for line in out.splitlines() if line.startswith("[")
        ]
        assert resumed == first
        assert "resumed: 3 of 3 items replayed" in out

    def test_resume_against_wrong_seed_is_an_error(
        self, data_file, batch_file, tmp_path, capsys
    ):
        journal = str(tmp_path / "batch.wal")
        assert main(
            ["--data", data_file, "--batch", batch_file,
             "--seed", "7", "--journal", journal]
        ) == 0
        capsys.readouterr()
        code = main(
            ["--data", data_file, "--batch", batch_file,
             "--seed", "8", "--journal", journal, "--resume"]
        )
        assert code == 1
        assert "different batch" in capsys.readouterr().err

    def test_json_payload_marks_replayed_items(
        self, data_file, batch_file, tmp_path, capsys
    ):
        import json as json_module

        journal = str(tmp_path / "batch.wal")
        assert main(
            ["--data", data_file, "--batch", batch_file,
             "--seed", "7", "--journal", journal]
        ) == 0
        capsys.readouterr()
        assert main(
            ["--data", data_file, "--batch", batch_file,
             "--seed", "7", "--journal", journal, "--resume", "--json"]
        ) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert all(r["replayed"] for r in payload["results"])

    def test_cache_dir_persists_across_runs(
        self, data_file, batch_file, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        for _ in range(2):
            assert main(
                ["--data", data_file, "--batch", batch_file,
                 "--seed", "7", "--cache-dir", cache_dir]
            ) == 0
            capsys.readouterr()
        from repro.core.diskcache import DiskCache

        assert len(DiskCache(cache_dir)) > 0

    def test_process_isolation_end_to_end(
        self, data_file, batch_file, capsys
    ):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        assert main(
            ["--data", data_file, "--batch", batch_file,
             "--seed", "7", "--workers", "2", "--isolation", "process"]
        ) == 0
        isolated = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[")
        ]
        assert main(
            ["--data", data_file, "--batch", batch_file,
             "--seed", "7", "--workers", "2"]
        ) == 0
        threaded = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[")
        ]
        assert isolated == threaded


class TestLoadErrorProvenance:
    """Broken input files are named, with the offending record."""

    def test_csv_error_names_file_and_row(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text("R1,1/2,a,b\nR2,not-a-probability,b,c\n")
        code = main(["--data", str(path), "--query", "Q :- R1(x,y)"])
        assert code == 1
        err = capsys.readouterr().err
        assert "broken.csv" in err
        assert "row 2" in err
        assert "not-a-probability" in err

    def test_batch_error_names_file_and_entry(self, tmp_path, capsys):
        data = tmp_path / "facts.csv"
        data.write_text(CSV)
        batch = tmp_path / "broken-batch.json"
        batch.write_text('["Q :- R1(x,y)", {"method": "auto"}]')
        code = main(["--data", str(data), "--batch", str(batch)])
        assert code == 1
        err = capsys.readouterr().err
        assert "broken-batch.json" in err
        assert "entry 1" in err

    def test_query_file_error_names_file(self, tmp_path, capsys):
        data = tmp_path / "facts.csv"
        data.write_text(CSV)
        query = tmp_path / "broken-query.txt"
        query.write_text("Q :- R1((((")
        code = main(
            ["--data", str(data), "--query-file", str(query)]
        )
        assert code == 1
        assert "broken-query.txt" in capsys.readouterr().err


class TestServeAndCacheStatsCommands:
    """Flag validation and output for the ``serve`` and
    ``cache-stats`` subcommands (the daemon itself is exercised in
    the ``-m serve`` tier)."""

    @pytest.fixture
    def data_file(self, tmp_path):
        path = tmp_path / "facts.csv"
        path.write_text(CSV)
        return str(path)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--memory-limit", "1000000"],  # needs process isolation
            ["--shed-thresholds", "0.5,high,0.9"],
            ["--epsilon", "1.5"],
            ["--max-concurrency", "0"],
            ["--port", "-1"],
            ["--drain-deadline", "0"],
        ],
    )
    def test_serve_rejects_bad_flags_with_exit_code_2(
        self, data_file, flags, capsys
    ):
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--data", data_file] + flags)
        assert exited.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_serve_requires_data(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["serve"])
        assert exited.value.code == 2
        assert "--data" in capsys.readouterr().err

    def test_serve_missing_data_file_is_a_runtime_error(
        self, tmp_path, capsys
    ):
        code = main(
            ["serve", "--data", str(tmp_path / "nope.csv")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_cache_stats_text_output(self, tmp_path, capsys):
        from repro.core.diskcache import DiskCache

        cache = DiskCache(tmp_path / "tier")
        cache.store(("cli", "stats"), {"payload": 1})
        assert main(["cache-stats", str(tmp_path / "tier")]) == 0
        out = capsys.readouterr().out
        assert "records:     1" in out
        assert "quarantined: 0" in out

    def test_cache_stats_json_output(self, tmp_path, capsys):
        import json as json_module

        from repro.core.diskcache import DiskCache

        cache = DiskCache(tmp_path / "tier")
        cache.store(("cli", "stats"), {"payload": 1})
        assert main(
            ["cache-stats", str(tmp_path / "tier"), "--json"]
        ) == 0
        stats = json_module.loads(capsys.readouterr().out)
        assert stats["records"] == 1
        assert stats["quarantined"] == 0
        assert stats["bytes"] > 0

    def test_exit_drained_constant_is_exported(self):
        from repro.cli import EXIT_DRAINED

        assert EXIT_DRAINED == 5


EDGES_CSV = """\
relation,probability,constant1,constant2
a,1/2,s,u
a,1/3,s,v
b,2/3,u,t
b,3/4,v,t
c,1/2,u,v
"""


class TestRPQ:
    @pytest.fixture
    def edges_file(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text(EDGES_CSV)
        return str(path)

    def test_rpq_exact_prints_rational(self, edges_file, capsys):
        code = main(
            ["eval", "--data", edges_file, "--rpq", "a b",
             "--source", "s", "--target", "t", "--method", "exact"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Pr_G = 0.5 (1/2)" in out
        assert "method:  exact (exact)" in out

    def test_rpq_auto_route(self, edges_file, capsys):
        code = main(
            ["eval", "--data", edges_file, "--rpq", "a (c b | b)",
             "--source", "s", "--target", "t"]
        )
        assert code == 0
        assert "(13/24)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            # --rpq needs both endpoints.
            ["--rpq", "a b", "--source", "s"],
            ["--rpq", "a b", "--target", "t"],
            # Graph and relational surfaces don't mix.
            ["--rpq", "a b", "--source", "s", "--target", "t",
             "--reliability"],
            ["--query", "Q :- a(x, y)", "--method", "exact"],
            ["--query", "Q :- a(x, y)", "--source", "s"],
            # karp-luby is lineage-only, not an RPQ method.
            ["--rpq", "a b", "--source", "s", "--target", "t",
             "--method", "karp-luby"],
        ],
        ids=["no-target", "no-source", "reliability", "exact-no-rpq",
             "source-no-rpq", "bad-method"],
    )
    def test_usage_errors_exit_2(self, edges_file, argv):
        with pytest.raises(SystemExit) as failure:
            main(["eval", "--data", edges_file, *argv])
        assert failure.value.code == 2

    def test_rpq_rejects_nonbinary_facts(self, tmp_path, capsys):
        path = tmp_path / "facts.csv"
        path.write_text("relation,probability,constant1\nR,1/2,a\n")
        code = main(
            ["eval", "--data", str(path), "--rpq", "R",
             "--source", "a", "--target", "a"]
        )
        assert code == 1
        assert "binary" in capsys.readouterr().err

    def test_batch_rpq_items(self, edges_file, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text(
            '["Q :- a(x, y), b(y, z)",\n'
            ' {"query": "a b", "task": "rpq",'
            ' "source": "s", "target": "t"},\n'
            ' {"query": "(a|c)* b", "task": "rpq", "source": "s",'
            ' "target": "t", "method": "fpras"}]\n'
        )
        outputs = []
        for workers in ("1", "4"):
            assert main(
                ["eval", "--data", edges_file, "--batch", str(batch),
                 "--workers", workers, "--seed", "7"]
            ) == 0
            lines = capsys.readouterr().out.splitlines()
            outputs.append(
                [line for line in lines if line.startswith("[")]
            )
        assert outputs[0] == outputs[1]
        assert outputs[0][0].startswith("[0] Pr =")
        assert outputs[0][1].startswith("[1] Pr_G = 0.5 ")
        assert "s -[a b]-> t" in outputs[0][1]
        assert outputs[0][2].startswith("[2] Pr_G =")

    def test_batch_rpq_entry_requires_endpoints(
        self, edges_file, tmp_path, capsys
    ):
        batch = tmp_path / "batch.json"
        batch.write_text(
            '[{"query": "a b", "task": "rpq", "source": "s"}]'
        )
        code = main(
            ["eval", "--data", edges_file, "--batch", str(batch)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "rpq items require" in err and "target" in err

    def test_batch_rpq_entry_rejects_unknown_fields(
        self, edges_file, tmp_path, capsys
    ):
        batch = tmp_path / "batch.json"
        batch.write_text(
            '[{"query": "a b", "task": "rpq", "source": "s",'
            ' "target": "t", "nodes": ["s"]}]'
        )
        code = main(
            ["eval", "--data", edges_file, "--batch", str(batch)]
        )
        assert code == 1
        assert "unknown fields" in capsys.readouterr().err
