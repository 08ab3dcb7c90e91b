"""Tests for the command-line entry point and error hierarchy."""

import pytest

from repro import errors
from repro.__main__ import EXPERIMENTS, main


class TestCLI:
    def test_list_returns_zero(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output

    def test_no_args_shows_help(self, capsys):
        assert main([]) == 0
        assert "Experiments:" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_run_fig8(self, capsys):
        assert main(["fig8"]) == 0
        output = capsys.readouterr().out
        assert "Linear contraction" in output

    def test_run_fig2_quick(self, capsys):
        assert main(["fig2", "--quick", "--rows", "20000"]) == 0
        assert "Figure 2" in capsys.readouterr().out


class TestSQLSubcommand:
    def test_execute_statements(self, capsys):
        code = main([
            "sql",
            "-e", "CREATE TABLE r (k integer, a integer)",
            "-e", "INSERT INTO r VALUES (1, 10), (2, 20), (3, 30); "
                  "SELECT r.k FROM r WHERE a >= 15 ORDER BY k",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "ok (3 rows affected)" in output
        assert "r.k" in output
        assert "2" in output and "3" in output

    def test_cracking_on_and_off_agree(self, capsys):
        statements = [
            "-e", "CREATE TABLE r (a integer)",
            "-e", "INSERT INTO r VALUES (5), (15), (25)",
            "-e", "SELECT count(*) FROM r WHERE a > 10",
        ]
        outputs = []
        for flags in ([], ["--no-cracking"]):
            assert main(["sql", *flags, *statements]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].rstrip().endswith("2")

    def test_script_file(self, capsys, tmp_path):
        script = tmp_path / "demo.sql"
        script.write_text(
            "CREATE TABLE t (v integer);"
            "INSERT INTO t VALUES (1), (2);"
            "SELECT sum(t.v) FROM t"
        )
        assert main(["sql", str(script)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("3")

    def test_a_null_cell_prints_as_null(self, capsys):
        assert main([
            "sql", "-e", "CREATE TABLE r (a integer, b integer); INSERT INTO r VALUES (1, 2); "
                         "SELECT sum(a), count(*), max(b) FROM r WHERE a > 10",
        ]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "sum(r.a)|count(*)|max(r.b)", "NULL|0|NULL",
        ]

    def test_no_sql_given_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["sql"])

    def test_semicolon_inside_string_literal_survives(self, capsys):
        # Regression: splitting on ';' used to cut varchar literals in half.
        code = main([
            "sql",
            "-e", "CREATE TABLE t (s varchar); "
                  "INSERT INTO t VALUES ('a;b'); SELECT * FROM t",
        ])
        assert code == 0
        assert "a;b" in capsys.readouterr().out

    def test_sql_error_is_reported_cleanly(self, capsys):
        assert main(["sql", "-e", "SELECT * FROM ghost"]) == 1
        captured = capsys.readouterr()
        assert "unknown table" in captured.err

    def test_missing_script_file_reported_cleanly(self, capsys):
        assert main(["sql", "/no/such/file.sql"]) == 2
        assert "cannot read script" in capsys.readouterr().err

    def test_help_mentions_sql(self, capsys):
        assert main([]) == 0
        assert "sql" in capsys.readouterr().out


class TestPersistenceSubcommands:
    def _seed_store(self, persist_dir):
        from repro.sql import Database

        db = Database(cracking=True, persist_dir=persist_dir)
        db.execute("CREATE TABLE r (k integer, a integer)")
        db.execute("INSERT INTO r VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
        db.execute("SELECT count(*) FROM r WHERE a BETWEEN 15 AND 35")
        db.close()
        return persist_dir

    def test_snapshot_compacts_store(self, capsys, tmp_path):
        state = self._seed_store(tmp_path / "state")
        assert main(["snapshot", str(state)]) == 0
        out = capsys.readouterr().out
        assert "checkpointed generation 1" in out
        assert "table r: 4 rows" in out
        assert (state / "CURRENT").read_text().strip() == "1"

    def test_restore_recovers_and_queries(self, capsys, tmp_path):
        state = self._seed_store(tmp_path / "state")
        code = main(["restore", str(state), "-e", "SELECT count(*) FROM r"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered generation 0" in out
        assert "invariants ok" in out
        assert out.rstrip().endswith("4")

    def test_restore_after_snapshot_is_warm(self, capsys, tmp_path):
        state = self._seed_store(tmp_path / "state")
        from repro.sql import Database

        db = Database(cracking=True, persist_dir=state)
        db.execute("SELECT count(*) FROM r WHERE a BETWEEN 15 AND 35")
        db.checkpoint()
        db.close()
        capsys.readouterr()
        assert main(["restore", str(state)]) == 0
        out = capsys.readouterr().out
        assert "snapshot loaded" in out
        assert "cracker r.a" in out

    def test_restore_bad_store_reports_cleanly(self, capsys, tmp_path):
        (tmp_path / "CURRENT").write_text("garbage\n")
        assert main(["restore", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_snapshot_sql_error_reports_cleanly(self, capsys, tmp_path):
        state = self._seed_store(tmp_path / "state")
        code = main(["restore", str(state), "-e", "SELECT * FROM ghost"])
        assert code == 1
        assert "unknown table" in capsys.readouterr().err

    def test_help_mentions_persistence(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "snapshot" in out
        assert "restore" in out


class TestServeSettings:
    """Settings under which ``repro serve`` would refuse all work are
    refused up front: one line naming the flag, before it listens."""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--port", "-1"),
            ("--port", "65536"),
            ("--max-connections", "0"),
            ("--statement-timeout", "0"),
            ("--statement-timeout", "-2.5"),
        ],
    )
    def test_cli_names_the_flag_before_listening(self, capsys, flag, value):
        assert main(["serve", flag, value]) == 2
        out, err = capsys.readouterr()
        assert "listening on" not in out
        assert err.count("\n") == 1 and flag in err

    @pytest.mark.parametrize(
        "setting, value",
        [
            ("port", -1),
            ("max_connections", 0),
            ("statement_timeout", 0),
            ("statement_timeout", -1.0),
        ],
    )
    def test_the_server_refuses_them_when_built(self, setting, value):
        from repro.server import ReproServer
        from repro.sql import Database

        with pytest.raises(errors.SettingError) as info:
            ReproServer(Database(), **{setting: value})
        assert info.value.setting == setting

    def test_max_pending_is_gone(self, capsys):
        from repro.server import ReproServer
        from repro.sql import Database

        with pytest.raises(TypeError):
            ReproServer(Database(), max_pending=1)
        with pytest.raises(SystemExit) as info:
            main(["serve", "--max-pending", "4"])
        assert info.value.code == 2
        assert "unrecognized arguments: --max-pending" in capsys.readouterr().err

    def test_pool_size_accepts_only_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["serve", "--pool-size", "4"])
        assert info.value.code == 2
        assert "worker pool was removed" in capsys.readouterr().err


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.StorageError,
            errors.BATTypeError,
            errors.BATAlignmentError,
            errors.HeapError,
            errors.PageError,
            errors.CatalogError,
            errors.PersistError,
            errors.TransactionError,
            errors.CrackError,
            errors.CrackerIndexError,
            errors.SQLError,
            errors.SQLSyntaxError,
            errors.SQLAnalysisError,
            errors.PlanError,
            errors.ExecutionError,
            errors.BenchmarkError,
        ],
    )
    def test_all_errors_are_repro_errors(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_storage_sub_hierarchy(self):
        assert issubclass(errors.BATTypeError, errors.StorageError)
        assert issubclass(errors.HeapError, errors.StorageError)
        assert issubclass(errors.PageError, errors.StorageError)

    def test_sql_sub_hierarchy(self):
        assert issubclass(errors.SQLSyntaxError, errors.SQLError)
        assert issubclass(errors.SQLAnalysisError, errors.SQLError)

    def test_cracker_index_error_is_crack_error(self):
        assert issubclass(errors.CrackerIndexError, errors.CrackError)

    def test_one_except_catches_everything(self):
        from repro.sql import Database

        db = Database()
        try:
            db.execute("SELECT * FROM ghost")
        except errors.ReproError as caught:
            assert isinstance(caught, errors.SQLAnalysisError)
        else:  # pragma: no cover
            pytest.fail("expected a ReproError")


class TestHikingExperiment:
    def test_hiking_run_shape(self):
        from repro.experiments import hiking

        result = hiking.run(n_rows=50_000, steps=16, sigma=0.05, seed=0)
        assert {s.label for s in result.series} == {"nocrack", "crack"}
        for series in result.series:
            assert len(series.y) == 16
            assert all(a <= b + 1e-12 for a, b in zip(series.y, series.y[1:]))

    def test_hiking_answers_fixed_width(self):
        from repro.benchmark.profiles import MQS, hiking_sequence
        from repro.benchmark.runner import run_sequence
        from repro.benchmark.tapestry import DBtapestry
        from repro.engines import DatabaseEngine

        engine = DatabaseEngine(cracking=True)
        engine.load(DBtapestry(20_000, seed=0).build_relation("R"))
        mqs = MQS(alpha=2, n=20_000, k=8, sigma=0.1)
        queries = hiking_sequence(mqs, attr="a", seed=0)
        result = run_sequence(engine, "R", queries)
        widths = {step.rows for step in result.steps}
        assert widths == {queries[0].high - queries[0].low + 1}
