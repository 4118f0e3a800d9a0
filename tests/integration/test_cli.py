"""Integration tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_simulate(self, capsys):
        code = main(["simulate", "--scenario", "office", "--days", "2",
                     "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "devices=" in out and "events=" in out

    def test_simulate_with_sqlite_out(self, capsys, tmp_path):
        out_path = str(tmp_path / "out.db")
        code = main(["simulate", "--scenario", "office", "--days", "1",
                     "--out", out_path])
        assert code == 0
        assert "persisted" in capsys.readouterr().out

    def test_locate_known_device(self, capsys):
        code = main(["locate", "--scenario", "dbh", "--days", "2",
                     "--population", "6", "--seed", "3",
                     "--mac", "dbh-mac0001", "--time", "120000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ground truth" in out

    def test_locate_unknown_device(self, capsys):
        code = main(["locate", "--scenario", "dbh", "--days", "1",
                     "--population", "4", "--seed", "3",
                     "--mac", "nope", "--time", "1000"])
        assert code == 2

    @pytest.mark.parametrize("time", ["nan", "inf", "-1"])
    def test_locate_rejects_a_bad_time(self, capsys, time):
        code = main(["locate", "--scenario", "dbh", "--days", "1",
                     "--population", "4", "--seed", "3",
                     "--mac", "dbh-mac0001", "--time", "1000",
                     "--time", time])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "finite and >= 0" in err

    def test_experiment_table2_smallest(self, capsys):
        code = main(["experiment", "table2", "--days", "4",
                     "--population", "8"])
        assert code == 0
        assert "Table 2" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
