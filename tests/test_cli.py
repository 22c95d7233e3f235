"""End-to-end command-line tests."""

import csv

import pytest

from orbitalmcmc.cli import main, parse_seeds


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_seed_count(self):
        assert parse_seeds("3") == [0, 1, 2]

    def test_seed_list(self):
        assert parse_seeds("4,7,9") == [4, 7, 9]

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert err


class TestDetect:
    def test_grid_reports_order_and_orbits(self, capsys):
        code, out, _ = run_cli(capsys, "detect", "--model", "grid", "--k", "3")
        assert code == 0
        assert "group order: 8" in out
        assert "configuration orbits: 102 (cardinalities: 1,2,4,8)" in out
        assert "burnside cross-check: 102 (agrees)" in out

    def test_cliques_orbits(self, capsys):
        code, out, _ = run_cli(capsys, "detect", "--model", "cliques", "--k", "3")
        assert code == 0
        assert "group order: 24" in out
        assert "configuration orbits: 70 (cardinalities: 1,4,6,12,24)" in out

    def test_clause_model(self, capsys, tmp_path):
        clause_file = tmp_path / "m.txt"
        clause_file.write_text("vars: a b c\n0.5 :: a | !c\n0.5 :: b | !c\n")
        code, out, _ = run_cli(capsys, "detect", "--model", "clauses",
                               "--clauses", str(clause_file))
        assert code == 0
        assert "(a b)" in out
        assert "variable orbits: 2" in out
        assert "feature orbits: 1" in out

    def test_writes_generators(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "detect", "--model", "grid", "--k", "3",
                               "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "generators.txt").exists()
        assert (out_dir / "config.resolved.txt").exists()


class TestGen:
    def test_graph_model(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gen", "--model", "grid", "--k", "3",
                               "--out", str(tmp_path))
        assert code == 0
        text = (tmp_path / "model.graph.txt").read_text().splitlines()
        assert text[0] == "9 12 1"

    def test_friends_smokers(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gen", "--model", "fs", "--people", "3",
                               "--evidence-fraction", "0.34",
                               "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "model.clauses.txt").exists()
        evidence = (tmp_path / "model.evidence.txt").read_text()
        assert evidence.count("=") == 1


class TestSampleAndExact:
    def test_sample_writes_traces(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "sample", "--model", "grid", "--k", "3",
                               "--chain", "id,orbital-id", "--steps", "200",
                               "--seeds", "2", "--mode", "exact",
                               "--out", str(tmp_path))
        assert code == 0
        for kind in ("id", "orbital-id"):
            for seed in (0, 1):
                path = tmp_path / f"trace_{kind}_seed{seed}.csv"
                rows = list(csv.reader(path.open()))
                assert rows[0] == ["step", "state"]
                assert len(rows) == 202

    def test_chain_model_mismatch(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sample", "--model", "grid", "--k", "3",
                               "--chain", "gibbs", "--steps", "10",
                               "--out", str(tmp_path))
        assert code == 1
        assert "does not match" in err

    def test_exact_outputs(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "exact", "--model", "complete",
                               "--k", "3", "--chain", "id,orbital-id",
                               "--out", str(tmp_path))
        assert code == 0
        pi_rows = list(csv.reader((tmp_path / "pi.csv").open()))
        assert len(pi_rows) == 11
        assert (tmp_path / "matrix_id.csv").exists()
        assert (tmp_path / "matrix_orbital-id.csv").exists()


class TestAnalysisCommands:
    def test_tvcurve(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "tvcurve", "--model", "complete",
                               "--k", "3", "--chain", "id,orbital-id",
                               "--steps", "2000", "--seeds", "1",
                               "--mode", "exact", "--out", str(tmp_path))
        assert code == 0
        rows = list(csv.reader((tmp_path / "tvcurve.csv").open()))
        assert rows[0] == ["samples", "d_tv", "chain_kind", "seed"]
        kinds = {r[2] for r in rows[1:]}
        assert kinds == {"id", "orbital-id"}

    def test_coupling(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "coupling", "--model", "grid", "--k", "3",
                               "--trials", "2000", "--out", str(tmp_path))
        assert code == 0
        assert "rho=" in out
        rows = list(csv.reader((tmp_path / "coupling.csv").open()))
        assert rows[0] == ["case", "count", "rho", "varrho", "drift", "bound"]
        assert len(rows) == 6

    def test_mix_with_bound(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "mix", "--model", "complete", "--k", "3",
                               "--chain", "orbital-id", "--out", str(tmp_path))
        assert code == 0
        assert "within=True" in out
        rows = (tmp_path / "mix.csv").read_text().splitlines()
        assert rows[0] == "chain_kind,epsilon,tau,bound,within_bound"
        assert len(rows) == 3

    def test_config_file_defaults(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("model=grid\nk=3\nsteps=100\nseeds=1\nmode=exact\n"
                          f"out={tmp_path / 'results'}\n")
        code, out, _ = run_cli(capsys, "--config", str(config), "sample")
        assert code == 0
        assert (tmp_path / "results" / "trace_id_seed0.csv").exists()
        resolved = (tmp_path / "results" / "config.resolved.txt").read_text()
        assert "steps=100" in resolved

    def test_config_values_are_typed(self, capsys, tmp_path):
        # float and list values from a config file must act like the flags
        config = tmp_path / "run.cfg"
        config.write_text("model=grid\nk=3\nepsilon=0.1,0.01\nlam=2\nseeds=0,3\n")
        runs = {"mix": (["--chain", "id"], ["--epsilon", "0.1,0.01"]),
                "sample": (["--steps", "50", "--mode", "exact"],
                           ["--seeds", "0,3"])}
        for command, (common, typed) in runs.items():
            via_config = tmp_path / f"{command}_config"
            via_flags = tmp_path / f"{command}_flags"
            code, _, _ = run_cli(capsys, "--config", str(config), command,
                                 *common, "--out", str(via_config))
            assert code == 0
            code, _, _ = run_cli(capsys, command, *common, "--model", "grid",
                                 "--k", "3", "--lambda", "2", *typed,
                                 "--out", str(via_flags))
            assert code == 0
            outputs = sorted(p.name for p in via_flags.iterdir())
            assert outputs == sorted(p.name for p in via_config.iterdir())
            for name in outputs:
                if name != "config.resolved.txt":
                    assert (via_config / name).read_text() == \
                        (via_flags / name).read_text()
            resolved = (via_config / "config.resolved.txt").read_text()
            assert "lam=2.0\n" in resolved
            assert "epsilon=0.1,0.01\n" in resolved
            assert "seeds=0,3\n" in resolved
        assert (tmp_path / "sample_config" / "trace_id_seed3.csv").exists()
        mix_rows = (tmp_path / "mix_config" / "mix.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in mix_rows[1:]] == ["0.1", "0.01"]

    def test_config_lambda_for_command_without_flag(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("model=grid\nk=3\nlam=2\n")
        code, out, _ = run_cli(capsys, "--config", str(config), "detect")
        assert code == 0
        assert "group order: 8" in out

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("model=grid\nk=3\nstepz=5\n")
        code, _, err = run_cli(capsys, "--config", str(config), "sample",
                               "--out", str(tmp_path / "o"))
        assert code == 1
        assert "stepz" in err
        assert not (tmp_path / "o").exists()


class TestExitCodes:
    def test_guard_exceeded(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("ORBITAL_GUARD", "5")
        code, _, err = run_cli(capsys, "exact", "--model", "grid", "--k", "3",
                               "--out", str(tmp_path / "o"))
        assert code == 2
        assert "guard" in err.lower()

    def test_detect_degrades_when_guarded(self, capsys, monkeypatch):
        monkeypatch.setenv("ORBITAL_GUARD", "5")
        code, out, _ = run_cli(capsys, "detect", "--model", "complete", "--k", "3")
        assert code == 0
        assert "not enumerated" in out
        assert "skipped" in out

    def test_infeasible_model(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("vars: a\ninf :: a\ninf :: !a\n")
        code, _, err = run_cli(capsys, "sample", "--model", "clauses",
                               "--clauses", str(bad), "--chain", "gibbs",
                               "--steps", "5", "--out", str(tmp_path / "o"))
        assert code == 3

    def test_hard_clause_scan_guarded(self, capsys, monkeypatch, tmp_path):
        # the first assignment satisfying all four unit clauses is number 15
        model = tmp_path / "units.txt"
        model.write_text("vars: a b c d\ninf :: a\ninf :: b\ninf :: c\ninf :: d\n")
        monkeypatch.setenv("ORBITAL_GUARD", "8")
        code, _, err = run_cli(capsys, "sample", "--model", "clauses",
                               "--clauses", str(model), "--chain", "gibbs",
                               "--steps", "5", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "guard" in err.lower()

    def test_feasible_model_zero_state_violates(self, capsys, tmp_path):
        model = tmp_path / "a.txt"
        model.write_text("inf :: a\n")
        code, _, _ = run_cli(capsys, "sample", "--model", "clauses",
                             "--clauses", str(model), "--chain", "gibbs",
                             "--steps", "20", "--out", str(tmp_path / "o"))
        assert code == 0
        with open(tmp_path / "o" / "trace_gibbs_seed0.csv") as fh:
            states = [row["state"] for row in csv.DictReader(fh)]
        assert states == ["1"] * 21

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "detect", "--model", "clauses",
                               "--clauses", str(tmp_path / "nope.txt"))
        assert code == 1
