"""End-to-end command-line tests."""

import csv
import hashlib
import warnings

import pytest

from orbitalmcmc import analysis, chains, clauses
from orbitalmcmc.analysis import representative_rows
from orbitalmcmc.autgroup import automorphism_generators
from orbitalmcmc.chains import IndependentSetModel
from orbitalmcmc.cli import main, parse_seeds
from orbitalmcmc.clauses import format_clause_file
from orbitalmcmc.families import gen_grid

from helpers import EXAMPLE_CLAUSES, HARD_PAIRS_TEXT


def csv_rows(path) -> list[list[str]]:
    """The rows of a CSV file the CLI wrote, read in a `with` block."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# `detect` on the files of `gen --model fs --people 4 --evidence-fraction 0.5
# --seed 1`: generators, order and every variable and feature orbit cell
FS4_EVIDENCE_DETECT = """\
model: clauses
domain size: 20
generators (2):
  (smokes_p0 smokes_p3)(cancer_p0 cancer_p3)(friends_p0_p1 friends_p3_p1)(friends_p0_p2 friends_p3_p2)(friends_p0_p3 friends_p3_p0)(friends_p1_p0 friends_p1_p3)(friends_p2_p0 friends_p2_p3)
  (smokes_p1 smokes_p2)(cancer_p1 cancer_p2)(friends_p0_p1 friends_p0_p2)(friends_p1_p0 friends_p2_p0)(friends_p1_p2 friends_p2_p1)(friends_p1_p3 friends_p2_p3)(friends_p3_p1 friends_p3_p2)
group order: 4
variable orbits: 8
  {smokes_p0 smokes_p3}
  {smokes_p1 smokes_p2}
  {cancer_p0 cancer_p3}
  {cancer_p1 cancer_p2}
  {friends_p0_p1 friends_p0_p2 friends_p3_p1 friends_p3_p2}
  {friends_p0_p3 friends_p3_p0}
  {friends_p1_p0 friends_p1_p3 friends_p2_p0 friends_p2_p3}
  {friends_p1_p2 friends_p2_p1}
feature orbits: 22
  {c0 c9}
  {c1 c10}
  {c2 c11}
  {c3 c6}
  {c4 c7}
  {c5 c8}
  {c12 c16 c52 c56}
  {c13 c17 c53 c57}
  {c14 c18 c54 c58}
  {c15 c19 c55 c59}
  {c20 c48}
  {c21 c49}
  {c22 c50}
  {c23 c51}
  {c24 c32 c36 c44}
  {c25 c33 c37 c45}
  {c26 c34 c38 c46}
  {c27 c35 c39 c47}
  {c28 c40}
  {c29 c41}
  {c30 c42}
  {c31 c43}
"""


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

    def test_fs4_evidence_stdout(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "gen", "--model", "fs", "--people", "4",
                             "--evidence-fraction", "0.5", "--seed", "1",
                             "--out", str(tmp_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "detect", "--model", "clauses",
                               "--clauses", str(tmp_path / "model.clauses.txt"),
                               "--evidence", str(tmp_path / "model.evidence.txt"))
        assert code == 0
        assert out == FS4_EVIDENCE_DETECT

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
                rows = csv_rows(path)
                assert rows[0] == ["step", "state"]
                assert len(rows) == 202

    def test_trace_csv(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sample", "--model", "grid", "--k", "3",
                             "--steps", "5", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "trace_id_seed0.csv").read_text().strip().splitlines()
        assert lines[0] == "step,state"
        assert len(lines) == 7

    def test_chain_model_mismatch(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sample", "--model", "grid", "--k", "3",
                               "--chain", "gibbs", "--steps", "10",
                               "--out", str(tmp_path))
        assert code == 1
        assert "does not match" in err

    @pytest.mark.parametrize("command", ["sample", "exact", "tvcurve", "mix"])
    @pytest.mark.parametrize("chain,message", [
        ("foo", "unknown chain 'foo'"),
        ("id,gibbs", "chain gibbs does not match model grid: "
                     "gibbs chains do not run on IndependentSetModel")])
    def test_chain_rejected_before_writing(self, capsys, tmp_path, command, chain, message):
        code, _, err = run_cli(capsys, command, "--model", "grid", "--k", "3",
                               "--chain", chain, "--out", str(tmp_path / "o"))
        assert code == 1
        assert message in err
        assert not (tmp_path / "o").exists()

    def test_exact_outputs(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "exact", "--model", "complete",
                               "--k", "3", "--chain", "id,orbital-id",
                               "--out", str(tmp_path))
        assert code == 0
        pi_rows = csv_rows(tmp_path / "pi.csv")
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
        rows = csv_rows(tmp_path / "tvcurve.csv")
        assert rows[0] == ["samples", "d_tv", "chain_kind", "seed"]
        kinds = {r[2] for r in rows[1:]}
        assert kinds == {"id", "orbital-id"}

    def test_coupling(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "coupling", "--model", "grid", "--k", "3",
                               "--trials", "2000", "--out", str(tmp_path))
        assert code == 0
        assert "rho=" in out
        rows = csv_rows(tmp_path / "coupling.csv")
        assert rows[0] == ["case", "count", "rho", "varrho", "drift", "bound"]
        assert len(rows) == 6

    def test_coupling_rejects_a_seed_count(self, capsys, tmp_path):
        # --seeds 3 means seeds 0, 1, 2; coupling runs one seed
        code, _, err = run_cli(capsys, "coupling", "--model", "grid", "--k", "3",
                               "--trials", "10", "--seeds", "3",
                               "--out", str(tmp_path / "o"))
        assert code == 1
        assert "--seeds 42," in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_coupling_rejects_no_trials_before_writing(self, capsys, tmp_path, trials):
        code, _, err = run_cli(capsys, "coupling", "--model", "grid", "--k", "3",
                               "--trials", trials, "--out", str(tmp_path / "o"))
        assert code == 1
        assert "--trials" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,flags", [
        ("sample", ["--steps", "-1"]), ("sample", ["--record-every", "0"]),
        ("sample", ["--record-every", "-2"]), ("tvcurve", ["--steps", "-1"])])
    def test_run_length_rejected_before_writing(self, capsys, tmp_path, command, flags):
        code, _, err = run_cli(capsys, command, "--model", "grid", "--k", "3", *flags,
                               "--out", str(tmp_path / "o"))
        assert code == 1
        assert flags[0] in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [
        ["gen", "--model", "grid", "--k", "1"],
        ["gen", "--model", "fs", "--people", "1"],
        ["mix", "--model", "grid", "--k", "3", "--epsilon", "0,0.1"],
        ["mix", "--model", "grid", "--k", "3", "--epsilon", "0.1,1"],
        ["sample", "--model", "grid", "--k", "3", "--lambda", "0"],
        ["sample", "--model", "grid", "--k", "3", "--lambda", "-1.5"],
        ["gen", "--model", "fs", "--evidence-fraction", "1.5"],
        ["gen", "--model", "fs", "--evidence-fraction", "-0.1"],
        ["gen", "--model", "fs", "--evidence-fraction", "nan"],
        ["sample", "--model", "grid", "--k", "3", "--lambda", "inf"],
        ["coupling", "--model", "grid", "--k", "3", "--lambda", "inf"],
        ["exact", "--model", "grid", "--k", "3", "--lambda", "nan"]])
    def test_model_parameters_rejected_before_writing(self, capsys, tmp_path, args):
        code, _, err = run_cli(capsys, *args, "--out", str(tmp_path / "o"))
        assert code == 1
        assert args[-2] in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args,message", [
        (["sample", "--lambda", "abc"],
         "argument --lambda: must be finite and positive, got abc"),
        (["sample", "--steps", "abc"], "argument --steps: must be at least 0, got abc"),
        (["mix", "--epsilon", "0.1,abc"],
         "argument --epsilon: must be values in (0, 1), got 0.1,abc")])
    def test_cast_failure_reads_like_accept_failure(self, capsys, tmp_path, args, message):
        code, _, err = run_cli(capsys, args[0], "--model", "grid", "--k", "3", *args[1:],
                               "--out", str(tmp_path / "o"))
        assert code == 1
        assert message in err
        assert "invalid" not in err
        assert not (tmp_path / "o").exists()

    def test_coupling_rejects_a_clause_model_before_writing(self, capsys, tmp_path):
        clause_file = tmp_path / "m.txt"
        clause_file.write_text(format_clause_file(EXAMPLE_CLAUSES))
        code, _, err = run_cli(capsys, "coupling", "--model", "clauses",
                               "--clauses", str(clause_file), "--seeds", "0,",
                               "--out", str(tmp_path / "o"))
        assert code == 1
        assert "orbital-id chains do not run on ClauseModel" in err
        assert not (tmp_path / "o").exists()

    def test_mix_with_hard_clauses(self, capsys, tmp_path):
        # two hard pairs: Gibbs kernels whose moves skip barred values
        clause_file = tmp_path / "m.txt"
        clause_file.write_text(HARD_PAIRS_TEXT)
        code, out, _ = run_cli(capsys, "mix", "--model", "clauses",
                               "--clauses", str(clause_file),
                               "--chain", "gibbs,orbital-gibbs", "--out", str(tmp_path / "o"))
        assert code == 0
        for kind, taus in (("gibbs", (19, 41)), ("orbital-gibbs", (7, 15))):
            for eps, tau in zip(("0.1", "0.01"), taus):
                assert f"{kind} eps={eps}: tau={tau}\n" in out

    def test_coupling_runs_the_listed_seed(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "coupling", "--model", "grid", "--k", "3",
                               "--trials", "3000", "--seeds", "42,",
                               "--out", str(tmp_path))
        assert code == 0
        graph = gen_grid(3)
        report = analysis.coupling_drift(IndependentSetModel(graph, 1.0),
                                         automorphism_generators(graph),
                                         trials=3000, seed=42)
        assert f"measured drift {report.expected_drift:.6f} " in out

    def test_coupling_on_complete_model(self, capsys, tmp_path):
        # K_9: the coalescence test must not scan the 9! group elements
        code, out, _ = run_cli(capsys, "coupling", "--model", "complete", "--k", "3",
                               "--trials", "2000", "--out", str(tmp_path))
        assert code == 0
        assert ": ok" in out

    def test_mix_with_bound(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "mix", "--model", "complete", "--k", "3",
                               "--chain", "orbital-id", "--out", str(tmp_path))
        assert code == 0
        assert "within=True" in out
        rows = (tmp_path / "mix.csv").read_text().splitlines()
        assert rows[0] == "chain_kind,epsilon,tau,bound,within_bound"
        assert len(rows) == 3

    def test_orbital_mix_on_the_quotient(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "mix", "--model", "cliques", "--k", "4",
                               "--chain", "orbital-id", "--epsilon", "0.1,0.01",
                               "--out", str(tmp_path))
        assert code == 0
        assert "orbital-id eps=0.1: tau=115" in out
        assert "orbital-id eps=0.01: tau=236" in out

    def test_base_mix_on_representative_rows(self, capsys, monkeypatch, tmp_path):
        calls = []

        def spy(matrix):
            calls.append(len(matrix.space.states))
            return representative_rows(matrix)

        monkeypatch.setattr(analysis, "representative_rows", spy)
        code, out, _ = run_cli(capsys, "mix", "--model", "cliques", "--k", "4",
                               "--chain", "id", "--epsilon", "0.1,0.01",
                               "--out", str(tmp_path))
        assert code == 0
        assert calls == [1267]  # one reduction per kernel, not per eps
        assert "id eps=0.1: tau=115" in out
        assert "id eps=0.01: tau=236" in out

    def test_mix_with_the_trivial_group(self, capsys, tmp_path):
        # an asymmetric model reaches mixing_time with a generator-free action
        clause_file = tmp_path / "m.txt"
        clause_file.write_text("vars: a b\n0.5 :: a\n")
        code, out, _ = run_cli(capsys, "mix", "--model", "clauses",
                               "--clauses", str(clause_file),
                               "--chain", "gibbs,orbital-gibbs", "--epsilon", "0.1,0.01",
                               "--out", str(tmp_path / "mix"))
        assert code == 0
        for kind in ("gibbs", "orbital-gibbs"):
            assert f"{kind} eps=0.1: tau=3" in out
            assert f"{kind} eps=0.01: tau=6" in out

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
        # each command resolves the keys of its own flags only
        lines = {"mix": ("epsilon=0.1,0.01\n", "seeds="), "sample": ("seeds=0,3\n", "epsilon=")}
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
            own, other = lines[command]
            assert "lam=2.0\n" in resolved and own in resolved
            assert other not in resolved
        assert (tmp_path / "sample_config" / "trace_id_seed3.csv").exists()
        mix_rows = (tmp_path / "mix_config" / "mix.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in mix_rows[1:]] == ["0.1", "0.01"]

    def test_config_lambda_for_command_without_flag(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("model=grid\nk=3\nlam=2\n")
        code, out, _ = run_cli(capsys, "--config", str(config), "detect")
        assert code == 0
        assert "group order: 8" in out

    def test_config_keys_reach_only_commands_with_the_flag(self, capsys, tmp_path):
        # detect has no --lambda: a config lam neither reaches it nor is resolved
        config = tmp_path / "run.cfg"
        config.write_text("model=grid\nk=3\nlam=2\n")
        code, _, _ = run_cli(capsys, "--config", str(config), "detect",
                             "--out", str(tmp_path / "detect"))
        assert code == 0
        resolved = (tmp_path / "detect" / "config.resolved.txt").read_text().splitlines()
        assert "model=grid" in resolved
        assert not [line for line in resolved if line.startswith("lam=")]

    def test_config_evidence_reaches_only_commands_with_the_flag(self, capsys, tmp_path):
        # gen has no --evidence, so the key is not its own; mix has, and
        # evidence on a graph model is a usage error there
        (tmp_path / "e.txt").write_text("a=true\n")
        config = tmp_path / "run.cfg"
        config.write_text(f"model=grid\nk=3\nevidence={tmp_path / 'e.txt'}\n")
        code, _, _ = run_cli(capsys, "--config", str(config), "gen",
                             "--out", str(tmp_path / "gen"))
        assert code == 0
        assert (tmp_path / "gen" / "model.graph.txt").exists()
        code, _, err = run_cli(capsys, "--config", str(config), "mix",
                               "--out", str(tmp_path / "mix"))
        assert code == 1
        assert "--evidence is for --model clauses only, not grid" in err
        assert not (tmp_path / "mix").exists()

    def test_config_comment_and_blank_lines_skipped(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# the 3 x 3 grid\nmodel=grid\n\n  # k is its side\nk=3\n")
        code, out, _ = run_cli(capsys, "--config", str(config), "detect")
        assert code == 0
        assert "group order: 8" in out

    def test_config_lambda_must_be_finite(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("model=grid\nk=3\nlam=inf\n")
        code, _, err = run_cli(capsys, "--config", str(config), "sample",
                               "--out", str(tmp_path / "o"))
        assert code == 1
        assert "argument --lambda: must be finite and positive, got inf" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--steps", "20", "--seeds", "5,", "--record-every", "2"],
        ["tvcurve", "--chain", "id,orbital-id", "--steps", "200", "--seeds", "0,2",
         "--mode", "exact"],
        ["coupling", "--trials", "500", "--seeds", "42,"],
        ["mix", "--chain", "id", "--epsilon", "0.05"]])
    def test_resolved_config_reproduces_its_run(self, capsys, tmp_path, argv):
        first, again = tmp_path / "first", tmp_path / "again"
        code, _, _ = run_cli(capsys, *argv, "--model", "grid", "--k", "3", "--lambda", "2",
                             "--out", str(first))
        assert code == 0
        code, _, _ = run_cli(capsys, "--config", str(first / "config.resolved.txt"),
                             argv[0], "--out", str(again))
        assert code == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        assert [name for name in names if name.endswith(".csv")]
        for name in names:
            if name != "config.resolved.txt":
                assert (again / name).read_bytes() == (first / name).read_bytes()
        resolved = (again / "config.resolved.txt").read_text()
        assert resolved == (first / "config.resolved.txt").read_text().replace(
            f"out={first}\n", f"out={again}\n")

    @pytest.mark.parametrize("command,flag,value", [
        ("tvcurve", "--seeds", "1,1"), ("sample", "--seeds", "4,0,4"),
        ("mix", "--chain", "id,id"), ("mix", "--epsilon", "0.1,0.1")])
    def test_repeated_list_value_rejected_before_writing(self, capsys, tmp_path, command,
                                                         flag, value):
        code, _, err = run_cli(capsys, command, "--model", "grid", "--k", "3",
                               flag, value, "--out", str(tmp_path / "o"))
        assert code == 1
        assert f"{flag} lists a value twice: {value}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["sample", "tvcurve", "mix"])
    @pytest.mark.parametrize("chain", [",", ""], ids=["comma", "empty"])
    def test_empty_chain_list_rejected_before_writing(self, capsys, tmp_path, command, chain):
        code, out, err = run_cli(capsys, command, "--model", "grid", "--k", "2",
                                 "--chain", chain, "--out", str(tmp_path / "o"))
        assert code == 1 and out == ""
        assert err == f"--chain lists no chain kind: {chain!r}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["sample", "tvcurve", "mix"])
    def test_empty_config_chain_rejected_before_writing(self, capsys, tmp_path, command):
        config = tmp_path / "run.cfg"
        config.write_text("model=grid\nk=2\nchain=\n")
        code, _, err = run_cli(capsys, "--config", str(config), command,
                               "--out", str(tmp_path / "o"))
        assert code == 1
        assert "--chain lists no chain kind: ''" in err
        assert not (tmp_path / "o").exists()

    def test_exact_with_no_chain_writes_pi_alone(self, capsys, monkeypatch, tmp_path):
        # grid 4's 1,234 states fit the cap of 2,000, its dense kernels do not
        monkeypatch.setenv("ORBITAL_GUARD", "2000")
        code, _, _ = run_cli(capsys, "exact", "--model", "grid", "--k", "4",
                             "--chain", ",", "--out", str(tmp_path / "o"))
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
            "config.resolved.txt", "pi.csv"]
        assert len(csv_rows(tmp_path / "o" / "pi.csv")) == 1 + 1234

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("model=grid\nk=3\nstepz=5\n")
        code, _, err = run_cli(capsys, "--config", str(config), "sample",
                               "--out", str(tmp_path / "o"))
        assert code == 1
        assert "stepz" in err
        assert not (tmp_path / "o").exists()


# SHA-256 of each CSV file the runs below write, as the package wrote them
# before every result file went through cli.write_csv; mix.csv's lines then
# ended in LF and were recorded here after their change to CR LF
RESULT_DIGESTS = {
    "sample/trace_id_seed0.csv":
        "a30b5815516d0a272a0d26dacd3e3f2a4435e106f245059a705dedff6744349a",
    "sample/trace_id_seed1.csv":
        "c56e266565a1c66559ab841aa21d42945e2a460941278cb05a91f0ff959681c6",
    "sample/trace_orbital-id_seed0.csv":
        "13a75ebe3c5c7fe20c9a8c3cb7f7db844f36fcfa6dd70d62759ac622ad0b0c58",
    "sample/trace_orbital-id_seed1.csv":
        "f3fbc3669daf2c6af7e45157ce5819c304e36a0b1dafac626d6ca76afb10c57d",
    "exact-cliques/matrix_id.csv":
        "0fa1008fb43c414497a9a9124929da47788939e35322aa1ec5630e83360ec154",
    "exact-cliques/matrix_orbital-id.csv":
        "47d7d8212a37595688d5ea73dfc21664dba92212b5fbe148ba74e488bcba2a86",
    "exact-cliques/pi.csv":
        "55780a81f6dfbb573c13501222db54422609962417e58f054030a8550f970f63",
    "exact-clauses/matrix_gibbs.csv":
        "f429217c738c6c9cb5b5e7b1d1524a3fe97bd5893995b5e5cbb248cb0c42089e",
    "exact-clauses/matrix_orbital-gibbs.csv":
        "a96f1dd0961942b175cfd9d3d1b8831fa5b65f46a64ce44664a8f25121c0e4b8",
    "exact-clauses/pi.csv":
        "54c21b9b84589e18ba5f142f3403711147c3667d2c078590f129870f1701543b",
    "tvcurve/tvcurve.csv":
        "4dd68bef398fcb78df3c87c2db0ab232f49dbac665b8760d33e5b23d65157aab",
    "coupling/coupling.csv":
        "3760b4f10cd992a82a6013df9d039f223692b44f1b9ea85361fa5eb385d6f352",
    "mix/mix.csv":
        "0ab855b1a9ac299de25533427943fc2ad3962bc9502e9572143680a3454c6343",
}


class TestResultFiles:
    def test_csv_digests(self, capsys, tmp_path):
        clause_file = tmp_path / "example.clauses.txt"
        clause_file.write_text(format_clause_file(EXAMPLE_CLAUSES))
        grid = ["--model", "grid", "--k", "3"]
        runs = {
            "sample": ["sample", *grid, "--chain", "id,orbital-id", "--steps", "300",
                       "--seeds", "2", "--record-every", "3"],
            "exact-cliques": ["exact", "--model", "cliques", "--k", "3",
                              "--chain", "id,orbital-id"],
            "exact-clauses": ["exact", "--model", "clauses", "--clauses", str(clause_file),
                              "--chain", "gibbs,orbital-gibbs"],
            "tvcurve": ["tvcurve", *grid, "--steps", "2000", "--seeds", "2"],
            "coupling": ["coupling", *grid, "--trials", "2000"],
            "mix": ["mix", "--model", "complete", "--k", "2", "--chain", "id,orbital-id"],
        }
        digests = {}
        for name, argv in runs.items():
            code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / name))
            assert code == 0
            for path in (tmp_path / name).glob("*.csv"):
                digests[f"{name}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
        assert digests == RESULT_DIGESTS


def trace_states(path) -> list[str]:
    with open(path) as fh:
        return [row["state"] for row in csv.DictReader(fh)]


class TestEvidence:
    def test_sample_keeps_evidence(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "gen", "--model", "fs", "--people", "3",
                             "--evidence-fraction", "0.3", "--seed", "1",
                             "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "model.evidence.txt").read_text() == "smokes_p0=false\n"
        code, _, _ = run_cli(capsys, "sample", "--model", "clauses",
                             "--clauses", str(tmp_path / "model.clauses.txt"),
                             "--evidence", str(tmp_path / "model.evidence.txt"),
                             "--chain", "gibbs,orbital-gibbs", "--steps", "2000",
                             "--out", str(tmp_path / "o"))
        assert code == 0
        for kind in ("gibbs", "orbital-gibbs"):
            states = trace_states(tmp_path / "o" / f"trace_{kind}_seed0.csv")
            assert len(states) == 2001
            # smokes_p0 is the first variable
            assert sum(s[0] == "1" for s in states) == 0

    def test_exact_conditions_pi(self, capsys, tmp_path):
        run_cli(capsys, "gen", "--model", "fs", "--people", "3",
                "--evidence-fraction", "0.3", "--seed", "1", "--out", str(tmp_path))
        code, out, _ = run_cli(capsys, "exact", "--model", "clauses",
                               "--clauses", str(tmp_path / "model.clauses.txt"),
                               "--evidence", str(tmp_path / "model.evidence.txt"),
                               "--chain", "gibbs", "--out", str(tmp_path / "o"))
        assert code == 0
        # 12 variables, one clamped: half of the 4096 assignments
        assert "(2048 states" in out
        rows = csv_rows(tmp_path / "o" / "pi.csv")
        assert len(rows) == 1 + 2048
        assert all(row[0][0] == "0" for row in rows[1:])

    def test_evidence_against_hard_clause_is_infeasible(self, capsys, tmp_path):
        (tmp_path / "m.txt").write_text("inf :: a\n")
        (tmp_path / "ev.txt").write_text("a=false\n")
        code, _, err = run_cli(capsys, "sample", "--model", "clauses",
                               "--clauses", str(tmp_path / "m.txt"),
                               "--evidence", str(tmp_path / "ev.txt"),
                               "--chain", "gibbs", "--steps", "5",
                               "--out", str(tmp_path / "o"))
        assert code == 3
        assert "infeasible" in err
        assert not (tmp_path / "o").exists()

    def test_clamped_variables_leave_the_scan(self, capsys, monkeypatch, tmp_path):
        # without evidence this scan stops at the cap (exit 2, see below)
        (tmp_path / "units.txt").write_text(
            "vars: a b c d\ninf :: a\ninf :: b\ninf :: c\ninf :: d\n")
        (tmp_path / "ev.txt").write_text("a=true\nb=true\nc=true\nd=true\n")
        monkeypatch.setenv("ORBITAL_GUARD", "8")
        code, _, _ = run_cli(capsys, "sample", "--model", "clauses",
                             "--clauses", str(tmp_path / "units.txt"),
                             "--evidence", str(tmp_path / "ev.txt"),
                             "--chain", "gibbs,orbital-gibbs", "--steps", "20",
                             "--out", str(tmp_path / "o"))
        assert code == 0
        for kind in ("gibbs", "orbital-gibbs"):
            states = trace_states(tmp_path / "o" / f"trace_{kind}_seed0.csv")
            assert states == ["1111"] * 21

    def test_mix_and_tvcurve_with_evidence(self, capsys, tmp_path):
        (tmp_path / "m.txt").write_text("vars: a b c\n0.5 :: a | !c\n0.5 :: b | !c\n")
        (tmp_path / "ev.txt").write_text("c=true\n")
        model = ["--model", "clauses", "--clauses", str(tmp_path / "m.txt"),
                 "--evidence", str(tmp_path / "ev.txt"),
                 "--chain", "gibbs,orbital-gibbs"]
        code, out, _ = run_cli(capsys, "mix", *model, "--out", str(tmp_path / "mix"))
        assert code == 0
        assert out.count("tau=") == 4
        code, out, _ = run_cli(capsys, "tvcurve", *model, "--steps", "200",
                               "--out", str(tmp_path / "tv"))
        assert code == 0
        assert out.count("final d_tv") == 2


class TestLazyDetection:
    """Clause-model detection runs only when a command needs the group."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = clauses.model_symmetry_group

        def counted(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(clauses, "model_symmetry_group", counted)
        return seen

    @pytest.mark.parametrize("chain,message", [
        ("foo", "unknown chain 'foo'"),
        ("id", "chain id does not match model clauses")])
    def test_kind_rejected_before_detection(self, capsys, tmp_path, calls, chain, message):
        (tmp_path / "m.txt").write_text(format_clause_file(EXAMPLE_CLAUSES))
        code, _, err = run_cli(capsys, "sample", "--model", "clauses",
                               "--clauses", str(tmp_path / "m.txt"), "--chain", chain,
                               "--out", str(tmp_path / "o"))
        assert code == 1
        assert message in err
        assert calls == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,chain,detections", [
        ("sample", "gibbs", 0), ("exact", "gibbs", 0), ("tvcurve", "gibbs", 0),
        ("sample", "orbital-gibbs", 1), ("sample", "gibbs,orbital-gibbs", 1),
        ("mix", "gibbs", 1)])
    def test_detection_only_for_a_group(self, capsys, tmp_path, calls, command, chain,
                                        detections):
        (tmp_path / "m.txt").write_text(format_clause_file(EXAMPLE_CLAUSES))
        steps = ["--steps", "20"] if command in ("sample", "tvcurve") else []
        code, _, _ = run_cli(capsys, command, "--model", "clauses",
                             "--clauses", str(tmp_path / "m.txt"), "--chain", chain,
                             *steps, "--out", str(tmp_path / "o"))
        assert code == 0
        assert len(calls) == detections

    def test_unknown_evidence_variable_before_writing(self, capsys, tmp_path):
        (tmp_path / "m.txt").write_text(format_clause_file(EXAMPLE_CLAUSES))
        (tmp_path / "ev.txt").write_text("d=true\n")
        code, _, err = run_cli(capsys, "sample", "--model", "clauses",
                               "--clauses", str(tmp_path / "m.txt"),
                               "--evidence", str(tmp_path / "ev.txt"),
                               "--chain", "gibbs", "--out", str(tmp_path / "o"))
        assert code == 1
        assert "unknown variable 'd'" in err
        assert not (tmp_path / "o").exists()


class TestExitCodes:
    @pytest.mark.parametrize("guard,message", [
        ("abc", "ORBITAL_GUARD must be an integer, got 'abc'"),
        ("0", "ORBITAL_GUARD must be positive, got 0")])
    def test_bad_guard_exits_before_writing(self, capsys, monkeypatch, tmp_path,
                                            guard, message):
        monkeypatch.setenv("ORBITAL_GUARD", guard)
        code, _, err = run_cli(capsys, "mix", "--model", "grid", "--out", str(tmp_path / "x"))
        assert code == 1
        assert err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_guard_exceeded(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("ORBITAL_GUARD", "5")
        code, _, err = run_cli(capsys, "exact", "--model", "grid", "--k", "3",
                               "--out", str(tmp_path / "o"))
        assert code == 2
        assert "guard" in err.lower()

    @pytest.mark.parametrize("command", ["exact", "tvcurve", "mix"])
    def test_guarded_enumeration_writes_nothing(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.setenv("ORBITAL_GUARD", "5")
        code, _, err = run_cli(capsys, command, "--model", "grid", "--k", "3",
                               "--out", str(tmp_path / "o"))
        assert code == 2
        assert "guard" in err.lower()
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("guard,argv,message", [
        pytest.param("1000000", ["sample", "--model", "complete", "--k", "4",
                                 "--chain", "orbital-id", "--mode", "exact", "--steps", "50"],
                     "group of order 20922789888000 exceeds enumeration cap 1000000",
                     id="sample-exact-k16"),
        pytest.param("1000", ["sample", "--model", "complete", "--k", "3",
                              "--chain", "id,orbital-id", "--mode", "exact", "--steps", "50"],
                     "group of order 362880 exceeds enumeration cap 1000",
                     id="sample-exact-after-a-base-chain"),
        pytest.param("1000", ["tvcurve", "--model", "complete", "--k", "3",
                              "--chain", "id,orbital-id", "--mode", "exact", "--steps", "50"],
                     "group of order 362880 exceeds enumeration cap 1000",
                     id="tvcurve-exact-after-a-base-chain"),
        pytest.param("100", ["coupling", "--model", "grid", "--k", "4"],
                     "more than 100 independent sets (cap exceeded)", id="coupling-grid4")])
    def test_guarded_run_writes_nothing(self, capsys, monkeypatch, tmp_path, guard, argv,
                                        message):
        # each guard exit comes before the first result file, so --out is never made
        monkeypatch.setenv("ORBITAL_GUARD", guard)
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "o"))
        assert code == 2
        assert err == f"guard exceeded: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["exact", "tvcurve", "mix"])
    def test_missing_out_exits_before_enumeration(self, capsys, monkeypatch, command):
        def enumerated(model):
            raise AssertionError("enumerated before checking --out")

        monkeypatch.setattr(analysis, "exact_distribution", enumerated)
        code, _, err = run_cli(capsys, command, "--model", "grid", "--k", "3")
        assert code == 1
        assert "--out is required" in err

    @pytest.mark.parametrize("command,module,name", [
        pytest.param("sample", chains, "run_chain", id="sample"),
        pytest.param("coupling", analysis, "coupling_drift", id="coupling")])
    def test_missing_out_exits_before_running(self, capsys, monkeypatch, command, module,
                                              name):
        def ran(*args, **kwargs):
            raise AssertionError(f"{name} ran before checking --out")

        monkeypatch.setattr(module, name, ran)
        code, _, err = run_cli(capsys, command, "--model", "grid", "--k", "3")
        assert code == 1
        assert "--out is required" in err

    @pytest.mark.parametrize("command", ["exact", "mix"])
    def test_dense_kernel_guarded_by_memory(self, capsys, monkeypatch, tmp_path, command):
        # grid 4 has 1,234 states, under the cap; its kernel exceeds 64 x 2,000 cells
        monkeypatch.setenv("ORBITAL_GUARD", "2000")
        code, _, err = run_cli(capsys, command, "--model", "grid", "--k", "4",
                               "--out", str(tmp_path / "o"))
        assert code == 2
        assert "1234 x 1234 kernel" in err

    def test_cliques_five_stops_at_the_dense_kernel(self, capsys, tmp_path):
        # 25 vertices enumerate (19,721 states); the dense kernel is refused
        code, _, err = run_cli(capsys, "mix", "--model", "cliques", "--k", "5",
                               "--chain", "orbital-id", "--epsilon", "0.1",
                               "--out", str(tmp_path / "o"))
        assert code == 2
        assert "19721 x 19721 kernel" in err
        assert not (tmp_path / "o").exists()

    def test_guarded_exact_leaves_no_out(self, capsys, monkeypatch, tmp_path):
        # grid 4's 1,234 states enumerate under the cap; pi.csv is not written
        monkeypatch.setenv("ORBITAL_GUARD", "2000")
        code, _, err = run_cli(capsys, "exact", "--model", "grid", "--k", "4",
                               "--out", str(tmp_path / "o"))
        assert code == 2
        assert "1234 x 1234 kernel" in err
        assert not (tmp_path / "o").exists()

    def test_detect_degrades_when_guarded(self, capsys, monkeypatch):
        # the order needs no enumeration; the 2^9 configurations exceed the cap
        monkeypatch.setenv("ORBITAL_GUARD", "5")
        code, out, _ = run_cli(capsys, "detect", "--model", "complete", "--k", "3")
        assert code == 0
        assert "group order: 362880" in out.splitlines()
        assert "configuration orbits: skipped (guard exceeded)" in out.splitlines()
        assert "burnside" not in out

    def test_detect_skips_burnside_past_the_cap(self, capsys, monkeypatch):
        # the 512 configurations fit under the cap, the 362,880 elements do not
        monkeypatch.setenv("ORBITAL_GUARD", "1000")
        code, out, _ = run_cli(capsys, "detect", "--model", "complete", "--k", "3")
        assert code == 0
        lines = out.splitlines()
        assert "group order: 362880" in lines
        assert [ln for ln in lines if ln.startswith("configuration orbits")] == [
            "configuration orbits: 10 (cardinalities: 1,9,36,84,126)"]
        assert "burnside cross-check: skipped (guard exceeded)" in lines

    @pytest.mark.parametrize("text", ["vars: a b\n² :: a | b\n",
                                      "vars: a b\n12 :: a\n١٢ :: b\n"],
                             ids=["superscript-two", "arabic-indic-twelve"])
    def test_non_ascii_weight_exits_before_writing(self, capsys, tmp_path, text):
        # str.isdigit accepts both: float() rejects '²', and '١٢' would color apart from 12
        (tmp_path / "m.txt").write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "detect", "--model", "clauses",
                               "--clauses", str(tmp_path / "m.txt"),
                               "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith("error: not a decimal weight: ")
        assert not (tmp_path / "o").exists()

    def test_infeasible_model(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("vars: a\ninf :: a\ninf :: !a\n")
        code, _, err = run_cli(capsys, "sample", "--model", "clauses",
                               "--clauses", str(bad), "--chain", "gibbs",
                               "--steps", "5", "--out", str(tmp_path / "o"))
        assert code == 3
        assert not (tmp_path / "o").exists()

    def test_overflowing_weights_exit_one(self, capsys, tmp_path):
        # e^800 overflows a float: no NaN pi is written, and the exit
        # message is the only report of it, no numpy warning
        model = tmp_path / "big.txt"
        model.write_text("vars: a b\n800 :: a | b\n1 :: !a\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "exact", "--model", "clauses",
                                   "--clauses", str(model), "--chain", "gibbs",
                                   "--out", str(tmp_path / "o"))
        assert code == 1
        assert "weights overflow" in err
        assert not (tmp_path / "o" / "pi.csv").exists()

    @pytest.mark.parametrize("text", [
        # every weight subnormal: pi(a=1) would read 0.625, not 0.62246
        "vars: a\n-740 :: a\n-740.5 :: !a\n",
        # every weight 0, so Z is 0
        "vars: a b\n-800 :: a\n-800 :: !a\n"], ids=["subnormal", "zero"])
    def test_underflowing_weights_exit_one(self, capsys, tmp_path, text):
        model = tmp_path / "small.txt"
        model.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "exact", "--model", "clauses",
                                   "--clauses", str(model), "--chain", "gibbs",
                                   "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith("error: state weights underflow: the largest is ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,flags", [("sample", ["--steps", "2000"]), ("exact", [])])
    def test_soft_weight_sum_past_a_float_exits_one(self, capsys, tmp_path, command, flags):
        # 10^400 is inf as a float: a's Gibbs conditional would be NaN, so
        # sample would never set a = 1, where pi puts almost all its mass
        model = tmp_path / "huge.txt"
        model.write_text("vars: a b\n1" + "0" * 400 + " :: a\n1 :: b\n")
        code, out, err = run_cli(capsys, command, "--model", "clauses",
                                 "--clauses", str(model), "--chain", "gibbs", *flags,
                                 "--out", str(tmp_path / "o"))
        assert code == 1 and out == ""
        assert err == "error: the soft weights of variable a sum past the float range\n"
        assert not (tmp_path / "o").exists()

    def test_soft_weight_sum_that_fits_samples(self, capsys, tmp_path):
        # 10^299 fits: every state after the first draw of a has a = 1
        model = tmp_path / "large.txt"
        model.write_text("vars: a b\n1" + "0" * 299 + " :: a\n1 :: b\n")
        code, _, _ = run_cli(capsys, "sample", "--model", "clauses", "--clauses", str(model),
                             "--chain", "gibbs", "--steps", "2000", "--out", str(tmp_path / "o"))
        assert code == 0
        states = [state for _, state in csv_rows(tmp_path / "o" / "trace_gibbs_seed0.csv")[1:]]
        assert len(states) == 2001
        assert sum(state[0] == "1" for state in states) >= 0.99 * len(states)

    def test_normal_largest_weight_keeps_pi(self, capsys, tmp_path):
        # the subnormal case shifted by 40: the largest weight is normal
        model = tmp_path / "small.txt"
        model.write_text("vars: a\n-700 :: a\n-700.5 :: !a\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, _ = run_cli(capsys, "exact", "--model", "clauses",
                                 "--clauses", str(model), "--chain", "gibbs",
                                 "--out", str(tmp_path / "o"))
        assert code == 0
        rows = csv_rows(tmp_path / "o" / "pi.csv")
        assert rows[1:] == [["0", "0.37754066879814546"], ["1", "0.6224593312018546"]]

    @pytest.mark.parametrize("command", ["exact", "tvcurve", "mix"])
    def test_overflowing_fugacity_exits_one(self, capsys, tmp_path, command):
        # 1e200 ** 2 overflows a float, as clause weights past e^709 do
        code, _, err = run_cli(capsys, command, "--model", "grid", "--k", "3",
                               "--lambda", "1e200", "--out", str(tmp_path / "o"))
        assert code == 1
        assert "state weights overflow: the partition function Z is inf" in err
        assert not (tmp_path / "o").exists()

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
        assert not (tmp_path / "o").exists()

    def test_detect_skips_hard_clause_scan(self, capsys, monkeypatch, tmp_path):
        # detect runs no chain, so the guarded start-state scan never runs
        model = tmp_path / "units.txt"
        model.write_text("vars: a b c d\ninf :: a\ninf :: b\ninf :: c\ninf :: d\n")
        monkeypatch.setenv("ORBITAL_GUARD", "8")
        code, out, _ = run_cli(capsys, "detect", "--model", "clauses",
                               "--clauses", str(model))
        assert code == 0
        assert "generators (3):" in out
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

    @pytest.mark.parametrize("argv,files,message", [
        pytest.param(["sample", "--model", "clauses", "--clauses", "m.txt", "--chain", "gibbs",
                      "--out", "o"], {"m.txt": "vars: a b\n0.5 a | b\n"},
                     "clause line missing '::'", id="clause-without-separator"),
        pytest.param(["sample", "--model", "clauses", "--clauses", "m.txt", "--chain", "gibbs",
                      "--out", "o"], {"m.txt": "vars: a b\n0.5 :: a | | b\n"},
                     "empty literal", id="empty-literal"),
        pytest.param(["sample", "--model", "clauses", "--clauses", "m.txt", "--chain", "gibbs",
                      "--out", "o"], {"m.txt": "vars: a\n0.5 :: a | b\n"},
                     "undeclared variable 'b'", id="undeclared-variable"),
        pytest.param(["sample", "--model", "clauses", "--clauses", "m.txt", "--evidence", "e.txt",
                      "--chain", "gibbs", "--out", "o"],
                     {"m.txt": "vars: a b\n0.5 :: a | b\n", "e.txt": "a true\n"},
                     "evidence line missing '='", id="evidence-without-equals"),
        pytest.param(["sample", "--model", "clauses", "--clauses", "m.txt", "--evidence", "e.txt",
                      "--chain", "gibbs", "--out", "o"],
                     {"m.txt": "vars: a b\n0.5 :: a | b\n", "e.txt": "a=yes\n"},
                     "evidence value must be true or false", id="evidence-not-boolean"),
        pytest.param(["sample", "--model", "grid", "--seeds", "0", "--out", "o"], {},
                     "need at least one seed", id="no-seeds"),
        pytest.param(["--config", "run.cfg", "sample", "--out", "o"], {"run.cfg": "model grid\n"},
                     "config line missing '='", id="config-without-equals"),
        pytest.param(["sample", "--model", "grid"], {}, "--out is required", id="no-out"),
        pytest.param(["sample", "--out", "o"], {}, "--model is required", id="no-model"),
        pytest.param(["sample", "--model", "clauses", "--chain", "gibbs", "--out", "o"], {},
                     "--model clauses requires --clauses FILE", id="clauses-without-file"),
        pytest.param(["--config", "run.cfg", "sample", "--out", "o"], {"run.cfg": "model=foo\n"},
                     "unknown model 'foo'", id="config-unknown-model"),
        pytest.param(["--config", "run.cfg", "gen", "--out", "o"],
                     {"run.cfg": "model=clauses\n"}, "gen cannot produce model 'clauses'",
                     id="config-gen-clauses"),
        *(pytest.param([command, "--model", "grid", "--evidence", "e.txt", "--out", "o"],
                       {"e.txt": "a=true\n"},
                       "--evidence is for --model clauses only, not grid",
                       id=f"{command}-grid-evidence") for command in ("detect", "sample", "mix")),
        *(pytest.param(["--config", "run.cfg", command, "--out", "o"],
                       {"run.cfg": "model=grid\nevidence=e.txt\n", "e.txt": "a=true\n"},
                       "--evidence is for --model clauses only, not grid",
                       id=f"config-{command}-grid-evidence")
          for command in ("detect", "sample", "mix")),
        pytest.param(["coupling", "--model", "cliques", "--clauses", "nope.txt", "--out", "o"],
                     {}, "--clauses is for --model clauses only, not cliques",
                     id="coupling-cliques-missing-clauses")])
    def test_input_error_exits_before_writing(self, capsys, monkeypatch, tmp_path,
                                              argv, files, message):
        # argparse's choices do not check a --config value, so the commands do
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert message in err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
