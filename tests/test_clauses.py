"""Weighted clause sets, colored-graph encoding, and model symmetry tests."""

from random import Random

import pytest

from orbitalmcmc import clauses
from orbitalmcmc.autgroup import automorphism_generators
from orbitalmcmc.clauses import (
    HARD,
    WeightedClauseSet,
    build_colored_graph,
    format_clause_file,
    format_evidence_file,
    model_symmetry_group,
    normalize_weight,
    parse_clause_file,
    parse_evidence_file,
)
from orbitalmcmc.families import gen_friends_smokers
from orbitalmcmc.perm import PermutationGroup, config_orbit_partition

from helpers import (
    EXAMPLE_CLAUSES,
    clause_multiset,
    config_orbits,
    elements,
    orbit_partition,
    parse_cycles,
    permuted_clause_multiset,
    two_spin_model,
)


class TestWeights:
    def test_normalization(self):
        assert normalize_weight("0.50") == "0.5"
        assert normalize_weight("2.0") == "2"
        assert normalize_weight("-1.40") == "-1.4"
        assert normalize_weight("007") == "7"
        assert normalize_weight(".5") == "0.5"
        assert normalize_weight("inf") == HARD
        assert normalize_weight("-0.0") == "0"

    def test_rejects_non_decimal(self):
        for bad in ("1e5", "abc", "", "1.2.3", "²", "١٢"):
            with pytest.raises(ValueError):
                normalize_weight(bad)


class TestClauseSet:
    def test_rejects_contradictory_literal(self):
        with pytest.raises(ValueError):
            WeightedClauseSet(["a"], [([(0, False), (0, True)], "1")])

    def test_rejects_unknown_variable(self):
        with pytest.raises(ValueError):
            WeightedClauseSet(["a"], [([(3, False)], "1")])

    def test_rejects_duplicate_variable(self):
        with pytest.raises(ValueError, match="duplicate variable names"):
            WeightedClauseSet(["a", "b", "a"], [])

    def test_file_round_trip(self):
        text = format_clause_file(EXAMPLE_CLAUSES)
        back = parse_clause_file(text)
        assert back.variables == EXAMPLE_CLAUSES.variables
        assert clause_multiset(back) == clause_multiset(EXAMPLE_CLAUSES)

    def test_hard_clause_parse(self):
        model = parse_clause_file("vars: a b\ninf :: a | b\n0.5 :: !a\n")
        assert model.clauses[0].is_hard
        assert not model.clauses[1].is_hard

    def test_evidence_file_round_trip(self):
        ev = {"a": True, "b": False}
        assert parse_evidence_file(format_evidence_file(ev)) == ev

    def test_evidence_skips_comment_and_blank_lines(self):
        assert parse_evidence_file("# observed\n\na=true\n  # b unknown\n") == {"a": True}

    def test_evidence_rejects_double_assignment(self):
        with pytest.raises(ValueError):
            parse_evidence_file("a=true\na=false\n")


class TestColoredGraphEncoding:
    def test_example_shape(self):
        graph, vmap = build_colored_graph(EXAMPLE_CLAUSES)
        assert graph.n == 8  # 2 * 3 variables + 2 clauses
        assert len(graph.edges) == 7  # 3 negation edges + 4 occurrences
        # negated color, unnegated color, one shared weight color
        assert graph.num_colors == 3
        assert graph.colors[vmap.clause[0]] == graph.colors[vmap.clause[1]]

    def test_empty_clause_set(self):
        model = WeightedClauseSet(["a", "b", "c"], [])
        graph, _ = build_colored_graph(model)
        assert graph.n == 6
        assert len(graph.edges) == 3
        assert all(len(a) == 1 for a in graph.adj)

    def test_distinct_weights_break_symmetry(self):
        model = parse_clause_file("vars: a b c\n0.5 :: a | !c\n0.7 :: b | !c\n")
        graph, _ = build_colored_graph(model)
        assert automorphism_generators(graph).order() == 1

    def test_evidence_recolors_unnegated_node(self):
        graph_plain, vmap = build_colored_graph(EXAMPLE_CLAUSES)
        graph_ev, vmap_ev = build_colored_graph(EXAMPLE_CLAUSES, {"a": True})
        a = vmap_ev.pos[0]
        others = [vmap_ev.pos[1], vmap_ev.pos[2]]
        assert all(graph_ev.colors[a] != graph_ev.colors[o] for o in others)
        assert graph_ev.colors[vmap_ev.neg[0]] == graph_ev.colors[vmap_ev.neg[1]]
        assert graph_plain.colors[vmap.pos[0]] == graph_plain.colors[vmap.pos[1]]


class TestModelSymmetry:
    def test_example_projected_generator(self):
        report = model_symmetry_group(EXAMPLE_CLAUSES)
        assert report.model_group.order() == 2
        expected = parse_cycles("(a b)", names=["a", "b", "c"])
        assert report.model_group.generators == (expected,)
        names = EXAMPLE_CLAUSES.variables
        assert ([tuple(names[i] for i in o) for o in report.variable_orbits]
                == [("a", "b"), ("c",)])
        assert [tuple(o) for o in report.feature_orbits] == [(0, 1)]

    def test_two_spin_orbits(self):
        report = model_symmetry_group(two_spin_model())
        assert report.model_group.order() == 2
        orbits = config_orbits(report.model_group)[bytes((0, 1))]
        assert set(orbits) == {bytes((0, 1)), bytes((1, 0))}
        partition = config_orbit_partition(report.model_group)
        assert sorted(len(p) for p in partition) == [1, 1, 2]

    def test_no_clauses(self):
        report = model_symmetry_group(WeightedClauseSet(["a", "b", "c"], []))
        assert report.feature_orbits == ()
        assert tuple(tuple(o) for o in report.variable_orbits) == ((0, 1, 2),)

    @pytest.mark.parametrize("cycles,message", [
        (["(a !a)"], "off the unnegated set"),
        (["(a b)(!a !b)", "(a b)(!a !c)"], "inconsistent projection: .* for variable a$"),
        (["(b c)(!b !a !c)"], "inconsistent projection: .* for variable a$")])
    def test_projection_checks(self, monkeypatch, cycles, message):
        # a graph "automorphism" that no projection onto the variables can follow
        def bad_group(graph):
            return PermutationGroup([parse_cycles(c, names=graph.names) for c in cycles])

        monkeypatch.setattr(clauses, "automorphism_generators", bad_group)
        with pytest.raises(RuntimeError, match=message):
            model_symmetry_group(EXAMPLE_CLAUSES)

    def test_asymmetric_model_is_rigid(self):
        model = parse_clause_file(
            "vars: a b c\n0.5 :: a | b\n0.7 :: b | c\n0.9 :: !a\n")
        report = model_symmetry_group(model)
        assert report.model_group.order() == 1
        assert all(len(o) == 1 for o in report.variable_orbits)

    def test_round_trip_symmetry_invariant(self):
        rng = Random(21)
        for _ in range(20):
            model = random_clause_set(rng)
            report = model_symmetry_group(model)
            base = clause_multiset(model)
            for g in report.model_group.generators:
                assert permuted_clause_multiset(model, g) == base

    def test_variable_orbits_are_the_model_groups_orbits(self):
        rng = Random(22)
        cases = [(random_clause_set(rng), rng.choice([{}, {"x0": True}, {"x1": False}]))
                 for _ in range(30)]
        cases += [gen_friends_smokers(4, evidence_fraction=0.5, seed=1), (EXAMPLE_CLAUSES, {})]
        for model, evidence in cases:
            report = model_symmetry_group(model, evidence)
            assert list(report.variable_orbits) == orbit_partition(report.model_group)

    def test_evidence_gives_subgroup(self):
        model = EXAMPLE_CLAUSES
        free = set(elements(model_symmetry_group(model).model_group))
        constrained = model_symmetry_group(model, {"a": True}).model_group
        for g in constrained.generators:
            assert g in free
        assert constrained.order() == 1


def random_clause_set(rng: Random) -> WeightedClauseSet:
    n = rng.randrange(2, 5)
    variables = [f"x{i}" for i in range(n)]
    clauses = []
    for _ in range(rng.randrange(1, 5)):
        width = rng.randrange(1, min(3, n) + 1)
        chosen = rng.sample(range(n), width)
        literals = [(v, rng.random() < 0.5) for v in chosen]
        weight = rng.choice(["0.5", "1", "2"])
        clauses.append((literals, weight))
    return WeightedClauseSet(variables, clauses)


class TestFriendsSmokers:
    def test_feature_orbits_without_evidence(self):
        for people in (3, 4):
            model, evidence = gen_friends_smokers(people)
            assert evidence == {}
            report = model_symmetry_group(model)
            assert len(report.feature_orbits) == 7
            assert report.model_group.order() >= 2

    def test_zero_fraction_matches_no_evidence(self):
        plain, _ = gen_friends_smokers(4)
        zero, ev = gen_friends_smokers(4, evidence_fraction=0.0)
        assert ev == {}
        assert clause_multiset(plain) == clause_multiset(zero)

    def test_evidence_shrinks_group(self):
        model, _ = gen_friends_smokers(4)
        free_group = model_symmetry_group(model).model_group
        free = set(elements(free_group))
        _, evidence = gen_friends_smokers(4, evidence_fraction=0.25, seed=3)
        assert len(evidence) == 1
        constrained = model_symmetry_group(model, evidence).model_group
        for g in constrained.generators:
            assert g in free
        assert constrained.order() < free_group.order()
