"""Base chain kernels, orbit wrapper, and trace determinism."""

from random import Random

import pytest

from orbitalmcmc.analysis import exact_pi_clauses, transition_matrix
from orbitalmcmc.chains import (
    ChainKind,
    ClauseModel,
    IndependentSetModel,
    gibbs_step,
    initial_state,
    insert_delete_step,
    run_chain,
)
from orbitalmcmc.clauses import parse_clause_file
from orbitalmcmc.errors import GuardExceededError, InfeasibleModelError
from orbitalmcmc.families import gen_complete, gen_grid
from orbitalmcmc.graphs import Graph
from orbitalmcmc.perm import OrbitSampler, PermutationGroup, SamplerMode, parse_cycles

from helpers import two_spin_model


def two_spin_chain_model() -> ClauseModel:
    return ClauseModel(two_spin_model())


def swap_group() -> PermutationGroup:
    return PermutationGroup([parse_cycles("(0 1)", n=2)])


class TestClauseModel:
    def test_conditional_matches_enumeration(self):
        model = two_spin_chain_model()
        pi = exact_pi_clauses(model.clause_set)
        for bits in pi.states:
            for v in range(model.n):
                on = bits[:v] + (1,) + bits[v + 1:]
                off = bits[:v] + (0,) + bits[v + 1:]
                expected = pi.prob_of(on) / (pi.prob_of(on) + pi.prob_of(off))
                assert abs(model.conditional_p1(bits, v) - expected) < 1e-12

    def test_conditional_with_hard_clause(self):
        model = ClauseModel(parse_clause_file("vars: a b\ninf :: a | b\n0.5 :: a\n"))
        # from (0, 1), variable a must stay free; variable b is pinned to 1
        assert model.conditional_p1((0, 1), 1) == 1.0

    def test_unsatisfiable_hard_rejected(self):
        with pytest.raises(InfeasibleModelError):
            ClauseModel(parse_clause_file("vars: a\ninf :: a\ninf :: !a\n"))

    def test_hard_clause_scan_guarded(self, monkeypatch):
        # all four unit clauses hold first at assignment 15 in counting order
        text = "vars: a b c d\ninf :: a\ninf :: b\ninf :: c\ninf :: d\n"
        assert ClauseModel(parse_clause_file(text)).start == (1, 1, 1, 1)
        monkeypatch.setenv("ORBITAL_GUARD", "8")
        with pytest.raises(GuardExceededError):
            ClauseModel(parse_clause_file(text))

    def test_single_free_variable_uniform(self):
        model = ClauseModel(parse_clause_file("vars: a\n0 :: a\n"))
        assert model.conditional_p1((0,), 0) == pytest.approx(0.5)


class TestGibbsStep:
    def test_one_step_frequencies_match_exact_row(self):
        model = two_spin_chain_model()
        matrix = transition_matrix(model, ChainKind.GIBBS)
        start = (1, 0)
        row = matrix.rows[matrix.index_of(start)]
        rng = Random(31)
        counts = {s: 0 for s in matrix.states}
        trials = 100_000
        for _ in range(trials):
            counts[gibbs_step(model, start, rng)] += 1
        for state, expected in zip(matrix.states, row):
            se = (expected * (1 - expected) / trials) ** 0.5
            assert abs(counts[state] / trials - expected) <= 3 * se + 1e-9

    def test_stuck_example_probability(self):
        # from 10 the chance of reaching 00 or 11 in one move is 0.02
        matrix = transition_matrix(two_spin_chain_model(), ChainKind.GIBBS)
        row = matrix.rows[matrix.index_of((1, 0))]
        mass = row[matrix.index_of((0, 0))] + row[matrix.index_of((1, 1))]
        assert mass == pytest.approx(0.02, abs=1e-12)
        assert row[matrix.index_of((0, 1))] == 0.0

    def test_rejects_state_violating_hard_clause(self):
        model = ClauseModel(parse_clause_file("vars: a b\ninf :: a | b\n"))
        with pytest.raises(InfeasibleModelError):
            run_chain(model, ChainKind.GIBBS, 10, seed=0, initial=(0, 0))

    def test_changes_at_most_one_variable(self):
        model = two_spin_chain_model()
        rng = Random(32)
        state = (0, 0)
        for _ in range(200):
            nxt = gibbs_step(model, state, rng)
            assert sum(a != b for a, b in zip(state, nxt)) <= 1
            state = nxt


class TestInsertDeleteStep:
    def test_empty_set_on_complete_graph(self):
        graph = gen_complete(2)  # K_4
        model = IndependentSetModel(graph, 1.0)
        rng = Random(33)
        counts = {}
        trials = 80_000
        start = (0,) * 4
        for _ in range(trials):
            nxt = insert_delete_step(model, start, rng)
            counts[nxt] = counts.get(nxt, 0) + 1
        # each singleton with probability 1/(2n), stay empty with 1/2
        n = 4
        for v in range(n):
            singleton = tuple(1 if i == v else 0 for i in range(n))
            p = 1.0 / (2 * n)
            se = (p * (1 - p) / trials) ** 0.5
            assert abs(counts.get(singleton, 0) / trials - p) <= 3 * se
        p_stay = 0.5
        se = (p_stay * (1 - p_stay) / trials) ** 0.5
        assert abs(counts[start] / trials - p_stay) <= 3 * se

    def test_blocked_vertex_keeps_state(self):
        graph = Graph(2, [(0, 1)])
        model = IndependentSetModel(graph, 5.0)
        rng = Random(34)
        state = (1, 0)
        seen = set()
        for _ in range(500):
            nxt = insert_delete_step(model, state, rng)
            assert graph.is_independent(nxt)
            seen.add(nxt)
        assert (1, 1) not in seen

    def test_rejects_dependent_state(self):
        graph = Graph(2, [(0, 1)])
        model = IndependentSetModel(graph, 1.0)
        with pytest.raises(ValueError):
            run_chain(model, ChainKind.INSERT_DELETE, 10, seed=0, initial=(1, 1))

    def test_traces_stay_independent(self):
        graph = gen_grid(3)
        model = IndependentSetModel(graph, 1.0)
        group = PermutationGroup(
            [parse_cycles("(a c)(d f)(g i)", names=list("abcdefghi")),
             parse_cycles("(a i)(b f)(d h)", names=list("abcdefghi"))])
        for kind in (ChainKind.INSERT_DELETE, ChainKind.ORBITAL_INSERT_DELETE):
            trace = run_chain(model, kind, 2000, seed=35, group=group)
            assert all(graph.is_independent(s) for s in trace.states)


class TestOrbitalStep:
    def test_trivial_group_matches_base_trajectory(self):
        model = two_spin_chain_model()
        trivial = PermutationGroup([], n=2)
        base = run_chain(model, ChainKind.GIBBS, 500, seed=36)
        orbital = run_chain(model, ChainKind.ORBITAL_GIBBS, 500, seed=36,
                            group=trivial)
        assert base.states == orbital.states

    def test_two_spin_orbit_resampling(self):
        # once the base move lands on 10 the resample returns 01 or 10 evenly
        rng = Random(37)
        sampler = OrbitSampler(swap_group(), SamplerMode.EXACT, rng)
        counts = {(1, 0): 0, (0, 1): 0}
        trials = 20_000
        for _ in range(trials):
            result = sampler.sample((1, 0))
            counts[result] += 1
        assert abs(counts[(0, 1)] - trials / 2) <= 3 * (trials * 0.25) ** 0.5

    def test_result_in_base_orbit(self):
        graph = gen_grid(3)
        model = IndependentSetModel(graph, 1.0)
        names = list("abcdefghi")
        group = PermutationGroup(
            [parse_cycles("(a c)(d f)(g i)", names=names),
             parse_cycles("(a i)(b f)(d h)", names=names)])
        rng = Random(38)
        sampler = OrbitSampler(group, SamplerMode.EXACT, rng)
        state = (0,) * 9
        for _ in range(300):
            nxt = sampler.sample(insert_delete_step(model, state, rng))
            assert graph.is_independent(nxt)
            state = nxt


class TestRunChain:
    def test_zero_steps(self):
        model = two_spin_chain_model()
        trace = run_chain(model, ChainKind.GIBBS, 0, seed=39)
        assert trace.states == [(0, 0)]

    def test_determinism(self):
        graph = gen_grid(3)
        model = IndependentSetModel(graph, 1.0)
        a = run_chain(model, ChainKind.INSERT_DELETE, 1000, seed=40)
        b = run_chain(model, ChainKind.INSERT_DELETE, 1000, seed=40)
        assert a.states == b.states

    def test_record_every(self):
        model = two_spin_chain_model()
        trace = run_chain(model, ChainKind.GIBBS, 100, seed=41, record_every=10)
        assert len(trace.states) == 11

    def test_hard_conflict_with_zero_state(self):
        # all-zeros violates the hard clause: start from the first assignment
        # in counting order that satisfies it
        model = ClauseModel(parse_clause_file("vars: a b\ninf :: a | b\n"))
        assert initial_state(model, ChainKind.GIBBS) == (1, 0)
        for initial in (None, (0, 1)):
            trace = run_chain(model, ChainKind.GIBBS, 50, seed=42, initial=initial)
            assert all(model.satisfies_hard(s) for s in trace.states)

    def test_trace_csv(self, tmp_path):
        model = two_spin_chain_model()
        trace = run_chain(model, ChainKind.GIBBS, 5, seed=43)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,state"
        assert len(lines) == 7
