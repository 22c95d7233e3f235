"""Base chain kernels, orbit wrapper, and trace determinism."""

from random import Random

import numpy as np
import pytest

from orbitalmcmc.analysis import (check_detailed_balance, coupling_drift, exact_distribution,
                                  transition_matrix)
from orbitalmcmc.chains import (
    TABLE_WIDTH,
    ChainKind,
    ClauseModel,
    IndependentSetModel,
    gibbs_step,
    initial_state,
    insert_delete_step,
    run_chain,
)
from orbitalmcmc.clauses import (HARD, WeightedClauseSet, model_symmetry_group,
                                 parse_clause_file, weight_value)
from orbitalmcmc.errors import GuardExceededError, InfeasibleModelError
from orbitalmcmc.autgroup import automorphism_generators
from orbitalmcmc.families import gen_complete, gen_friends_smokers, gen_grid
from orbitalmcmc.graphs import Graph
from orbitalmcmc.perm import OrbitSampler, PermutationGroup, SamplerMode

from helpers import (FS_EVIDENCE, HARD_PAIRS_TEXT, moves, parse_cycles, reference_chain,
                     reference_gibbs_step, reference_insert_delete_step, satisfied_by,
                     two_spin_model)


def two_spin_chain_model() -> ClauseModel:
    return ClauseModel(two_spin_model())


def swap_group() -> PermutationGroup:
    return PermutationGroup([parse_cycles("(0 1)", n=2)])


HARD_PAIRS = parse_clause_file(HARD_PAIRS_TEXT)


def hard_pairs_group() -> PermutationGroup:
    return PermutationGroup([parse_cycles("(0 1)(2 3)", n=4),
                             parse_cycles("(0 2)(1 3)", n=4)])


def with_hard(clause_set: WeightedClauseSet, hard: list) -> WeightedClauseSet:
    """The clause set with the (literals, HARD) pairs of `hard` appended."""
    return WeightedClauseSet(clause_set.variables,
                             [(c.literals, c.weight) for c in clause_set.clauses] + hard)


class TestClauseModel:
    def test_conditional_matches_enumeration(self):
        model = two_spin_chain_model()
        pi = exact_distribution(model)
        for bits in pi.states:
            for v in range(model.n):
                on = bits[:v] + b"\x01" + bits[v + 1:]
                off = bits[:v] + b"\x00" + bits[v + 1:]
                p_on, p_off = pi.probs[pi.index_of(on)], pi.probs[pi.index_of(off)]
                expected = p_on / (p_on + p_off)
                assert abs(model.conditional_p1(bits, v) - expected) < 1e-12

    def test_conditional_with_hard_clause(self):
        model = ClauseModel(parse_clause_file("vars: a b\ninf :: a | b\n0.5 :: a\n"))
        # from (0, 1), variable a must stay free; variable b is pinned to 1
        assert model.conditional_p1((0, 1), 1) == 1.0

    def test_conditional_with_both_values_barred(self):
        model = ClauseModel(parse_clause_file("vars: a b\ninf :: a | b\ninf :: !a | b\n"))
        assert model.conditional_p1((0, 1), 0) == 0.5
        with pytest.raises(InfeasibleModelError, match="no value of variable a"):
            model.conditional_p1((0, 0), 0)

    @pytest.mark.parametrize("text", [
        "vars: a b\n1" + "0" * 400 + " :: a\n1 :: b\n",  # 10^400 is inf as a float
        "vars: a b\n-" + "9" * 308 + " :: a\n" + "9" * 308 + " :: !a | b\n"],  # each fits
        ids=["one-weight", "two-weights"])
    def test_soft_weight_sum_past_a_float_rejected(self, text):
        # a's Gibbs conditional would be exp(inf - inf), NaN, and never drawn
        with pytest.raises(ValueError, match="variable a sum past the float range"):
            ClauseModel(parse_clause_file(text))
        # clamped, a has no conditional to compute
        assert ClauseModel(parse_clause_file(text), {"a": True}).free == (1,)

    def test_soft_weight_sum_that_fits_samples(self):
        model = ClauseModel(parse_clause_file("vars: a b\n1" + "0" * 299 + " :: a\n1 :: b\n"))
        assert model.conditional_p1(bytes(2), 0) == 1.0
        trace = run_chain(model, ChainKind.GIBBS, 2000, seed=4)
        assert sum(s[0] for s in trace.states) >= 0.99 * len(trace.states)

    def test_unsatisfiable_hard_rejected(self):
        with pytest.raises(InfeasibleModelError):
            ClauseModel(parse_clause_file("vars: a\ninf :: a\ninf :: !a\n"))

    def test_hard_clause_scan_guarded(self, monkeypatch):
        # all four unit clauses hold first at assignment 15 in counting order
        text = "vars: a b c d\ninf :: a\ninf :: b\ninf :: c\ninf :: d\n"
        assert ClauseModel(parse_clause_file(text)).start == bytes((1, 1, 1, 1))
        monkeypatch.setenv("ORBITAL_GUARD", "8")
        with pytest.raises(GuardExceededError):
            ClauseModel(parse_clause_file(text))

    def test_states_guarded(self, monkeypatch):
        model = ClauseModel(parse_clause_file("vars: a b c d\n0.5 :: a\n"))
        monkeypatch.setenv("ORBITAL_GUARD", "8")
        with pytest.raises(GuardExceededError, match="2\\^4 assignments exceed enumeration cap 8"):
            model.states()

    @pytest.mark.parametrize("evidence", [{}, {"smokes_p0": True, "friends_p1_p2": False}])
    def test_scans_match_the_per_assignment_loop(self, monkeypatch, evidence):
        # fs3 with hard clauses: someone of p1, p2 smokes, and the last
        # variable holds, so the start lies past half the counter
        clause_set, _ = gen_friends_smokers(3)
        clause_set = with_hard(clause_set, [
            ([(clause_set.var_index("smokes_p1"), False),
              (clause_set.var_index("smokes_p2"), False)], HARD),
            ([(clause_set.n - 1, False)], HARD)])
        model = ClauseModel(clause_set, evidence)
        pinned = {clause_set.var_index(name): int(value) for name, value in evidence.items()}
        free, m = model.free, len(model.free)

        def assignment(k, shifts):
            bits = [pinned.get(v, 0) for v in range(clause_set.n)]
            for v, shift in zip(free, shifts):
                bits[v] = k >> shift & 1
            return bytes(bits)

        def holds(state):
            return all(satisfied_by(c, state) for c in clause_set.clauses if c.is_hard)

        first = next(k for k in range(2 ** m) if holds(assignment(k, range(m))))
        assert first >= 2 ** (m - 1)
        assert model.start == assignment(first, range(m))
        lexicographic = [assignment(k, range(m - 1, -1, -1)) for k in range(2 ** m)]
        assert model.states() == [s for s in lexicographic if holds(s)]
        monkeypatch.setenv("ORBITAL_GUARD", str(first))
        with pytest.raises(GuardExceededError, match=f"among the first {first} of"):
            ClauseModel(clause_set, evidence)

    def test_start_scan_crosses_chunks(self):
        # eight unit hard clauses hold first at counter 255, in the fourth chunk
        text = "vars: a b c d e f g h\n" + "".join(f"inf :: {x}\n" for x in "abcdefgh")
        assert ClauseModel(parse_clause_file(text)).start == bytes([1] * 8)

    def test_single_free_variable_uniform(self):
        model = ClauseModel(parse_clause_file("vars: a\n0 :: a\n"))
        assert model.conditional_p1((0,), 0) == pytest.approx(0.5)

    @pytest.mark.parametrize("evidence", [None, {"smokes_p0": True, "friends_p1_p2": False}])
    def test_weights_match_per_state_clause_sums(self, evidence):
        clause_set, _ = gen_friends_smokers(3)
        model = ClauseModel(clause_set, evidence)
        states = model.states()
        soft = [(c, weight_value(c.weight)) for c in clause_set.clauses if not c.is_hard]
        expected = np.exp(np.array([sum(w for c, w in soft if satisfied_by(c, s))
                                    for s in states]))
        assert model.weights(states).tobytes() == expected.tobytes()


class TestEvidence:
    def test_clamped_values_start_and_stay(self):
        text = "vars: a b c\ninf :: a | b\n0.5 :: b | c\n0.5 :: !a | !c\n"
        model = ClauseModel(parse_clause_file(text), {"a": False})
        assert model.free == (1, 2)
        # all-zeros on the free variables violates the hard clause
        assert model.start == bytes((0, 1, 0))
        assert model.states() == [bytes((0, 1, 0)), bytes((0, 1, 1))]
        trace = run_chain(model, ChainKind.GIBBS, 300, seed=44)
        assert all(s[0] == 0 and s[1] == 1 for s in trace.states)
        assert {s[2] for s in trace.states} == {0, 1}

    def test_moves_match_step_frequencies(self):
        text = "vars: a b c\n0.8 :: a | b\n-0.3 :: !b | c\n1.2 :: a | !c\n"
        model = ClauseModel(parse_clause_file(text), {"b": True})
        start = bytes((0, 1, 1))
        expected = {}
        for state, p in moves(model, start):
            expected[state] = expected.get(state, 0.0) + p
        assert sum(expected.values()) == pytest.approx(1.0, abs=1e-15)
        rng = Random(45)
        trials = 60_000
        counts = {}
        for _ in range(trials):
            nxt = gibbs_step(model, start, rng)
            counts[nxt] = counts.get(nxt, 0) + 1
        assert set(counts) <= set(expected)
        for state, p in expected.items():
            se = (p * (1 - p) / trials) ** 0.5
            assert abs(counts.get(state, 0) / trials - p) <= 3 * se + 1e-9

    def test_fully_clamped_model_draws_nothing(self):
        model = ClauseModel(two_spin_model(), {"x1": True, "x2": False})
        rng = Random(46)
        before = rng.getstate()
        assert gibbs_step(model, (1, 0), rng) == (1, 0)
        assert rng.getstate() == before
        assert list(moves(model, (1, 0))) == [((1, 0), 1.0)]

    def test_evidence_conflicting_with_hard_clause(self):
        with pytest.raises(InfeasibleModelError):
            ClauseModel(parse_clause_file("vars: a b\ninf :: a\n"), {"a": False})

    def test_clamped_variables_leave_the_scan(self, monkeypatch):
        # the witness is assignment 15 of 2^4 without evidence, 7 of 2^3
        # with one variable clamped and 0 of 2^0 with all four clamped
        text = "vars: a b c d\ninf :: a\ninf :: b\ninf :: c\ninf :: d\n"
        monkeypatch.setenv("ORBITAL_GUARD", "8")
        with pytest.raises(GuardExceededError):
            ClauseModel(parse_clause_file(text))
        assert ClauseModel(parse_clause_file(text), {"a": True}).start == bytes((1, 1, 1, 1))
        model = ClauseModel(parse_clause_file(text), dict.fromkeys("abcd", True))
        assert model.start == bytes((1, 1, 1, 1))
        assert model.states() == [bytes((1, 1, 1, 1))]

    def test_unknown_evidence_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            ClauseModel(two_spin_model(), {"x3": True})

    def test_kind_must_match_model(self):
        with pytest.raises(TypeError):
            run_chain(two_spin_chain_model(), ChainKind.INSERT_DELETE, 5, seed=0)


class TestHardClauseKernels:
    def test_model(self):
        model = ClauseModel(HARD_PAIRS)
        assert len(model.states()) == 9
        detected = model_symmetry_group(HARD_PAIRS).model_group
        assert set(detected.generators) == set(hard_pairs_group().generators)
        assert detected.order() == 4

    def test_moves_skip_barred_values(self):
        model = ClauseModel(HARD_PAIRS)
        states = set(model.states())
        for s in states:
            for t, p in moves(model, s):
                assert t in states and p > 0

    @pytest.mark.parametrize("kind", [ChainKind.GIBBS, ChainKind.ORBITAL_GIBBS])
    def test_kernel_balances(self, kind):
        model = ClauseModel(HARD_PAIRS)
        matrix = transition_matrix(model, kind, group=hard_pairs_group())
        assert np.abs(matrix.rows.sum(axis=1) - 1.0).max() <= 1e-12
        balance = check_detailed_balance(matrix, exact_distribution(model), tol=1e-12)
        assert balance.max_violation <= 1e-12


class TestKindCheck:
    @pytest.mark.parametrize("model", [IndependentSetModel, IndependentSetModel(gen_grid(2), 1.0)])
    def test_instance_or_class(self, model):
        ChainKind.ORBITAL_INSERT_DELETE.check(model)
        with pytest.raises(TypeError, match="^orbital-gibbs chains do not run on "
                                            "IndependentSetModel$"):
            ChainKind.ORBITAL_GIBBS.check(model)

    def test_every_caller_asks(self):
        model = two_spin_chain_model()
        with pytest.raises(TypeError, match="id chains do not run on ClauseModel"):
            initial_state(model, ChainKind.ORBITAL_INSERT_DELETE)
        with pytest.raises(TypeError, match="id chains do not run on ClauseModel"):
            transition_matrix(model, ChainKind.INSERT_DELETE)
        with pytest.raises(TypeError, match="orbital-id chains do not run on ClauseModel"):
            coupling_drift(model, swap_group(), trials=10)

    def test_orbital_kinds_need_a_group(self):
        model = two_spin_chain_model()
        with pytest.raises(ValueError, match="requires a symmetry group"):
            run_chain(model, ChainKind.ORBITAL_GIBBS, 5, seed=0)
        with pytest.raises(ValueError, match="requires a symmetry group"):
            transition_matrix(model, ChainKind.ORBITAL_GIBBS)


class TestGibbsStep:
    def test_one_step_frequencies_match_exact_row(self):
        model = two_spin_chain_model()
        matrix = transition_matrix(model, ChainKind.GIBBS)
        dist = exact_distribution(model)
        assert dist.states == matrix.space.states
        start = bytes((1, 0))
        row = matrix.rows[dist.index_of(start)]
        rng = Random(31)
        counts = {s: 0 for s in matrix.space.states}
        trials = 100_000
        for _ in range(trials):
            counts[gibbs_step(model, start, rng)] += 1
        for state, expected in zip(matrix.space.states, row):
            se = (expected * (1 - expected) / trials) ** 0.5
            assert abs(counts[state] / trials - expected) <= 3 * se + 1e-9

    def test_stuck_example_probability(self):
        # from 10 the chance of reaching 00 or 11 in one move is 0.02
        model = two_spin_chain_model()
        matrix = transition_matrix(model, ChainKind.GIBBS)
        dist = exact_distribution(model)
        assert dist.states == matrix.space.states
        row = matrix.rows[dist.index_of(bytes((1, 0)))]
        mass = row[dist.index_of(bytes((0, 0)))] + row[dist.index_of(bytes((1, 1)))]
        assert mass == pytest.approx(0.02, abs=1e-12)
        assert row[dist.index_of(bytes((0, 1)))] == 0.0

    def test_changes_at_most_one_variable(self):
        model = two_spin_chain_model()
        rng = Random(32)
        state = bytes((0, 0))
        for _ in range(200):
            nxt = gibbs_step(model, state, rng)
            assert sum(a != b for a, b in zip(state, nxt)) <= 1
            state = nxt


def fs4_with_a_wide_clause() -> tuple[ClauseModel, PermutationGroup]:
    """fs4 with half its people's smoking clamped, plus a soft clause over
    the four cancer variables: friends variables read 4 others, smokes and
    cancer variables more than TABLE_WIDTH."""
    clause_set, evidence = gen_friends_smokers(4, 0.5, 1)
    clause_set = WeightedClauseSet(
        clause_set.variables,
        [(c.literals, c.weight) for c in clause_set.clauses]
        + [([(clause_set.var_index(f"cancer_p{i}"), False) for i in range(4)], "0.7")])
    return (ClauseModel(clause_set, evidence),
            model_symmetry_group(clause_set, evidence).model_group)


def reads(model: ClauseModel, v: int) -> set:
    """The other variables that the clauses of variable v read."""
    return {u for c in model.clause_set.clauses if any(w == v for w, _ in c.literals)
            for u, _ in c.literals if u != v}


class TestConditionalTables:
    @pytest.mark.parametrize("kind,mode", [
        (ChainKind.GIBBS, SamplerMode.EXACT),
        (ChainKind.ORBITAL_GIBBS, SamplerMode.EXACT),
        (ChainKind.ORBITAL_GIBBS, SamplerMode.PRODUCT_REPLACEMENT)])
    def test_run_equals_the_direct_loop(self, kind, mode):
        model, group = fs4_with_a_wide_clause()
        widths = {len(reads(model, v)) for v in model.free}
        assert min(widths) <= TABLE_WIDTH < max(widths)
        group = group if kind.is_orbital else None
        trace = run_chain(model, kind, 3000, seed=47, group=group, mode=mode)
        # the reference draws in run_chain's order but calls conditional_p1
        rng = Random(47)
        sampler = OrbitSampler(group, mode, rng) if group else None
        state = model.start
        expected = [state]
        for _ in range(3000):
            v = model.free[rng.randrange(len(model.free))]
            value = 1 if rng.random() < model.conditional_p1(state, v) else 0
            state = state[:v] + bytes((value,)) + state[v + 1:]
            if sampler is not None:
                state = sampler.sample(state)
            expected.append(state)
        assert trace.states == expected
        for state in expected[::10]:  # the tables that the run filled, read back
            assert all(model._p1(state, v) == model.conditional_p1(state, v)
                       for v in model.free)

    def test_tables_stay_within_their_bound(self):
        # x0 reads x1..x8, exactly TABLE_WIDTH others; every other variable
        # reads more, through the clause on x1..x10
        names = [f"x{i}" for i in range(11)]
        text = (f"vars: {' '.join(names)}\n0.4 :: {' | '.join(names[:9])}\n"
                f"-0.6 :: {' | '.join(names[1:])}\n")
        edge = ClauseModel(parse_clause_file(text))
        for model in (edge, fs4_with_a_wide_clause()[0]):
            trace = run_chain(model, ChainKind.GIBBS, 20_000, seed=48)
            for state in trace.states[::10]:
                list(moves(model, state))  # fills every table along the run
            for v in range(model.n):
                if v in model.free and len(reads(model, v)) <= TABLE_WIDTH:
                    assert 0 < len(model._tables[v][1]) <= 2 ** TABLE_WIDTH
                else:
                    assert model._tables[v] is None
        for state in edge.states():  # meets every neighbourhood of x0
            list(moves(edge, state))
        assert len(edge._tables[0][1]) == 2 ** TABLE_WIDTH

    def test_infeasible_neighbourhood_raises_every_time(self):
        model = ClauseModel(parse_clause_file("vars: a b\ninf :: a | b\ninf :: !a | b\n"))
        for _ in range(2):
            with pytest.raises(InfeasibleModelError, match="no value of variable a"):
                list(moves(model, bytes((0, 0))))
        assert model._tables[0][1] == {}
        assert list(moves(model, bytes((0, 1)))) == [
            (bytes((1, 1)), 0.25), (bytes((0, 1)), 0.25), (bytes((0, 1)), 0.5)]
        assert model._tables[0][1] == {1: 0.5}  # keyed by b alone


class TestIndependentSetModel:
    @pytest.mark.parametrize("lam", [0.0, -1.5, float("inf"), float("nan")])
    def test_fugacity_must_be_finite_and_positive(self, lam):
        with pytest.raises(ValueError, match="finite and positive"):
            IndependentSetModel(gen_grid(3), lam)

    @pytest.mark.parametrize("lam", [0.3, 0.5, 1.7, 3.14159])
    def test_weights_are_powers_of_lambda(self, lam):
        model = IndependentSetModel(gen_grid(4), lam)
        states = model.states()
        assert model.weights(states).tolist() == [lam ** sum(s) for s in states]

    def test_overflowing_weight_is_inf(self):
        # 1e200 ** 2 overflows a float: sets of two or more weigh inf
        model = IndependentSetModel(gen_grid(3), 1e200)
        states = model.states()
        assert model.weights(states).tolist() == [
            (1.0, 1e200)[sum(s)] if sum(s) < 2 else float("inf") for s in states]
        with pytest.raises(ValueError, match="state weights overflow"):
            exact_distribution(model)


class TestInsertDeleteStep:
    def test_empty_set_on_complete_graph(self):
        graph = gen_complete(2)  # K_4
        model = IndependentSetModel(graph, 1.0)
        rng = Random(33)
        counts = {}
        trials = 80_000
        start = bytes(4)
        for _ in range(trials):
            nxt = insert_delete_step(model, start, rng)
            counts[nxt] = counts.get(nxt, 0) + 1
        # each singleton with probability 1/(2n), stay empty with 1/2
        n = 4
        for v in range(n):
            singleton = bytes(1 if i == v else 0 for i in range(n))
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
        state = bytes((1, 0))
        seen = set()
        for _ in range(500):
            nxt = insert_delete_step(model, state, rng)
            assert graph.is_independent(nxt)
            seen.add(nxt)
        assert bytes((1, 1)) not in seen

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
        counts = {bytes((1, 0)): 0, bytes((0, 1)): 0}
        trials = 20_000
        for _ in range(trials):
            result = sampler.sample(bytes((1, 0)))
            counts[result] += 1
        assert abs(counts[bytes((0, 1))] - trials / 2) <= 3 * (trials * 0.25) ** 0.5

    def test_result_in_base_orbit(self):
        graph = gen_grid(3)
        model = IndependentSetModel(graph, 1.0)
        names = list("abcdefghi")
        group = PermutationGroup(
            [parse_cycles("(a c)(d f)(g i)", names=names),
             parse_cycles("(a i)(b f)(d h)", names=names)])
        rng = Random(38)
        sampler = OrbitSampler(group, SamplerMode.EXACT, rng)
        state = bytes(9)
        for _ in range(300):
            nxt = sampler.sample(insert_delete_step(model, state, rng))
            assert graph.is_independent(nxt)
            state = nxt


class TestIndexDraws:
    """Each step draws its site as `randrange` does: 2,000 steps give the
    states and the generator state of a reference built on `randrange`.
    A power-of-two bound rejects nearly half its draws, and a bound of 1
    still draws a bit."""

    @pytest.mark.parametrize("graph", [
        pytest.param(Graph(1, []), id="one-vertex"),
        pytest.param(gen_complete(2), id="K4"),
        pytest.param(Graph(32, [(i, (i + 1) % 32) for i in range(32)]), id="cycle32"),
        pytest.param(gen_grid(3), id="grid3")])
    def test_insert_delete_equals_the_reference(self, graph):
        model = IndependentSetModel(graph, 1.5)
        rng, ref_rng = Random(61), Random(61)
        state = expected = model.start
        for _ in range(2000):
            state = insert_delete_step(model, state, rng)
            expected = reference_insert_delete_step(model, expected, ref_rng)
            assert state == expected
        assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("clause_set,evidence,free", [
        pytest.param(HARD_PAIRS, {"a": True, "b": False, "c": True}, 1, id="hard-pairs-1"),
        pytest.param(HARD_PAIRS, {"a": True, "b": False}, 2, id="hard-pairs-2"),
        pytest.param(*gen_friends_smokers(4, 1.0), 16, id="fs4-16"),
        pytest.param(*gen_friends_smokers(4, 0.5, 1), 18, id="fs4-18")])
    def test_gibbs_with_evidence_equals_the_reference(self, clause_set, evidence, free):
        model = ClauseModel(clause_set, evidence)
        assert len(model.free) == free
        rng, ref_rng = Random(62), Random(62)
        state = expected = model.start
        for _ in range(2000):
            state = gibbs_step(model, state, rng)
            expected = reference_gibbs_step(model, expected, ref_rng)
            assert state == expected
        assert rng.getstate() == ref_rng.getstate()


class TestRunChain:
    def test_zero_steps(self):
        model = two_spin_chain_model()
        trace = run_chain(model, ChainKind.GIBBS, 0, seed=39)
        assert trace.states == [bytes((0, 0))]

    def test_no_vertices(self):
        # getrandbits(0) is 0, a draw below 0 never comes: stepping raises
        model = IndependentSetModel(Graph(0, []), 1.0)
        assert run_chain(model, ChainKind.INSERT_DELETE, 0, seed=0).states == [b""]
        rng = Random(0)
        before = rng.getstate()
        with pytest.raises(ValueError, match="no vertices"):
            insert_delete_step(model, b"", rng)
        assert rng.getstate() == before
        with pytest.raises(ValueError, match="no vertices"):
            run_chain(model, ChainKind.INSERT_DELETE, 1, seed=0)

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

    @pytest.mark.parametrize("steps,record_every,message", [
        (-1, 1, "steps must be nonnegative"),
        (10, 0, "record_every must be at least 1"),
    ])
    def test_arguments_rejected(self, steps, record_every, message):
        with pytest.raises(ValueError, match=message):
            run_chain(two_spin_chain_model(), ChainKind.GIBBS, steps, seed=0,
                      record_every=record_every)

    def test_hard_conflict_with_zero_state(self):
        # all-zeros violates the hard clause: start from the first assignment
        # in counting order that satisfies it
        model = ClauseModel(parse_clause_file("vars: a b\ninf :: a | b\n"))
        assert initial_state(model, ChainKind.GIBBS) == bytes((1, 0))
        trace = run_chain(model, ChainKind.GIBBS, 50, seed=42)
        assert all(s != bytes((0, 0)) for s in trace.states)

    def test_orbital_pr_past_255_variables(self):
        # fs16 has 272 variables; a hard clause per person, cancer only with
        # smoking, is kept by every permutation of the people
        clause_set, _ = gen_friends_smokers(16)
        clause_set = with_hard(clause_set, [
            ([(clause_set.var_index(f"cancer_p{i}"), True),
              (clause_set.var_index(f"smokes_p{i}"), False)], HARD) for i in range(16)])
        group = model_symmetry_group(clause_set).model_group
        assert group.n == 272 and type(group.generators[0].image) is tuple
        trace = run_chain(ClauseModel(clause_set), ChainKind.ORBITAL_GIBBS, 500, seed=43,
                          group=group, mode=SamplerMode.PRODUCT_REPLACEMENT)
        assert all(type(s) is bytes and len(s) == 272 for s in trace.states)
        assert all(satisfied_by(c, s) for s in trace.states
                   for c in clause_set.clauses if c.is_hard)
        assert len(set(trace.states)) > 250  # the resample moves the states


def bound_loop_case(name: str):
    """(model, group, base kind, orbital kind) for the bound-loop tests."""
    if name in ("grid3", "K9"):
        graph = gen_grid(3) if name == "grid3" else gen_complete(3)
        return (IndependentSetModel(graph, 1.5), automorphism_generators(graph),
                ChainKind.INSERT_DELETE, ChainKind.ORBITAL_INSERT_DELETE)
    clause_set, evidence = gen_friends_smokers(4, 0.5, 1)  # 18 free of 24 variables
    return (ClauseModel(clause_set, evidence),
            model_symmetry_group(clause_set, evidence).model_group,
            ChainKind.GIBBS, ChainKind.ORBITAL_GIBBS)


class TestBoundLoop:
    """`run_chain` binds its step loop once; its traces are those of the
    one-call references, for every kind and sampler mode."""

    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize("mode", list(SamplerMode))
    @pytest.mark.parametrize("orbital", [False, True], ids=["base", "orbital"])
    @pytest.mark.parametrize("name", ["grid3", "K9", "fs4e"])
    def test_traces_equal_the_references(self, name, orbital, mode, record_every):
        model, group, base, orbital_kind = bound_loop_case(name)
        kind = orbital_kind if orbital else base
        trace = run_chain(model, kind, 300, seed=71, record_every=record_every,
                          group=group, mode=mode)
        assert len(trace.states) == 300 // record_every + 1
        assert trace.states == reference_chain(model, kind, 300, 71, record_every, group, mode)

    @pytest.mark.parametrize("record_every", [1, 3])
    def test_pr_on_tuple_images_equals_the_reference(self, record_every):
        # fs16: 272 variables, so the group's images are tuples
        clause_set, _ = gen_friends_smokers(16)
        group = model_symmetry_group(clause_set).model_group
        assert group.n == 272 and type(group.generators[0].image) is tuple
        model, pr = ClauseModel(clause_set), SamplerMode.PRODUCT_REPLACEMENT
        trace = run_chain(model, ChainKind.ORBITAL_GIBBS, 200, seed=72,
                          record_every=record_every, group=group, mode=pr)
        assert trace.states == reference_chain(model, ChainKind.ORBITAL_GIBBS, 200, 72,
                                               record_every, group, pr)

    @pytest.mark.parametrize("mode", list(SamplerMode))
    @pytest.mark.parametrize("name", ["grid3", "fs4e"])
    def test_trivial_group_draws_nothing(self, name, mode):
        model, _, base, orbital_kind = bound_loop_case(name)
        trivial = PermutationGroup([], n=model.n)
        trace = run_chain(model, orbital_kind, 300, seed=73, record_every=3,
                          group=trivial, mode=mode)
        assert trace.states == run_chain(model, base, 300, seed=73, record_every=3).states
        assert trace.states == reference_chain(model, orbital_kind, 300, 73, 3, trivial, mode)

    @pytest.mark.parametrize("mode", list(SamplerMode))
    def test_wrong_size_group_rejected_before_any_draw(self, mode):
        model = IndependentSetModel(gen_grid(3), 1.0)
        for group in (PermutationGroup([], n=8), PermutationGroup([parse_cycles("(0 1)", n=8)])):
            with pytest.raises(ValueError, match="length 9 != domain size 8"):
                run_chain(model, ChainKind.ORBITAL_INSERT_DELETE, 0, seed=0,
                          group=group, mode=mode)


class TestOneCallApis:
    """The one-call APIs bind per call and draw what the bound closures draw."""

    def test_both_step_names_are_one_function(self):
        assert gibbs_step is insert_delete_step

    @pytest.mark.parametrize("name", ["grid3", "K9", "fs4e"])
    def test_step_equals_a_stepper_on_a_clone(self, name):
        model = bound_loop_case(name)[0]
        rng, clone = Random(74), Random(74)
        step = model.stepper(clone)
        one_call = gibbs_step if model.base is ChainKind.GIBBS else insert_delete_step
        state = expected = model.start
        for _ in range(2000):
            state, expected = one_call(model, state, rng), step(expected)
            assert state == expected
        assert rng.getstate() == clone.getstate()

    @pytest.mark.parametrize("mode", list(SamplerMode))
    @pytest.mark.parametrize("group", [
        pytest.param(PermutationGroup([], n=9), id="trivial"),
        pytest.param(automorphism_generators(gen_grid(3)), id="grid3-bytes"),
        pytest.param(PermutationGroup([parse_cycles(f"({i} {i + 1})", n=300)
                                       for i in (0, 298)]), id="300-tuples")])
    def test_sample_rejects_a_wrong_length_unchanged(self, group, mode):
        rng = Random(76)
        sampler = OrbitSampler(group, mode, rng)
        before = rng.getstate()
        for bits in (bytes(group.n - 1), bytes(group.n + 1)):
            with pytest.raises(ValueError, match=f"!= domain size {group.n}"):
                sampler.sample(bits)
        assert rng.getstate() == before

    @pytest.mark.parametrize("mode", list(SamplerMode))
    @pytest.mark.parametrize("n", [3, 300])  # images as bytes, then as tuples
    def test_a_state_not_bytes_is_rejected_unchanged(self, n, mode):
        """`sample` and `apply_config` take `bytes` alone, at every n: a
        tuple, list or bytearray state raises TypeError before any draw."""
        group = PermutationGroup([parse_cycles("(0 1)", n=n)])
        rng = Random(77)
        sampler = OrbitSampler(group, mode, rng)
        before = rng.getstate()
        for form in (tuple, list, bytearray):
            bits = form(b"\x01" + bytes(n - 1))
            with pytest.raises(TypeError, match="configuration is bytes"):
                sampler.sample(bits)
            with pytest.raises(TypeError, match="configuration is bytes"):
                group.generators[0].apply_config(bits)
        assert rng.getstate() == before


def contract_case(name: str):
    """(model, group, enumerable) for the state-contract test."""
    if name in ("grid3", "grid17"):  # grid 17: 289 variables, images stored as tuples
        graph = gen_grid(3 if name == "grid3" else 17)
        return IndependentSetModel(graph, 1.0), automorphism_generators(graph), name == "grid3"
    if name == "fs6-pinned":
        clause_set, evidence = gen_friends_smokers(6)[0], FS_EVIDENCE
    else:
        clause_set, evidence = HARD_PAIRS, {"a": True} if name == "hard-pairs-pinned" else {}
    group = model_symmetry_group(clause_set, evidence).model_group
    return ClauseModel(clause_set, evidence), group, name != "fs6-pinned"


class TestStateContract:
    """Every state the package hands out is `bytes` of the model's length,
    one 0/1 byte per variable: the one form `ExactDistribution.index_of`,
    `tv_curve` and `Permutation.apply_config` take."""

    @staticmethod
    def assert_configs(states, n: int):
        assert all(type(s) is bytes and len(s) == n for s in states)
        assert set(b"".join(states)) <= {0, 1}

    @pytest.mark.parametrize("name", ["grid3", "grid17", "hard-pairs", "hard-pairs-pinned",
                                      "fs6-pinned"])
    def test_every_state_is_bytes_of_the_model_length(self, name):
        model, group, enumerable = contract_case(name)
        n = model.n
        self.assert_configs([model.start], n)
        kinds = [kind for kind in ChainKind if kind.base is model.base]
        for kind in kinds:
            for mode in SamplerMode:
                trace = run_chain(model, kind, 100, seed=81, group=group, mode=mode)
                self.assert_configs(trace.states, n)
        for mode in SamplerMode:
            sampler, step = OrbitSampler(group, mode, Random(82)), model.stepper(Random(83))
            state = model.start
            for _ in range(20):
                state = sampler.sample(step(state))
                self.assert_configs([state], n)
        if enumerable:
            self.assert_configs(model.states(), n)
            self.assert_configs(exact_distribution(model).states, n)
            for kind in kinds:
                self.assert_configs(transition_matrix(model, kind, group).space.states, n)
