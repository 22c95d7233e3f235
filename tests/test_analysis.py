"""Exact enumeration, transition matrices, TV curves, mixing and coupling."""

import dataclasses
import itertools
import math
import tracemalloc
from random import Random

import numpy as np
import pytest

from orbitalmcmc import analysis, chains
from orbitalmcmc.analysis import (
    CouplingSimulator,
    ExactDistribution,
    TransitionMatrix,
    check_detailed_balance,
    coupling_drift,
    exact_distribution,
    exact_pi_lambda,
    is_connected,
    mixing_time,
    representative_rows,
    stationary_deviation,
    transition_matrix,
    tv_curve,
)
from orbitalmcmc.autgroup import automorphism_generators
from orbitalmcmc.chains import (ChainKind, ChainTrace, ClauseModel, IndependentSetModel,
                                run_chain)
from orbitalmcmc.clauses import model_symmetry_group, parse_clause_file
from orbitalmcmc.errors import GuardExceededError
from orbitalmcmc.families import (gen_complete, gen_connected_cliques,
                                  gen_friends_smokers, gen_grid)
from orbitalmcmc.graphs import Graph, enumerate_independent_sets
from orbitalmcmc.perm import (Permutation, PermutationGroup, SamplerMode, orbit_ids,
                              parse_cycles)

from helpers import (coupling_drift_by_steps, distance_one_pairs, exact_rho, exact_varrho,
                     two_spin_model)

NAMES9 = list("abcdefghi")


def grid3_group() -> PermutationGroup:
    return PermutationGroup([parse_cycles("(a c)(d f)(g i)", names=NAMES9),
                             parse_cycles("(a i)(b f)(d h)", names=NAMES9)])


def stationary_power_iteration(rows: np.ndarray, sweeps: int = 200_000,
                               tol: float = 1e-14) -> np.ndarray:
    pi = np.full(len(rows), 1.0 / len(rows))
    for _ in range(sweeps):
        nxt = pi @ rows
        if np.abs(nxt - pi).max() < tol:
            return nxt
        pi = nxt
    return pi


class TestEnumeration:
    def test_edgeless(self):
        graph = Graph(4, [])
        assert len(enumerate_independent_sets(graph)) == 16

    def test_complete_graph(self):
        sets = enumerate_independent_sets(gen_complete(3))
        assert len(sets) == 10
        assert all(sum(s) <= 1 for s in sets)

    def test_grid_against_subset_filter(self):
        graph = gen_grid(3)
        oracle = [bytes(bits) for bits in itertools.product((0, 1), repeat=9)
                  if graph.is_independent(bits)]
        assert enumerate_independent_sets(graph) == sorted(oracle)

    def test_vertex_guard(self):
        with pytest.raises(GuardExceededError):
            enumerate_independent_sets(Graph(25, []))

    def test_large_independent_set_trips_the_cap_at_once(self):
        # 2,000 isolated vertices: a depth-first scan would recurse past
        # Python's limit long before a million sets; 2^21 subsets exceed it
        with pytest.raises(GuardExceededError, match="more than 1000000"):
            enumerate_independent_sets(Graph(2000, []))

    @pytest.mark.parametrize("cap,ok", [("8", True), ("7", False)])
    def test_subset_bound_is_exact(self, monkeypatch, cap, ok):
        # three isolated vertices: one set of size 3, 2^3 = 8 sets in all
        monkeypatch.setenv("ORBITAL_GUARD", cap)
        if ok:
            assert len(enumerate_independent_sets(Graph(3, []))) == 8
        else:
            with pytest.raises(GuardExceededError):
                enumerate_independent_sets(Graph(3, []))


class TestExactDistributions:
    def test_single_vertex(self):
        dist = exact_pi_lambda(Graph(1, []), 1.0)
        assert dist.probs == pytest.approx([0.5, 0.5])

    def test_complete_graph_lambda_one(self):
        dist = exact_pi_lambda(gen_complete(3), 1.0)
        assert dist.partition_value == pytest.approx(10.0)
        assert dist.probs == pytest.approx([0.1] * 10)

    def test_lambda_weighting(self):
        dist = exact_pi_lambda(Graph(1, []), 3.0)
        assert dist.prob_of((1,)) == pytest.approx(0.75)

    def test_two_spin_distribution(self):
        dist = exact_distribution(ClauseModel(two_spin_model()))
        expected = {(0, 0): 0.01, (0, 1): 0.49, (1, 0): 0.49, (1, 1): 0.01}
        for state, p in expected.items():
            assert dist.prob_of(state) == pytest.approx(p, abs=1e-12)

    def test_orbit_constancy(self):
        model = IndependentSetModel(gen_grid(3), 1.0)
        matrix = transition_matrix(model, ChainKind.INSERT_DELETE, grid3_group())
        dist = exact_pi_lambda(gen_grid(3), 1.0)
        assert matrix.states == dist.states
        for s in matrix.action:
            assert np.abs(dist.probs[s] - dist.probs).max() <= 1e-12


class TestTransitionMatrices:
    def test_trivial_group_orbital_equals_base(self):
        model = IndependentSetModel(gen_grid(3), 1.0)
        base = transition_matrix(model, ChainKind.INSERT_DELETE)
        orbital = transition_matrix(model, ChainKind.ORBITAL_INSERT_DELETE,
                                    group=PermutationGroup([], n=9))
        assert np.allclose(base.rows, orbital.rows, atol=0)

    def test_group_must_preserve_state_space(self):
        # on the path 0-1-2, swapping 0 and 1 maps {0, 2} to {1, 2}
        model = IndependentSetModel(Graph(3, [(0, 1), (1, 2)]), 1.0)
        swap = PermutationGroup([parse_cycles("(0 1)", n=3)])
        with pytest.raises(ValueError, match="does not preserve the state space"):
            transition_matrix(model, ChainKind.ORBITAL_INSERT_DELETE, group=swap)

    def test_insert_delete_stationary_matches_pi(self):
        model = IndependentSetModel(gen_grid(3), 1.0)
        matrix = transition_matrix(model, ChainKind.INSERT_DELETE)
        pi = exact_pi_lambda(gen_grid(3), 1.0)
        assert stationary_deviation(matrix, pi) < 1e-14

    def test_orbital_stationary_by_power_iteration(self):
        model = IndependentSetModel(gen_grid(3), 1.0)
        matrix = transition_matrix(model, ChainKind.ORBITAL_INSERT_DELETE,
                                   group=grid3_group())
        pi = exact_pi_lambda(gen_grid(3), 1.0)
        left = stationary_power_iteration(matrix.rows)
        assert np.abs(left - pi.probs).max() < 1e-10

    def test_base_kernel_symmetry_compatibility(self):
        model = IndependentSetModel(gen_grid(3), 1.0)
        matrix = transition_matrix(model, ChainKind.INSERT_DELETE)
        index = {s: i for i, s in enumerate(matrix.states)}
        for g in grid3_group().generators:
            for i, x in enumerate(matrix.states):
                gi = index[g.apply_config(x)]
                for j, y in enumerate(matrix.states):
                    gj = index[g.apply_config(y)]
                    assert abs(matrix.rows[i, j] - matrix.rows[gi, gj]) <= 1e-12

    def test_detailed_balance_two_spin_orbital_gibbs(self):
        model = ClauseModel(two_spin_model())
        group = PermutationGroup([parse_cycles("(0 1)", n=2)])
        matrix = transition_matrix(model, ChainKind.ORBITAL_GIBBS, group=group)
        pi = exact_distribution(ClauseModel(two_spin_model()))
        report = check_detailed_balance(matrix, pi, tol=1e-12)
        assert report.passed

    def test_detailed_balance_fails_for_wrong_pi(self):
        rows = np.array([[0.9, 0.1], [0.5, 0.5]])
        matrix = TransitionMatrix(((0,), (1,)), rows)
        wrong = ExactDistribution(((0,), (1,)), [0.5, 0.5], 1.0)
        assert not check_detailed_balance(matrix, wrong, tol=1e-12).passed

    def test_structure_flags(self):
        model = IndependentSetModel(gen_connected_cliques(3), 1.0)
        group = automorphism_generators(gen_connected_cliques(3))
        for kind, g in ((ChainKind.INSERT_DELETE, None),
                        (ChainKind.ORBITAL_INSERT_DELETE, group)):
            matrix = transition_matrix(model, kind, group=g)
            assert (np.diag(matrix.rows) > 0).all()
            assert is_connected(matrix)

    def test_orbital_kernels_leave_pi_stationary(self):
        for graph in (gen_grid(3), gen_connected_cliques(3)):
            group = automorphism_generators(graph)
            model = IndependentSetModel(graph, 1.0)
            matrix = transition_matrix(model, ChainKind.ORBITAL_INSERT_DELETE,
                                       group=group)
            pi = exact_pi_lambda(graph, 1.0)
            assert stationary_deviation(matrix, pi) <= 1e-10


# friends-smokers over three people (12 variables) with one and with two
# people's smoking clamped
FS3_EVIDENCE = [{"smokes_p0": False}, {"smokes_p0": True, "smokes_p2": False}]


class TestEvidence:
    @pytest.mark.parametrize("evidence", FS3_EVIDENCE, ids=["one", "two"])
    def test_conditioned_pi_is_renormalised_restriction(self, evidence):
        clause_set, _ = gen_friends_smokers(3)
        full = exact_distribution(ClauseModel(clause_set))
        cond = exact_distribution(ClauseModel(clause_set, evidence))
        pinned = [(clause_set.var_index(name), int(value))
                  for name, value in evidence.items()]
        keep = [i for i, s in enumerate(full.states)
                if all(s[v] == b for v, b in pinned)]
        assert len(cond) == len(full) >> len(evidence)
        assert cond.states == tuple(full.states[i] for i in keep)
        restricted = full.probs[keep] / full.probs[keep].sum()
        assert np.abs(cond.probs - restricted).max() <= 1e-15

    @pytest.mark.parametrize("evidence", FS3_EVIDENCE, ids=["one", "two"])
    def test_gibbs_kernels_balance_conditioned_pi(self, evidence):
        clause_set, _ = gen_friends_smokers(3)
        model = ClauseModel(clause_set, evidence)
        group = model_symmetry_group(clause_set, evidence).model_group
        pi = exact_distribution(model)
        for kind in (ChainKind.GIBBS, ChainKind.ORBITAL_GIBBS):
            matrix = transition_matrix(model, kind, group=group)
            # two clamped people leave no generators, and so no action
            for s in () if matrix.action is None else matrix.action:
                assert np.abs(pi.probs[s] - pi.probs).max() <= 1e-15
            assert check_detailed_balance(matrix, pi, tol=1e-15).passed
            assert stationary_deviation(matrix, pi) <= 1e-12
            assert is_connected(matrix)

    def test_group_without_evidence_leaves_state_space(self):
        clause_set, _ = gen_friends_smokers(3)
        model = ClauseModel(clause_set, FS3_EVIDENCE[0])
        unconditioned = model_symmetry_group(clause_set).model_group
        for kind in (ChainKind.GIBBS, ChainKind.ORBITAL_GIBBS):
            with pytest.raises(ValueError, match="does not preserve the state space"):
                transition_matrix(model, kind, group=unconditioned)

    def test_fully_clamped_kernel_stays(self):
        model = ClauseModel(two_spin_model(), {"x1": True, "x2": False})
        matrix = transition_matrix(model, ChainKind.GIBBS)
        assert matrix.states == (bytes((1, 0)),)
        assert matrix.rows.tolist() == [[1.0]]
        assert exact_distribution(model).probs.tolist() == [1.0]


class TestTotalVariation:
    def test_empirical_rejects_foreign_state(self):
        universe = exact_pi_lambda(Graph(2, [(0, 1)]), 1.0)
        with pytest.raises(KeyError):
            tv_curve(ChainTrace([(1, 1)]), universe, [1])

    def test_sampled_orbital_chain_approaches_pi(self):
        graph = gen_complete(3)
        model = IndependentSetModel(graph, 1.0)
        group = automorphism_generators(graph)
        pi = exact_pi_lambda(graph, 1.0)
        trace = run_chain(model, ChainKind.ORBITAL_INSERT_DELETE, 100_000,
                          seed=50, group=group,
                          mode=SamplerMode.PRODUCT_REPLACEMENT)
        assert tv_curve(trace, pi, [len(trace.states)]).points[-1][1] < 0.02

    def test_curve_is_cumulative(self):
        graph = gen_complete(3)
        model = IndependentSetModel(graph, 1.0)
        pi = exact_pi_lambda(graph, 1.0)
        trace = run_chain(model, ChainKind.INSERT_DELETE, 5000, seed=51)
        series = tv_curve(trace, pi, checkpoints=[1, 10, 100, 1000, 5001])
        assert [s for s, _ in series.points] == [1, 10, 100, 1000, 5001]
        assert all(0.0 <= d <= 1.0 for _, d in series.points)
        # the first checkpoint sees only the deterministic initial state
        assert series.points[0][1] == pytest.approx(1 - pi.prob_of((0,) * 9))
        assert series.points[-1][1] < series.points[0][1]
        assert series.auc() > 0


class TestMixingTime:
    def test_already_mixed(self):
        states = tuple((i,) for i in range(3))
        pi = np.array([0.2, 0.3, 0.5])
        matrix = TransitionMatrix(states, np.tile(pi, (3, 1)))
        dist = ExactDistribution(states, pi, 1.0)
        assert mixing_time(matrix, dist, 0.5) == 1
        assert mixing_time(matrix, dist, 0.01) == 1

    def test_complete_graph_bound(self):
        graph = gen_complete(3)
        model = IndependentSetModel(graph, 1.0)
        group = automorphism_generators(graph)
        matrix = transition_matrix(model, ChainKind.ORBITAL_INSERT_DELETE,
                                   group=group)
        pi = exact_pi_lambda(graph, 1.0)
        tau = mixing_time(matrix, pi, 0.01)
        assert tau <= math.ceil(9 * math.log(9 / 0.01))

    def test_orbital_not_slower_on_grid(self):
        # deterministic matrices, so this instance-level observation is stable
        model = IndependentSetModel(gen_grid(3), 1.0)
        pi = exact_pi_lambda(gen_grid(3), 1.0)
        base = transition_matrix(model, ChainKind.INSERT_DELETE)
        orbital = transition_matrix(model, ChainKind.ORBITAL_INSERT_DELETE,
                                    group=grid3_group())
        tau_base = mixing_time(base, pi, 0.1)
        tau_orb = mixing_time(orbital, pi, 0.1)
        assert tau_orb <= tau_base

    def test_reducible_and_one_way_chains_rejected(self):
        states = tuple((i,) for i in range(4))
        # two closed classes, {0, 1} and {2, 3}
        reducible = [[.5, .5, 0, 0], [.5, .5, 0, 0], [0, 0, .5, .5], [0, 0, .5, .5]]
        # 0 -> 1 -> 2 -> 3 and no way back: forward from 0 reaches every state
        one_way = [[.5, .5, 0, 0], [0, .5, .5, 0], [0, 0, .5, .5], [0, 0, 0, 1.]]
        cycle = [[.5, .5, 0, 0], [0, .5, .5, 0], [0, 0, .5, .5], [.5, 0, 0, .5]]
        uniform = ExactDistribution(states, [0.25] * 4, 1.0)
        for rows in (reducible, one_way):
            matrix = TransitionMatrix(states, np.array(rows))
            assert not is_connected(matrix)
            with pytest.raises(ValueError, match="not irreducible"):
                mixing_time(matrix, uniform, 0.1)
        assert is_connected(TransitionMatrix(states, np.array(cycle)))

    def test_horizon_error(self):
        states = ((0,), (1,))
        rows = np.array([[1 - 1e-9, 1e-9], [1e-9, 1 - 1e-9]])
        matrix = TransitionMatrix(states, rows)
        dist = ExactDistribution(states, [0.5, 0.5], 1.0)
        with pytest.raises(GuardExceededError):
            mixing_time(matrix, dist, 0.01)


def tau_digest_cases():
    """The graphs and groups of the pinned mixing-time digest."""
    graphs = [gen_grid(3), gen_connected_cliques(3), gen_complete(2), gen_complete(3)]
    graphs += [Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
               for n in range(4, 9)]
    return [(graph, automorphism_generators(graph)) for graph in graphs]


class TestOrbitQuotient:
    def test_lumped_equals_dense_on_digest_cases(self):
        for graph, group in tau_digest_cases():
            for lam in (0.5, 1.0, 2.0):
                model = IndependentSetModel(graph, lam)
                pi = exact_pi_lambda(graph, lam)
                matrix = transition_matrix(model, ChainKind.ORBITAL_INSERT_DELETE, group)
                dense = dataclasses.replace(matrix, action=None)
                for eps in (0.1, 0.01):
                    assert mixing_time(matrix, pi, eps) == mixing_time(dense, pi, eps)

    @pytest.mark.parametrize("make,k,taus", [(gen_grid, 4, (83, 159)),
                                             (gen_connected_cliques, 4, (115, 236))])
    def test_lumped_equals_dense_at_four(self, make, k, taus):
        graph = make(k)
        pi = exact_pi_lambda(graph, 1.0)
        matrix = transition_matrix(IndependentSetModel(graph, 1.0),
                                   ChainKind.ORBITAL_INSERT_DELETE,
                                   automorphism_generators(graph))
        dense = dataclasses.replace(matrix, action=None)
        for eps, tau in zip((0.1, 0.01), taus):
            assert mixing_time(matrix, pi, eps) == mixing_time(dense, pi, eps) == tau

    def test_base_kernels_keep_the_action_not_orbit_ids(self):
        model = IndependentSetModel(gen_grid(3), 1.0)
        pi = exact_pi_lambda(gen_grid(3), 1.0)
        base = transition_matrix(model, ChainKind.INSERT_DELETE, grid3_group())
        assert base.action.shape == (2, 63)
        assert transition_matrix(model, ChainKind.INSERT_DELETE).action is None
        rows, same_pi, gather = representative_rows(base, pi)
        m = len(rows)
        assert m < 63 and rows.shape == (m, 63) and gather.shape == (63, 63)
        assert same_pi is pi.probs
        orbital = transition_matrix(model, ChainKind.ORBITAL_INSERT_DELETE, grid3_group())
        rows, lumped_pi, gather = representative_rows(orbital, pi)
        assert rows.shape == (m, m) and lumped_pi.shape == (m,) and gather is None

    def test_quotient_is_the_lumped_kernel(self):
        clause_set, _ = gen_friends_smokers(3)
        evidence = FS3_EVIDENCE[0]
        fs3 = (ClauseModel(clause_set, evidence), ChainKind.ORBITAL_GIBBS,
               model_symmetry_group(clause_set, evidence).model_group)
        for model, kind, group in (
                (IndependentSetModel(gen_grid(3), 2.0), ChainKind.ORBITAL_INSERT_DELETE,
                 grid3_group()),
                (IndependentSetModel(gen_connected_cliques(3), 0.5),
                 ChainKind.ORBITAL_INSERT_DELETE,
                 automorphism_generators(gen_connected_cliques(3))),
                fs3):
            matrix = transition_matrix(model, kind, group)
            pi = exact_distribution(model)
            rows, lumped_pi, gather = representative_rows(matrix, pi)
            assert gather is None
            ids = orbit_ids(matrix.action)
            reps = [list(ids).index(o) for o in dict.fromkeys(ids.tolist())]
            # per-orbit sums, in the order of the representatives
            assert np.abs(lumped_pi
                          - np.bincount(ids, weights=pi.probs)[ids[reps]]).max() <= 1e-15
            for a, r in enumerate(reps):
                expected = np.bincount(ids, weights=matrix.rows[r])[ids[reps]]
                assert np.abs(rows[a] - expected).max() <= 1e-15
            states = tuple(matrix.states[r] for r in reps)
            assert check_detailed_balance(TransitionMatrix(states, rows),
                                          ExactDistribution(states, lumped_pi, 1.0),
                                          tol=1e-15).passed

    def test_base_kernel_with_orbit_ids_rejected(self):
        # the swap of states 1 and 2: the first states 0 and 1 have rows
        # constant on {1, 2}, and rows 1 and 2 lump alike, but row 2 is not
        # constant on {1, 2}
        states = tuple((i,) for i in range(3))
        rows = np.array([[.5, .25, .25], [.2, .4, .4], [.2, .3, .5]])
        matrix = TransitionMatrix(states, rows, action=np.array([[0, 2, 1]]))
        dist = ExactDistribution(states, [0.2, 0.4, 0.4], 1.0)
        with pytest.raises(ValueError, match="columns are not constant on orbits"):
            mixing_time(matrix, dist, 0.1)

    def test_group_not_preserving_the_kernel_rejected(self):
        # swapping a and b preserves the four states but not the weights
        model = ClauseModel(parse_clause_file("vars: a b\n0.5 :: a\n"))
        swap = PermutationGroup([parse_cycles("(0 1)", n=2)])
        matrix = transition_matrix(model, ChainKind.ORBITAL_GIBBS, group=swap)
        with pytest.raises(ValueError, match="rows differ within an orbit"):
            mixing_time(matrix, exact_distribution(model), 0.1)

    def test_pi_not_constant_on_orbits_rejected(self):
        # the kernel commutes with the swap of states 1 and 2, its rows are
        # not constant on {1, 2}, and pi is not invariant under the swap
        states = tuple((i,) for i in range(3))
        rows = np.array([[.5, .25, .25], [.2, .5, .3], [.2, .3, .5]])
        matrix = TransitionMatrix(states, rows, action=np.array([[0, 2, 1]]))
        dist = ExactDistribution(states, [0.2, 0.3, 0.5], 1.0)
        invariant = ExactDistribution(states, [0.2, 0.4, 0.4], 1.0)
        assert representative_rows(matrix, invariant)[2] is not None  # M x N rows
        with pytest.raises(ValueError, match="pi is not invariant"):
            mixing_time(matrix, dist, 0.1)

    def test_trivial_group_equals_dense(self):
        # an asymmetric model: its group has no generators, every state is
        # its own orbit
        clause_set = parse_clause_file("vars: a b c\n0.5 :: a\n1.0 :: a | !b\n-0.3 :: c\n")
        group = model_symmetry_group(clause_set, {}).model_group
        model = ClauseModel(clause_set)
        pi = exact_distribution(model)
        dense = transition_matrix(model, ChainKind.GIBBS)
        for kind in (ChainKind.GIBBS, ChainKind.ORBITAL_GIBBS):
            matrix = transition_matrix(model, kind, group)
            assert matrix.action is None
            assert np.array_equal(matrix.rows, dense.rows)
            for eps in (0.1, 0.01):
                assert mixing_time(matrix, pi, eps) == mixing_time(dense, pi, eps)


class TestRepresentativeRows:
    def test_rep_rows_equal_dense_on_digest_cases(self):
        for graph, group in tau_digest_cases():
            for lam in (0.5, 1.0, 2.0):
                model = IndependentSetModel(graph, lam)
                pi = exact_pi_lambda(graph, lam)
                matrix = transition_matrix(model, ChainKind.INSERT_DELETE, group)
                assert matrix.action is not None
                dense = dataclasses.replace(matrix, action=None)
                for eps in (0.1, 0.01):
                    assert mixing_time(matrix, pi, eps) == mixing_time(dense, pi, eps)

    @pytest.mark.parametrize("make,k,taus", [(gen_grid, 4, (192, 405)),
                                             (gen_connected_cliques, 4, (115, 236))])
    def test_rep_rows_equal_dense_at_four(self, make, k, taus):
        graph = make(k)
        pi = exact_pi_lambda(graph, 1.0)
        matrix = transition_matrix(IndependentSetModel(graph, 1.0),
                                   ChainKind.INSERT_DELETE,
                                   automorphism_generators(graph))
        dense = dataclasses.replace(matrix, action=None)
        for eps, tau in zip((0.1, 0.01), taus):
            assert mixing_time(matrix, pi, eps) == mixing_time(dense, pi, eps) == tau

    def test_expanded_rows_of_the_square_are_the_square(self):
        clause_set, _ = gen_friends_smokers(3)
        evidence = FS3_EVIDENCE[0]
        fs3 = (ClauseModel(clause_set, evidence), ChainKind.GIBBS, ChainKind.ORBITAL_GIBBS,
               model_symmetry_group(clause_set, evidence).model_group)
        insert_delete = (ChainKind.INSERT_DELETE, ChainKind.ORBITAL_INSERT_DELETE)
        # a quarter turn has order 4: its index array is not its own inverse
        turn = PermutationGroup([parse_cycles("(a c i g)(b f h d)", names=NAMES9)])
        for model, kind, orbital, group in (
                (IndependentSetModel(gen_grid(3), 2.0), *insert_delete, grid3_group()),
                (IndependentSetModel(gen_grid(3), 2.0), *insert_delete, turn),
                (IndependentSetModel(gen_connected_cliques(3), 0.5), *insert_delete,
                 automorphism_generators(gen_connected_cliques(3))),
                fs3):
            matrix = transition_matrix(model, kind, group)
            reps, _, gather = representative_rows(matrix, exact_distribution(model))
            ids = orbit_ids(transition_matrix(model, orbital, group).action)
            assert len(reps) == len(set(ids.tolist())) < len(matrix.states)
            assert np.abs(reps.take(gather) - matrix.rows).max() <= 1e-12
            square = reps @ reps.take(gather)
            assert np.abs(square.take(gather) - matrix.rows @ matrix.rows).max() <= 1e-12

    def test_group_not_commuting_with_the_kernel_rejected(self):
        # swapping a and b preserves the four states but not the weights
        model = ClauseModel(parse_clause_file("vars: a b\n0.5 :: a\n"))
        swap = PermutationGroup([parse_cycles("(0 1)", n=2)])
        matrix = transition_matrix(model, ChainKind.GIBBS, group=swap)
        with pytest.raises(ValueError, match="does not commute with the group action"):
            mixing_time(matrix, exact_distribution(model), 0.1)

    def test_commutation_is_checked_where_the_kernel_is_zero(self):
        # g cycles four states; P(g x, g y) - P(x, y) stays within 1e-12 at
        # every nonzero (x, y), yet P(g 0, g 0) - P(0, 0) = 2.4e-12 while P(0, 0) = 0
        diag = np.array([0.0, 2.4, 1.6, 0.8]) * 1e-12
        rows = np.empty((4, 4))
        for x in range(4):
            rows[x, x] = diag[x]
            for j in (1, 2, 3):
                rows[x, (x + j) % 4] = 1 / 3 - diag[x] / 3
        states = tuple((i,) for i in range(4))
        matrix = TransitionMatrix(states, rows, action=np.array([[1, 2, 3, 0]]))
        with pytest.raises(ValueError, match="does not commute with the group action"):
            representative_rows(matrix, ExactDistribution(states, [0.25] * 4, 1.0))

    def test_pi_not_invariant_rejected(self):
        # the uniform kernel commutes with every permutation of the states
        states = tuple((i,) for i in range(3))
        matrix = TransitionMatrix(states, np.full((3, 3), 1 / 3),
                                  action=np.array([[1, 0, 2]]))
        dist = ExactDistribution(states, [0.2, 0.3, 0.5], 1.0)
        with pytest.raises(ValueError, match="pi is not invariant"):
            mixing_time(matrix, dist, 0.1)

    @pytest.mark.parametrize("action,message", [
        ([[0]], "does not match state count"),
        ([0, 1], "does not match state count"),
        ([[0, 0]], "does not permute the states"),
    ])
    def test_action_must_permute_the_states(self, action, message):
        with pytest.raises(ValueError, match=message):
            TransitionMatrix(((0,), (1,)), np.eye(2), action=np.array(action))


class TestKernelMemoryGuard:
    def test_guard_raises_before_allocating(self, monkeypatch):
        # 64 x 2,000 cells admit at most a 357 x 357 kernel; grid 4 has 1,234 states
        monkeypatch.setenv("ORBITAL_GUARD", "2000")
        model = IndependentSetModel(gen_grid(4), 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceededError, match="1234 x 1234"):
                transition_matrix(model, ChainKind.INSERT_DELETE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1234 * 1234 * 8 // 4

    def test_kernel_at_the_limit_is_built(self, monkeypatch):
        # grid 3 has 63 states: 63^2 = 3,969 <= 64 x 63 cells
        monkeypatch.setenv("ORBITAL_GUARD", "63")
        matrix = transition_matrix(IndependentSetModel(gen_grid(3), 1.0),
                                   ChainKind.INSERT_DELETE)
        assert matrix.rows.shape == (63, 63)


def hamming(a, b):
    return sum(x != y for x, y in zip(a, b))


class TestCoupling:
    def test_case_distance_contract(self):
        graph = gen_grid(3)
        model = IndependentSetModel(graph, 1.0)
        sim = CouplingSimulator(model, grid3_group())
        rng = Random(52)
        pairs = sim.pairs()
        seen_cases = set()
        for _ in range(4000):
            upper, lower = pairs[rng.randrange(len(pairs))]
            nu, nl, case = sim.step(upper, lower, rng)
            seen_cases.add(case)
            h = hamming(nu, nl)
            if case == 1:
                assert h == 0
            elif case in (2, 3, 5):
                assert h == 1
            else:
                assert h in (0, 1, 2)
            assert graph.is_independent(nu) and graph.is_independent(nl)
        assert seen_cases == {1, 2, 3, 4, 5}

    def test_case4_coalesces_under_full_symmetry(self):
        # on a complete graph every blocked/free insertion shares an orbit
        graph = gen_complete(2)
        model = IndependentSetModel(graph, 1.0)
        group = automorphism_generators(graph)
        sim = CouplingSimulator(model, group)
        rng = Random(53)
        upper = (1, 0, 0, 0)
        lower = (0, 0, 0, 0)
        for _ in range(500):
            nu, nl, case = sim.step(upper, lower, rng)
            if case == 4:
                assert hamming(nu, nl) in (0, 1)  # never drifts apart

    def test_case4_separates_without_symmetry(self):
        graph = Graph(3, [(0, 1), (1, 2)])  # path; trivial group
        model = IndependentSetModel(graph, 1.0)
        sim = CouplingSimulator(model, PermutationGroup([], n=3))
        rng = Random(54)
        upper, lower = (0, 1, 0), (0, 0, 0)
        distances = set()
        for _ in range(500):
            nu, nl, case = sim.step(upper, lower, rng)
            if case == 4:
                distances.add(hamming(nu, nl))
        assert 2 in distances

    def test_coalescence_test_does_not_scan_group(self, monkeypatch):
        # K_9 has 9! elements; deciding case 4 must not apply each of them
        graph = gen_complete(3)
        sim = CouplingSimulator(IndependentSetModel(graph, 1.0),
                                automorphism_generators(graph))
        calls = [0]
        apply_config = Permutation.apply_config

        def counted(self, bits):
            calls[0] += 1
            return apply_config(self, bits)

        monkeypatch.setattr(Permutation, "apply_config", counted)
        rng = Random(55)
        upper, lower = (1,) + (0,) * 8, (0,) * 9
        cases = set()
        for _ in range(200):
            calls[0] = 0
            _, _, case = sim.step(upper, lower, rng)
            cases.add(case)
            assert calls[0] <= 2
        assert 4 in cases

    def test_precondition_rejected(self):
        graph = gen_grid(3)
        model = IndependentSetModel(graph, 1.0)
        sim = CouplingSimulator(model, grid3_group())
        with pytest.raises(ValueError):
            sim.step((0,) * 9, (0,) * 9, Random(0))
        edge = (1, 1) + (0,) * 7  # a and b are adjacent
        with pytest.raises(ValueError, match="independent sets"):
            sim.step(edge, (1,) + (0,) * 8, Random(0))
        with pytest.raises(ValueError, match="independent sets"):
            sim.step((1,) + (0,) * 9, (0,) * 10, Random(0))

    def test_exact_rho_extremes(self):
        complete = gen_complete(2)
        sym = automorphism_generators(complete)
        assert CouplingSimulator(IndependentSetModel(complete, 1.0), sym).rho() == 0.0
        path = Graph(3, [(0, 1), (1, 2)])
        trivial = PermutationGroup([], n=3)
        assert CouplingSimulator(IndependentSetModel(path, 1.0), trivial).rho() == 1.0

    def test_exact_rho_grid4_below_one(self):
        grid4 = gen_grid(4)
        group = automorphism_generators(grid4)
        assert group.order() == 8
        rho = CouplingSimulator(IndependentSetModel(grid4, 1.0), group).rho()
        assert 0.0 < rho < 1.0

    @pytest.mark.parametrize("graph,trivial", [
        (gen_grid(3), False), (gen_grid(4), False), (gen_connected_cliques(3), False),
        (gen_complete(2), False), (gen_complete(3), False),
        (Graph(3, [(0, 1), (1, 2)]), True)],
        ids=["grid3", "grid4", "cliques3", "complete2", "complete3", "path3-trivial"])
    def test_constants_equal_the_oracles(self, graph, trivial):
        group = (PermutationGroup([], n=graph.n) if trivial
                 else automorphism_generators(graph))
        sim = CouplingSimulator(IndependentSetModel(graph, 1.0), group)
        assert sim.pairs() == distance_one_pairs(graph)
        assert sim.rho() == exact_rho(graph, group)
        assert sim.varrho() == exact_varrho(graph)

    def test_drift_enumerates_and_maps_orbits_once(self, monkeypatch):
        calls = {"enumerate_independent_sets": 0, "state_action": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # both modules' references, through which the coupling reaches them
        for module in (analysis, chains):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        coupling_drift(IndependentSetModel(gen_grid(3), 1.0), grid3_group(), trials=100)
        assert calls == {"enumerate_independent_sets": 1, "state_action": 1}

    @pytest.mark.parametrize("graph,trivial", [
        (gen_grid(3), False), (gen_connected_cliques(3), False), (gen_complete(2), False),
        (Graph(3, [(0, 1), (1, 2)]), True)],
        ids=["grid3", "cliques3", "complete2", "path3-trivial"])
    def test_drift_equals_the_step_loop(self, graph, trivial):
        group = (PermutationGroup([], n=graph.n) if trivial
                 else automorphism_generators(graph))
        model = IndependentSetModel(graph, 1.0)
        for seed, trials in itertools.product((0, 1, 78), (1, 2, 1023, 4099)):
            assert (coupling_drift(model, group, trials, seed)
                    == coupling_drift_by_steps(model, group, trials, seed)), (seed, trials)

    def test_drift_memory_does_not_grow_with_trials(self):
        model = IndependentSetModel(gen_grid(3), 1.0)
        group = grid3_group()
        tracemalloc.start()
        try:
            coupling_drift(model, group, trials=300_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_drift_never_lists_the_group(self, monkeypatch):
        # K_9 has 9! elements, past a cap of 100: the drift draws only an index
        graph = gen_complete(3)
        model, group = IndependentSetModel(graph, 1.0), automorphism_generators(graph)
        monkeypatch.setenv("ORBITAL_GUARD", "100")
        with pytest.raises(GuardExceededError):
            group.image_array()
        capped = coupling_drift(model, group, trials=2000, seed=78)
        monkeypatch.delenv("ORBITAL_GUARD")
        assert capped == coupling_drift_by_steps(model, group, trials=2000, seed=78)

    def test_drift_satisfies_bound_grid3(self):
        model = IndependentSetModel(gen_grid(3), 1.0)
        report = coupling_drift(model, grid3_group(), trials=20_000, seed=55)
        assert sum(report.case_counts.values()) == 20_000
        assert 0.0 <= report.rho <= 1.0
        assert report.expected_drift <= report.bound + 3 * report.drift_se

    def test_marginal_faithfulness_small(self):
        graph = gen_grid(3)
        model = IndependentSetModel(graph, 1.0)
        group = grid3_group()
        matrix = transition_matrix(model, ChainKind.ORBITAL_INSERT_DELETE,
                                   group=group)
        dist = exact_distribution(model)
        assert dist.states == matrix.states
        sim = CouplingSimulator(model, group)
        rng = Random(56)
        corner = NAMES9.index("a")
        middle = NAMES9.index("e")
        upper = tuple(1 if i in (corner, middle) else 0 for i in range(9))
        lower = tuple(1 if i == middle else 0 for i in range(9))
        trials = 30_000
        counts_u = np.zeros(len(matrix.states))
        counts_l = np.zeros(len(matrix.states))
        for _ in range(trials):
            nu, nl, _ = sim.step(upper, lower, rng)
            counts_u[dist.index_of(nu)] += 1
            counts_l[dist.index_of(nl)] += 1
        for counts, start in ((counts_u, upper), (counts_l, lower)):
            row = matrix.rows[dist.index_of(start)]
            for freq, p in zip(counts / trials, row):
                se = math.sqrt(p * (1 - p) / trials)
                assert abs(freq - p) <= 3 * se + 1e-9

    def test_varrho_probability_range(self):
        for graph in (gen_grid(3), gen_complete(2)):
            v = CouplingSimulator(IndependentSetModel(graph, 1.0),
                                  automorphism_generators(graph)).varrho()
            assert 0.0 <= v <= 1.0
