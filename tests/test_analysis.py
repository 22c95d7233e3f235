"""Exact enumeration, transition matrices, TV curves, mixing and coupling."""

import dataclasses
import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path
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
from orbitalmcmc.errors import DEFAULT_ENUMERATION_CAP, GuardExceededError, enumeration_cap
from orbitalmcmc.families import (gen_complete, gen_connected_cliques,
                                  gen_friends_smokers, gen_grid)
from orbitalmcmc.graphs import Graph, enumerate_independent_sets
from orbitalmcmc import perm
from orbitalmcmc.perm import Permutation, PermutationGroup, SamplerMode, StateSpace, orbit_ids

from helpers import (HARD_PAIRS_TEXT, CoupledSteps, coupling_drift_by_steps,
                     distance_one_pairs, exact_rho, exact_varrho, parse_cycles,
                     reference_cases, reference_coupled_draw, reference_drift_draws,
                     reference_kernel, reference_lumping, reference_tv_curve,
                     two_spin_model, walk_gather)

NAMES9 = list("abcdefghi")


def grid3_group() -> PermutationGroup:
    return PermutationGroup([parse_cycles("(a c)(d f)(g i)", names=NAMES9),
                             parse_cycles("(a i)(b f)(d h)", names=NAMES9)])


def group_space(states, *images) -> StateSpace:
    """A `StateSpace` of `states` under the group of the given point images."""
    return StateSpace(states, PermutationGroup([Permutation(image) for image in images]))


# three 2-bit states, 00, 10 and 01; the swap of the two bits exchanges the last two
SWAP_SPACE = (b"\x00\x00", b"\x01\x00", b"\x00\x01"), [1, 0]


def without_group(matrix: TransitionMatrix) -> TransitionMatrix:
    """The kernel over the same states with no group: the dense computation."""
    return TransitionMatrix(StateSpace(matrix.space.states), matrix.rows)


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

    @pytest.mark.parametrize("raw,message", [
        ("abc", "ORBITAL_GUARD must be an integer, got 'abc'"),
        ("0", "ORBITAL_GUARD must be positive, got 0"),
        ("-3", "ORBITAL_GUARD must be positive, got -3")])
    def test_bad_guard_is_a_value_error(self, monkeypatch, raw, message):
        monkeypatch.setenv("ORBITAL_GUARD", raw)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enumeration_cap()

    def test_guard_default_and_override(self, monkeypatch):
        monkeypatch.delenv("ORBITAL_GUARD", raising=False)
        assert enumeration_cap() == DEFAULT_ENUMERATION_CAP
        monkeypatch.setenv("ORBITAL_GUARD", "12")
        assert enumeration_cap() == 12

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
        assert dist.probs[dist.index_of(b"\x01")] == pytest.approx(0.75)

    def test_two_spin_distribution(self):
        dist = exact_distribution(ClauseModel(two_spin_model()))
        expected = {(0, 0): 0.01, (0, 1): 0.49, (1, 0): 0.49, (1, 1): 0.01}
        for state, p in expected.items():
            assert dist.probs[dist.index_of(bytes(state))] == pytest.approx(p, abs=1e-12)

    def test_orbit_constancy(self):
        model = IndependentSetModel(gen_grid(3), 1.0)
        matrix = transition_matrix(model, ChainKind.INSERT_DELETE, grid3_group())
        dist = exact_pi_lambda(gen_grid(3), 1.0)
        assert matrix.space.states == dist.states
        for s in matrix.space.action:
            assert np.abs(dist.probs[s] - dist.probs).max() <= 1e-12

    def test_distribution_is_a_state_space_without_bits(self):
        # pi is read by index and probabilities alone: every judge below
        # leaves its 0/1 matrix unbuilt
        model = IndependentSetModel(gen_grid(3), 1.0)
        pi = exact_distribution(model)
        assert isinstance(pi, StateSpace) and pi.action is None and pi.orbits is None
        assert pi.index == {s: i for i, s in enumerate(pi.states)}
        trace = run_chain(model, ChainKind.ORBITAL_INSERT_DELETE, 200, seed=3,
                          group=grid3_group())
        tv_curve(trace, pi, [50, 201])
        for kind in (ChainKind.INSERT_DELETE, ChainKind.ORBITAL_INSERT_DELETE):
            matrix = transition_matrix(model, kind, grid3_group())
            check_detailed_balance(matrix, pi)
            stationary_deviation(matrix, pi)
            mixing_time(matrix, pi, 0.1)
        assert "bits" not in vars(pi)

    def test_repeated_state_rejected(self):
        with pytest.raises(ValueError, match="listed twice"):
            ExactDistribution((b"\x00", b"\x01", b"\x00"), [0.5, 0.25, 0.25], 1.0)


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
        index = {s: i for i, s in enumerate(matrix.space.states)}
        for g in grid3_group().generators:
            for i, x in enumerate(matrix.space.states):
                gi = index[g.apply_config(x)]
                for j, y in enumerate(matrix.space.states):
                    gj = index[g.apply_config(y)]
                    assert abs(matrix.rows[i, j] - matrix.rows[gi, gj]) <= 1e-12

    def test_detailed_balance_two_spin_orbital_gibbs(self):
        model = ClauseModel(two_spin_model())
        group = PermutationGroup([parse_cycles("(0 1)", n=2)])
        matrix = transition_matrix(model, ChainKind.ORBITAL_GIBBS, group=group)
        pi = exact_distribution(ClauseModel(two_spin_model()))
        report = check_detailed_balance(matrix, pi, tol=1e-12)
        assert report.passed

    def test_balance_blocks_equal_the_dense_formula(self):
        # the digest kernels in one block, grid 4 and cliques 4 (N > 512) in several
        kernels = []
        for graph in (gen_grid(3), gen_connected_cliques(3), gen_complete(3), gen_grid(4),
                      gen_connected_cliques(4)):
            model = IndependentSetModel(graph, 1.0)
            kernels += [(transition_matrix(model, kind, group=automorphism_generators(graph)),
                         exact_distribution(model)) for kind in ChainKind if kind.base is
                        ChainKind.INSERT_DELETE]
        model, swap = ClauseModel(two_spin_model()), PermutationGroup([parse_cycles("(0 1)", n=2)])
        kernels.append((transition_matrix(model, ChainKind.ORBITAL_GIBBS, swap),
                        exact_distribution(model)))
        # a planted violation: mass moved within the last row of grid 4's
        # base kernel, to the first state, a block away
        grid4 = IndependentSetModel(gen_grid(4), 1.0)
        matrix, pi = transition_matrix(grid4, ChainKind.INSERT_DELETE), exact_distribution(grid4)
        rows = matrix.rows.copy()
        rows[-1, 0] += 1e-3
        rows[-1, -1] -= 1e-3
        kernels.append((TransitionMatrix(matrix.space, rows), pi))
        for matrix, pi in kernels:
            flow = pi.probs[:, None] * matrix.rows
            dense = float(np.abs(flow - flow.T).max())
            assert check_detailed_balance(matrix, pi).max_violation == dense
        assert dense > 1e-9  # the planted one: pi of the last state times 1e-3

    def test_detailed_balance_fails_for_wrong_pi(self):
        rows = np.array([[0.9, 0.1], [0.5, 0.5]])
        matrix = TransitionMatrix(StateSpace((b"\x00", b"\x01")), rows)
        wrong = ExactDistribution((b"\x00", b"\x01"), [0.5, 0.5], 1.0)
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
            for s in () if matrix.space.action is None else matrix.space.action:
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
        assert matrix.space.states == (bytes((1, 0)),)
        assert matrix.rows.tolist() == [[1.0]]
        assert exact_distribution(model).probs.tolist() == [1.0]


def move_table_cases():
    """Models and groups for the byte-for-byte kernel oracle."""
    for name, graph in (("grid3", gen_grid(3)), ("grid4", gen_grid(4)),
                        ("cliques3", gen_connected_cliques(3)),
                        ("cliques4", gen_connected_cliques(4)),
                        ("complete2", gen_complete(2)), ("complete3", gen_complete(3))):
        yield pytest.param(IndependentSetModel(graph, 1.0), automorphism_generators(graph),
                           id=name)
    yield pytest.param(ClauseModel(two_spin_model()),
                       PermutationGroup([parse_cycles("(0 1)", n=2)]), id="two-spin")
    clause_set, _ = gen_friends_smokers(3)
    for evidence, name in ((None, "fs3"), (FS3_EVIDENCE[0], "fs3-evidence")):
        yield pytest.param(ClauseModel(clause_set, evidence),
                           model_symmetry_group(clause_set, evidence).model_group, id=name)
    hard = parse_clause_file(HARD_PAIRS_TEXT)  # a Gibbs move can find a value barred
    yield pytest.param(ClauseModel(hard), model_symmetry_group(hard).model_group,
                       id="hard-pairs")
    yield pytest.param(ClauseModel(two_spin_model(), {"x1": True, "x2": False}),
                       PermutationGroup([], n=2), id="fully-clamped")


class TestMoveTable:
    @pytest.mark.parametrize("model,group", move_table_cases())
    def test_kernel_equals_the_reference_loop(self, model, group):
        for kind in (model.base, ChainKind("orbital-" + model.base.value)):
            matrix = transition_matrix(model, kind, group=group)
            assert matrix.rows.tobytes() == reference_kernel(model, kind, group).tobytes()

    def test_one_table_per_kernel(self, monkeypatch):
        calls = []

        def spy(self, space):
            calls.append(space)
            return move_table(self, space)

        move_table = IndependentSetModel.move_table
        monkeypatch.setattr(IndependentSetModel, "move_table", spy)
        model, group = IndependentSetModel(gen_grid(3), 1.0), grid3_group()
        for kind in (ChainKind.INSERT_DELETE, ChainKind.ORBITAL_INSERT_DELETE):
            matrix = transition_matrix(model, kind, group=group)
            assert calls == [matrix.space]
            calls.clear()
        dist = exact_distribution(model)  # pi never builds a toggle table
        tv_curve(run_chain(model, ChainKind.INSERT_DELETE, 50, seed=1), dist, [10, 51])
        assert "flip" not in vars(dist)


class TestTotalVariation:
    def test_empirical_rejects_foreign_state(self):
        universe = exact_pi_lambda(Graph(2, [(0, 1)]), 1.0)
        with pytest.raises(KeyError):
            tv_curve(ChainTrace([b"\x01\x01"]), universe, [1])

    @pytest.mark.parametrize("form", [bytes, tuple])
    @pytest.mark.parametrize("states", [
        [(0, 0), (1, 0), (1, 1)],  # a foreign state after valid ones
        [(0, 0), (0,)],            # too short
        [(0, 1), (0, 1, 0)]])      # too long
    def test_empirical_rejects_any_unlisted_state(self, states, form):
        # a tuple is never a listed state, not even the first
        universe = exact_pi_lambda(Graph(2, [(0, 1)]), 1.0)
        trace = ChainTrace([form(s) for s in states])
        if form is bytes:
            assert tv_curve(trace, universe, [1]).points
        with pytest.raises(KeyError, match="not in the enumerated universe"):
            tv_curve(trace, universe, [len(states)])

    @pytest.mark.parametrize("form", [tuple, list])
    def test_states_not_bytes_are_rejected(self, form):
        graph = gen_grid(3)
        pi = exact_pi_lambda(graph, 1.0)
        trace = run_chain(IndependentSetModel(graph, 1.0), ChainKind.INSERT_DELETE, 2000, seed=52)
        other = ChainTrace([form(s) for s in trace.states])
        with pytest.raises((KeyError, TypeError)):
            tv_curve(other, pi, [1, 7, 100, 2001])
        with pytest.raises((KeyError, TypeError)):
            pi.index_of(other.states[0])
        assert pi.index_of(trace.states[0]) == 0

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
        assert series.points[0][1] == pytest.approx(1 - pi.probs[pi.index_of(bytes(9))])
        assert series.points[-1][1] < series.points[0][1]
        assert series.auc() > 0

    # graph-tv's checkpoints in perfbench: every 5th sample to 200, every
    # 20th to 4,000, and the last of 4,001
    GRAPH_TV_CHECKPOINTS = sorted(set(range(5, 200, 5)) | set(range(200, 4001, 20)) | {4001})

    @pytest.mark.parametrize("checkpoints", [
        GRAPH_TV_CHECKPOINTS, range(1, 4002), [4001], [4001, 17, 5, 17, 1, 900, 5, 2000]],
        ids=["graph-tv", "every-sample", "last-only", "unsorted-repeats"])
    @pytest.mark.parametrize("kind,mode", [
        (ChainKind.INSERT_DELETE, SamplerMode.EXACT),  # a base chain draws no orbit
        (ChainKind.ORBITAL_INSERT_DELETE, SamplerMode.EXACT),
        (ChainKind.ORBITAL_INSERT_DELETE, SamplerMode.PRODUCT_REPLACEMENT)],
        ids=["id", "orbital-id-exact", "orbital-id-pr"])
    @pytest.mark.parametrize("family", [gen_grid, gen_connected_cliques, gen_complete],
                             ids=["grid3", "cliques3", "K9"])
    def test_blocks_equal_the_checkpoint_loop(self, family, kind, mode, checkpoints):
        graph = family(3)
        group = automorphism_generators(graph) if kind.is_orbital else None
        trace = run_chain(IndependentSetModel(graph, 1.0), kind, 4000, seed=53,
                          group=group, mode=mode)
        pi = exact_pi_lambda(graph, 1.0)
        assert tv_curve(trace, pi, checkpoints).points == \
            reference_tv_curve(trace, pi, checkpoints).points

    def test_blocks_carry_counts_across_many_blocks(self):
        # grid 4 has 1,234 states, so blocks of 53 checkpoints: every sample
        # of a 20k-step trace falls in 378 blocks
        graph = gen_grid(4)
        pi = exact_pi_lambda(graph, 1.0)
        trace = run_chain(IndependentSetModel(graph, 1.0), ChainKind.INSERT_DELETE, 20_000,
                          seed=54)
        every = range(1, len(trace.states) + 1)
        points = tv_curve(trace, pi, every).points
        assert len(points) == 20_001
        assert points == reference_tv_curve(trace, pi, every).points

    def test_every_sample_as_a_checkpoint_stays_small(self):
        # a checkpoints x states array of counts would take 20,001 x 1,234 x 8
        # bytes, about 188 MiB; the blocks' peak is a few MiB
        graph = gen_grid(4)
        pi = exact_pi_lambda(graph, 1.0)
        trace = run_chain(IndependentSetModel(graph, 1.0), ChainKind.INSERT_DELETE, 20_000,
                          seed=55)
        tracemalloc.start()
        try:
            tv_curve(trace, pi, range(1, 20_002))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestMixingTime:
    def test_already_mixed(self):
        states = tuple(bytes((i,)) for i in range(3))
        pi = np.array([0.2, 0.3, 0.5])
        matrix = TransitionMatrix(StateSpace(states), np.tile(pi, (3, 1)))
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
        states = tuple(bytes((i,)) for i in range(4))
        # two closed classes, {0, 1} and {2, 3}
        reducible = [[.5, .5, 0, 0], [.5, .5, 0, 0], [0, 0, .5, .5], [0, 0, .5, .5]]
        # 0 -> 1 -> 2 -> 3 and no way back: forward from 0 reaches every state
        one_way = [[.5, .5, 0, 0], [0, .5, .5, 0], [0, 0, .5, .5], [0, 0, 0, 1.]]
        cycle = [[.5, .5, 0, 0], [0, .5, .5, 0], [0, 0, .5, .5], [.5, 0, 0, .5]]
        uniform = ExactDistribution(states, [0.25] * 4, 1.0)
        for rows in (reducible, one_way):
            matrix = TransitionMatrix(StateSpace(states), np.array(rows))
            assert not is_connected(matrix)
            with pytest.raises(ValueError, match="not irreducible"):
                mixing_time(matrix, uniform, 0.1)
        assert is_connected(TransitionMatrix(StateSpace(states), np.array(cycle)))

    def test_horizon_error(self):
        states = (b"\x00", b"\x01")
        rows = np.array([[1 - 1e-9, 1e-9], [1e-9, 1 - 1e-9]])
        matrix = TransitionMatrix(StateSpace(states), rows)
        dist = ExactDistribution(states, [0.5, 0.5], 1.0)
        with pytest.raises(GuardExceededError):
            mixing_time(matrix, dist, 0.01)


def tau_digest_cases():
    """The graphs and groups of the pinned mixing-time digest."""
    graphs = [gen_grid(3), gen_connected_cliques(3), gen_complete(2), gen_complete(3)]
    graphs += [Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
               for n in range(4, 9)]
    return [(graph, automorphism_generators(graph)) for graph in graphs]


def lumping_cases():
    """Orbital kernels of graph and clause models, with their groups."""
    for name, make, k in (("grid", gen_grid, 3), ("grid", gen_grid, 4),
                          ("cliques", gen_connected_cliques, 3),
                          ("cliques", gen_connected_cliques, 4),
                          ("complete", gen_complete, 3)):
        graph = make(k)
        yield pytest.param(IndependentSetModel(graph, 1.0), ChainKind.ORBITAL_INSERT_DELETE,
                           automorphism_generators(graph), id=f"{name}{k}")
    clause_set, _ = gen_friends_smokers(3)
    evidence = FS3_EVIDENCE[0]
    yield pytest.param(ClauseModel(clause_set, evidence), ChainKind.ORBITAL_GIBBS,
                       model_symmetry_group(clause_set, evidence).model_group,
                       id="fs3-evidence")


class TestOrbitQuotient:
    def test_lumped_equals_dense_on_digest_cases(self):
        for graph, group in tau_digest_cases():
            for lam in (0.5, 1.0, 2.0):
                model = IndependentSetModel(graph, lam)
                pi = exact_pi_lambda(graph, lam)
                matrix = transition_matrix(model, ChainKind.ORBITAL_INSERT_DELETE, group)
                dense = without_group(matrix)
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
        dense = without_group(matrix)
        for eps, tau in zip((0.1, 0.01), taus):
            assert mixing_time(matrix, pi, eps) == mixing_time(dense, pi, eps) == tau

    def test_base_kernels_keep_the_action_not_orbit_ids(self):
        model = IndependentSetModel(gen_grid(3), 1.0)
        pi = exact_pi_lambda(gen_grid(3), 1.0)
        base = transition_matrix(model, ChainKind.INSERT_DELETE, grid3_group())
        assert base.space.action.shape == (2, 63)
        dense = transition_matrix(model, ChainKind.INSERT_DELETE)
        assert dense.space.action is None
        assert all(r is d for r, d in zip(representative_rows(dense), (dense.rows, None, None)))
        assert analysis._reduced_pi(dense, pi, None) is pi.probs
        rows, gather, lumping = representative_rows(base)
        m = len(rows)
        assert m < 63 and rows.shape == (m, 63) and gather.shape == (63, 63)
        assert lumping is None
        assert analysis._reduced_pi(base, pi, None) is pi.probs
        orbital = transition_matrix(model, ChainKind.ORBITAL_INSERT_DELETE, grid3_group())
        rows, gather, lumping = representative_rows(orbital)
        assert lumping is orbital.space.orbits
        lumped_pi = analysis._reduced_pi(orbital, pi, lumping)
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
            rows, gather, lumping = representative_rows(matrix)
            assert gather is None
            lumped_pi = analysis._reduced_pi(matrix, pi, lumping)
            ids = orbit_ids(matrix.space.action)
            reps = [list(ids).index(o) for o in dict.fromkeys(ids.tolist())]
            # per-orbit sums, in the order of the representatives
            assert np.abs(lumped_pi
                          - np.bincount(ids, weights=pi.probs)[ids[reps]]).max() <= 1e-15
            for a, r in enumerate(reps):
                expected = np.bincount(ids, weights=matrix.rows[r])[ids[reps]]
                assert np.abs(rows[a] - expected).max() <= 1e-15
            states = tuple(matrix.space.states[r] for r in reps)
            assert check_detailed_balance(TransitionMatrix(StateSpace(states), rows),
                                          ExactDistribution(states, lumped_pi, 1.0),
                                          tol=1e-15).passed

    @pytest.mark.parametrize("model,kind,group", lumping_cases())
    def test_quotient_equals_the_indicator_product(self, model, kind, group):
        matrix = transition_matrix(model, kind, group)
        pi = exact_distribution(model)
        rows, gather, orbits = representative_rows(matrix)
        assert gather is None and orbits is matrix.space.orbits
        quotient, lumped_pi = reference_lumping(matrix, pi)
        assert np.abs(rows - quotient).max() <= 1e-15
        assert np.abs(analysis._reduced_pi(matrix, pi, orbits) - lumped_pi).max() <= 1e-15

    def test_action_fixing_every_state_lumps_to_itself(self):
        # the group swaps b and c, which the evidence fixes: every state is
        # its own orbit, so the lumped quotient is the whole kernel, M = N
        clause_set = parse_clause_file("vars: a b c\n1 :: a | b\n1 :: a | c\n0.3 :: !a\n")
        evidence = {"b": True, "c": True}
        group = model_symmetry_group(clause_set, evidence).model_group
        model = ClauseModel(clause_set, evidence)
        matrix = transition_matrix(model, ChainKind.ORBITAL_GIBBS, group)
        assert matrix.space.action.tolist() == [[0, 1]]
        rows, gather, orbits = representative_rows(matrix)
        assert gather is None and orbits.tolist() == [0, 1] and rows.shape == (2, 2)
        pi = exact_distribution(model)
        for eps in (0.1, 0.01):
            assert mixing_time(matrix, pi, eps) == mixing_time(without_group(matrix), pi, eps) == 1

    def test_column_check_comes_first(self):
        # the swap of states 1 and 2: the first states 0 and 1 have rows
        # constant on {1, 2}; row 2 is not, and lumps unlike row 1
        space = group_space(*SWAP_SPACE)
        rows = np.array([[.5, .25, .25], [.2, .4, .4], [.3, .2, .5]])
        with pytest.raises(ValueError, match="columns are not constant on orbits"):
            representative_rows(TransitionMatrix(space, rows))

    def test_base_kernel_with_orbit_ids_rejected(self):
        # the swap of states 1 and 2: the first states 0 and 1 have rows
        # constant on {1, 2}, and rows 1 and 2 lump alike, but row 2 is not
        # constant on {1, 2}
        space = group_space(*SWAP_SPACE)
        assert space.action.tolist() == [[0, 2, 1]]
        rows = np.array([[.5, .25, .25], [.2, .4, .4], [.2, .3, .5]])
        matrix = TransitionMatrix(space, rows)
        dist = ExactDistribution(space.states, [0.2, 0.4, 0.4], 1.0)
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
        space = group_space(*SWAP_SPACE)
        assert space.action.tolist() == [[0, 2, 1]]
        rows = np.array([[.5, .25, .25], [.2, .5, .3], [.2, .3, .5]])
        matrix = TransitionMatrix(space, rows)
        dist = ExactDistribution(space.states, [0.2, 0.3, 0.5], 1.0)
        assert representative_rows(matrix)[1] is not None  # M x N rows
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
            assert matrix.space.action is None
            assert np.array_equal(matrix.rows, dense.rows)
            for eps in (0.1, 0.01):
                assert mixing_time(matrix, pi, eps) == mixing_time(dense, pi, eps)


def algebra_cases():
    graphs = [("grid3", gen_grid(3)), ("cliques3", gen_connected_cliques(3)),
              ("complete3", gen_complete(3))]
    for name, graph in graphs:
        group = automorphism_generators(graph)
        for lam in (0.5, 1.0, 2.0):
            yield pytest.param(IndependentSetModel(graph, lam), group, ChainKind.INSERT_DELETE,
                               ChainKind.ORBITAL_INSERT_DELETE, id=f"{name}-lam{lam}")
    swap = PermutationGroup([parse_cycles("(0 1)", n=2)])
    yield pytest.param(ClauseModel(two_spin_model()), swap, ChainKind.GIBBS,
                       ChainKind.ORBITAL_GIBBS, id="two-spin-gibbs")


def orbit_average(action: np.ndarray) -> np.ndarray:
    """A, A(x, y) = 1/|orbit of x| when x and y share an orbit, else 0."""
    ids = orbit_ids(action)
    sizes = np.bincount(ids)
    a = np.zeros((len(ids), len(ids)))
    for x, orbit in enumerate(ids):
        a[x, ids == orbit] = 1.0 / sizes[orbit]
    return a


class TestOrbitalKernelAlgebra:
    """The orbital kernel K against the base kernel P and the orbit-averaging
    matrix A, A(x, y) = 1/|orbit of x| when x and y share an orbit, else 0."""

    @pytest.mark.parametrize("model,group,base_kind,orbital_kind", algebra_cases())
    def test_orbital_kernel_identities(self, model, group, base_kind, orbital_kind):
        base = transition_matrix(model, base_kind, group)
        orbital = transition_matrix(model, orbital_kind, group)
        assert base.space.states == orbital.space.states
        p, k = base.rows, orbital.rows
        a = orbit_average(base.space.action)

        def error(lhs, rhs):
            return np.abs(lhs - rhs).max()

        assert error(k, p @ a) <= 1e-12
        assert error(a @ k, k) <= 1e-12
        assert error(p @ a, a @ p) <= 1e-12
        assert error(a @ a, a) <= 1e-12
        for t in range(2, 6):
            p_t = np.linalg.matrix_power(p, t)
            assert error(np.linalg.matrix_power(k, t), p_t @ a) <= 1e-12, t

    @pytest.mark.parametrize("model,group,base_kind,orbital_kind", [
        case for case in algebra_cases() if case.id.endswith(("lam1.0", "two-spin-gibbs"))])
    def test_relabelled_base_trace_has_the_orbital_law(self, model, group, base_kind,
                                                        orbital_kind):
        """From every start, the 2- and 3-step joint laws of K equal those of
        a base trace Y with each visited state relabelled by its own
        independent uniform group element, X_t = g_t Y_t:
        sum over y1, y2 of P(x0, y1) A(y1, x1) P(y1, y2) A(y2, x2) (PA)(y2, x3)."""
        base = transition_matrix(model, base_kind, group)
        k = transition_matrix(model, orbital_kind, group).rows
        p, a = base.rows, orbit_average(base.space.action)
        two = k[:, :, None] * k[None, :, :]  # two[x0, x1, x2] = K(x0, x1) K(x1, x2)
        relabelled = np.einsum("ay,yb,yc->abc", p, a, p @ a)
        assert np.abs(two - relabelled).max() <= 1e-12
        tail = relabelled.reshape(len(p), -1)  # two relabelled steps from an unrelabelled y1
        for x0, row in enumerate(p):
            y = np.flatnonzero(row)  # the sum over y1 runs where P(x0, y1) > 0
            relabelled = ((row[y, None] * a[y]).T @ tail[y]).reshape(two.shape)
            assert np.abs(k[x0, :, None, None] * two - relabelled).max() <= 1e-12, x0


class TestRepresentativeRows:
    def test_rep_rows_equal_dense_on_digest_cases(self):
        for graph, group in tau_digest_cases():
            for lam in (0.5, 1.0, 2.0):
                model = IndependentSetModel(graph, lam)
                pi = exact_pi_lambda(graph, lam)
                matrix = transition_matrix(model, ChainKind.INSERT_DELETE, group)
                assert matrix.space.action is not None
                dense = without_group(matrix)
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
        dense = without_group(matrix)
        for eps, tau in zip((0.1, 0.01), taus):
            assert mixing_time(matrix, pi, eps) == mixing_time(dense, pi, eps) == tau

    @pytest.mark.parametrize("make", [gen_grid, gen_connected_cliques])
    def test_gather_equals_the_walk_at_four(self, make):
        graph = make(4)
        matrix = transition_matrix(IndependentSetModel(graph, 1.0), ChainKind.INSERT_DELETE,
                                   automorphism_generators(graph))
        assert np.array_equal(representative_rows(matrix)[1], walk_gather(matrix))

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
            reps, gather, lumping = representative_rows(matrix)
            assert lumping is None
            ids = orbit_ids(transition_matrix(model, orbital, group).space.action)
            assert len(reps) == len(set(ids.tolist())) < len(matrix.space.states)
            assert np.array_equal(gather, walk_gather(matrix))
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
        # the one-vertex states e0..e3 under the 4-cycle of the vertices
        space = group_space(tuple(bytes(int(v == i) for v in range(4)) for i in range(4)),
                            [1, 2, 3, 0])
        assert space.action.tolist() == [[1, 2, 3, 0]]
        matrix = TransitionMatrix(space, rows)
        with pytest.raises(ValueError, match="does not commute with the group action"):
            representative_rows(matrix)

    def test_pi_not_invariant_rejected(self):
        # the uniform kernel commutes with every permutation of the states
        space = group_space((b"\x01\x00", b"\x00\x01", b"\x00\x00"), [1, 0])
        assert space.action.tolist() == [[1, 0, 2]]
        matrix = TransitionMatrix(space, np.full((3, 3), 1 / 3))
        dist = ExactDistribution(space.states, [0.2, 0.3, 0.5], 1.0)
        with pytest.raises(ValueError, match="pi is not invariant"):
            mixing_time(matrix, dist, 0.1)


def symmetrised_spectrum(rows: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a pi-reversible kernel, through the symmetric
    matrix D^1/2 P D^-1/2 with D = diag(pi)."""
    root = np.sqrt(pi)
    sym = root[:, None] * rows / root[None, :]
    return np.linalg.eigvalsh((sym + sym.T) / 2)


def relaxation_time(spectrum: np.ndarray) -> float:
    """1 / (1 - the largest |eigenvalue| past the top one, 1)."""
    return 1.0 / (1.0 - np.abs(spectrum[:-1]).max(initial=0.0))


def spectrum_cases():
    """(graph, lam, the graph's name in perfbench/reference.json at lam 1 or None)."""
    for name, make, k, lams in (("grid", gen_grid, 3, (0.5, 1.0, 2.0)),
                                ("cliques", gen_connected_cliques, 3, (0.5, 1.0, 2.0)),
                                ("complete", gen_complete, 3, (0.5, 1.0, 2.0)),
                                ("grid", gen_grid, 4, (1.0,)),
                                ("cliques", gen_connected_cliques, 4, (1.0,))):
        for lam in lams:
            reference = f"{name}{k}" if k == 4 else None
            yield pytest.param(make(k), lam, reference, id=f"{name}{k}-lam{lam}")


REFERENCE_TAUS = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                             / "reference.json").read_text())["mixing_time"]


class TestSpectrum:
    """K = P A has P's eigenvalues on G-invariant functions, those of the
    lumped quotient Q, and zeros (P and A are pi-self-adjoint and commute),
    so the orbit resample never slows the relaxation time."""

    @pytest.mark.parametrize("graph,lam,reference", spectrum_cases())
    def test_quotient_spectrum_within_the_base_spectrum(self, graph, lam, reference):
        """Q's eigenvalues are a sub-multiset of P's, gap(K) >= gap(P), and
        each reference mixing time lies within the bounds that the relaxation
        time t_rel puts on it (Levin, Peres & Wilmer, Markov Chains and
        Mixing Times, Thms 12.4-12.5)."""
        model, pi = IndependentSetModel(graph, lam), exact_pi_lambda(graph, lam)
        base = transition_matrix(model, ChainKind.INSERT_DELETE)
        orbital = transition_matrix(model, ChainKind.ORBITAL_INSERT_DELETE,
                                    automorphism_generators(graph))
        quotient, _, lumping = representative_rows(orbital)
        p = symmetrised_spectrum(base.rows, pi.probs)
        q = symmetrised_spectrum(quotient, analysis._reduced_pi(orbital, pi, lumping))
        j = 0  # a sub-multiset: each of Q's eigenvalues, ascending, takes the next of P's
        for value in q:
            while j < len(p) and p[j] < value - 1e-10:
                j += 1
            assert j < len(p) and abs(p[j] - value) <= 1e-10, value
            j += 1
        t_rel = {"id": relaxation_time(p), "orbital-id": relaxation_time(q)}
        assert 1 / t_rel["orbital-id"] >= 1 / t_rel["id"] - 1e-10  # gap(K) >= gap(P)
        pi_min = pi.probs.min()
        for kind, taus in (REFERENCE_TAUS[reference].items() if reference else ()):
            t = t_rel[kind]
            for eps, tau in taus.items():
                eps = float(eps)
                assert ((t - 1) * math.log(1 / (2 * eps)) <= tau
                        <= t * math.log(1 / (eps * pi_min))), (kind, eps)


def taus_in_every_order(matrix, pi, epsilons):
    """tau per eps, the same whether the eps are asked of a fresh copy of
    the kernel each, or of one copy in ascending or in descending order."""
    fresh = [mixing_time(dataclasses.replace(matrix), pi, eps) for eps in epsilons]
    for order in (sorted(epsilons), sorted(epsilons, reverse=True)):
        warm = dataclasses.replace(matrix)
        taus = {eps: mixing_time(warm, pi, eps) for eps in order}
        assert [taus[eps] for eps in epsilons] == fresh
    return fresh


def uninvariant(pi: ExactDistribution, action: np.ndarray) -> ExactDistribution:
    """pi with more weight on one state that the first generator moves."""
    probs = pi.probs.copy()
    probs[np.flatnonzero(action[0] != np.arange(len(probs)))[0]] *= 1.5
    return ExactDistribution(pi.states, probs / probs.sum(), 1.0)


class TestMixingLadder:
    KINDS = (ChainKind.INSERT_DELETE, ChainKind.ORBITAL_INSERT_DELETE)

    def test_order_free_on_digest_cases(self):
        for graph, group in tau_digest_cases():
            for lam in (0.5, 1.0, 2.0):
                model = IndependentSetModel(graph, lam)
                pi = exact_pi_lambda(graph, lam)
                for kind in self.KINDS:
                    matrix = transition_matrix(model, kind, group)
                    taus = taus_in_every_order(matrix, pi, (0.5, 0.1, 0.01))
                    dense = without_group(matrix)
                    assert taus_in_every_order(dense, pi, (0.5, 0.1, 0.01)) == taus

    @pytest.mark.parametrize("make,taus", [(gen_grid, ((192, 405), (83, 159))),
                                           (gen_connected_cliques, ((115, 236),) * 2)])
    def test_order_free_at_four(self, make, taus):
        graph = make(4)
        model, pi = IndependentSetModel(graph, 1.0), exact_pi_lambda(graph, 1.0)
        group = automorphism_generators(graph)
        for kind, want in zip(self.KINDS, taus):
            matrix = transition_matrix(model, kind, group)
            assert tuple(taus_in_every_order(matrix, pi, (0.1, 0.01))) == want

    def test_one_reduction_and_each_square_made_once(self, monkeypatch):
        reductions = []

        def spy(matrix):
            reductions.append(len(matrix.space.states))
            return representative_rows(matrix)

        monkeypatch.setattr(analysis, "representative_rows", spy)
        model, pi = IndependentSetModel(gen_grid(3), 1.0), exact_pi_lambda(gen_grid(3), 1.0)
        for kind in self.KINDS:
            matrix = transition_matrix(model, kind, grid3_group())
            kept, longest = [], 1
            for eps in (0.1, 0.5, 0.01, 0.1, 0.001):
                longest = max(longest, mixing_time(matrix, pi, eps))
                squares = matrix._ladder[0]
                # the squares one tau needs: P^(2^j) up to the first 2^j >= tau
                assert len(squares) == (longest - 1).bit_length() + 1
                assert all(a is b for a, b in zip(kept, squares))
                kept = list(squares)
        assert reductions == [63, 63]

    def test_first_call_finds_orbits_once(self, monkeypatch):
        # the kernel's state space finds the orbits once, when it is built;
        # representative_rows and mixing_time read them off it
        calls = []

        def spy(action):
            calls.append(action.shape)
            return orbit_ids(action)

        monkeypatch.setattr(perm, "orbit_ids", spy)
        model, pi = IndependentSetModel(gen_grid(3), 1.0), exact_pi_lambda(gen_grid(3), 1.0)
        assert calls == []
        for kind in self.KINDS:
            calls.clear()
            matrix = transition_matrix(model, kind, grid3_group())
            assert calls == [(2, 63)]
            dense = without_group(matrix)
            assert mixing_time(matrix, pi, 0.1) == mixing_time(dense, pi, 0.1)
            assert calls == [(2, 63)]

    def test_warm_calls_find_no_orbits(self, monkeypatch):
        # the first call keeps the orbit ids of a lumped kernel; later calls
        # check pi and reduce it through the kept orbit ids alone
        calls = []

        def spy(action):
            calls.append(action.shape)
            return orbit_ids(action)

        monkeypatch.setattr(perm, "orbit_ids", spy)
        model, pi = IndependentSetModel(gen_grid(3), 1.0), exact_pi_lambda(gen_grid(3), 1.0)
        for kind in self.KINDS:
            matrix = transition_matrix(model, kind, grid3_group())
            fresh = [mixing_time(dataclasses.replace(matrix), pi, eps) for eps in (0.1, 0.01)]
            assert mixing_time(matrix, pi, 0.1) == fresh[0]
            calls.clear()
            for eps, tau in zip((0.1, 0.01, 0.1), fresh + fresh[:1]):
                assert mixing_time(matrix, pi, eps) == tau
                with pytest.raises(ValueError, match="pi is not invariant"):
                    mixing_time(matrix, uninvariant(pi, matrix.space.action), eps)
            assert calls == []

    def test_kernel_checks_fail_on_every_call(self):
        states = tuple(bytes((i,)) for i in range(4))
        uniform = ExactDistribution(states, [0.25] * 4, 1.0)
        reducible = [[.5, .5, 0, 0], [.5, .5, 0, 0], [0, 0, .5, .5], [0, 0, .5, .5]]
        periodic = [[0, .5, 0, .5], [.5, 0, .5, 0], [0, .5, 0, .5], [.5, 0, .5, 0]]
        for rows, message in ((reducible, "not irreducible"), (periodic, "aperiodicity")):
            matrix = TransitionMatrix(StateSpace(states), np.array(rows, dtype=float))
            for eps in (0.1, 0.1, 0.01):
                with pytest.raises(ValueError, match=message):
                    mixing_time(matrix, uniform, eps)
            assert matrix._ladder is None

    def test_pi_checked_on_every_call(self):
        space = group_space((b"\x01\x00", b"\x00\x01", b"\x00\x00"), [1, 0])
        assert space.action.tolist() == [[1, 0, 2]]
        # the uniform kernel commutes with every permutation: lumped rows
        lumped = TransitionMatrix(space, np.full((3, 3), 1 / 3))
        model, pi = IndependentSetModel(gen_grid(3), 1.0), exact_pi_lambda(gen_grid(3), 1.0)
        cases = [(lumped, ExactDistribution(space.states, [1 / 3] * 3, 1.0))]
        cases += [(transition_matrix(model, kind, grid3_group()), pi) for kind in self.KINDS]
        for matrix, good in cases:
            bad = uninvariant(good, matrix.space.action)
            taus = [mixing_time(dataclasses.replace(matrix), good, eps) for eps in (0.1, 0.01)]
            # the first call fails, before any ladder; later ones after it is built
            for dist in (bad, good, bad, bad, good):
                for eps, tau in zip((0.1, 0.01), taus):
                    if dist is bad:
                        with pytest.raises(ValueError, match="pi is not invariant"):
                            mixing_time(matrix, dist, eps)
                    else:
                        assert mixing_time(matrix, dist, eps) == tau


    def test_first_call_failing_on_pi_keeps_nothing(self):
        model, pi = IndependentSetModel(gen_grid(3), 1.0), exact_pi_lambda(gen_grid(3), 1.0)
        for kind in self.KINDS:
            matrix = transition_matrix(model, kind, grid3_group())
            with pytest.raises(ValueError, match="pi is not invariant"):
                mixing_time(matrix, uninvariant(pi, matrix.space.action), 0.1)
            assert matrix._ladder is None


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


# K_4 (4 vertices, 4 pairs), K_32 (32 and 32) and grid 3 (a group of order 8):
# bounds that are powers of two, so that index draws are often rejected
POWER_OF_TWO_COUPLINGS = [
    pytest.param(gen_complete(2), automorphism_generators, id="K4"),
    pytest.param(Graph(32, itertools.combinations(range(32), 2)), lambda g: PermutationGroup(
        [parse_cycles("(0 1)", n=32), parse_cycles(f"({' '.join(map(str, range(32)))})", n=32)]),
        id="K32"),
    pytest.param(gen_grid(3), lambda g: grid3_group(), id="grid3")]


class TestCoupling:
    def test_case_distance_contract(self):
        graph = gen_grid(3)
        model = IndependentSetModel(graph, 1.0)
        sim = CoupledSteps(model, grid3_group())
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
        sim = CoupledSteps(model, group)
        rng = Random(53)
        upper = bytes((1, 0, 0, 0))
        lower = bytes((0, 0, 0, 0))
        for _ in range(500):
            nu, nl, case = sim.step(upper, lower, rng)
            if case == 4:
                assert hamming(nu, nl) in (0, 1)  # never drifts apart

    def test_case4_separates_without_symmetry(self):
        graph = Graph(3, [(0, 1), (1, 2)])  # path; trivial group
        model = IndependentSetModel(graph, 1.0)
        sim = CoupledSteps(model, PermutationGroup([], n=3))
        rng = Random(54)
        upper, lower = bytes((0, 1, 0)), bytes((0, 0, 0))
        distances = set()
        for _ in range(500):
            nu, nl, case = sim.step(upper, lower, rng)
            if case == 4:
                distances.add(hamming(nu, nl))
        assert 2 in distances

    def test_coalescence_test_does_not_scan_group(self, monkeypatch):
        # K_9 has 9! elements; deciding case 4 must not apply each of them
        graph = gen_complete(3)
        sim = CoupledSteps(IndependentSetModel(graph, 1.0), automorphism_generators(graph))
        calls = [0]
        apply_config = Permutation.apply_config

        def counted(self, bits):
            calls[0] += 1
            return apply_config(self, bits)

        monkeypatch.setattr(Permutation, "apply_config", counted)
        rng = Random(55)
        upper, lower = b"\x01" + bytes(8), bytes(9)
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
        sim = CoupledSteps(model, grid3_group())
        with pytest.raises(ValueError):
            sim.step(bytes(9), bytes(9), Random(0))
        edge = b"\x01\x01" + bytes(7)  # a and b are adjacent
        with pytest.raises(ValueError, match="independent sets"):
            sim.step(edge, b"\x01" + bytes(8), Random(0))
        with pytest.raises(ValueError, match="independent sets"):
            sim.step(b"\x01" + bytes(9), bytes(10), Random(0))

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
        (gen_connected_cliques(4), False), (gen_complete(2), False), (gen_complete(3), False),
        (Graph(3, [(0, 1), (1, 2)]), True)],
        ids=["grid3", "grid4", "cliques3", "cliques4", "complete2", "complete3",
             "path3-trivial"])
    def test_constants_equal_the_oracles(self, graph, trivial):
        # blocking read off `flip` gives the cases of the adjacency product
        group = (PermutationGroup([], n=graph.n) if trivial
                 else automorphism_generators(graph))
        model = IndependentSetModel(graph, 1.0)
        sim = CoupledSteps(model, group)
        assert np.array_equal(sim._cases, reference_cases(model, sim.space))
        assert sim.pairs() == distance_one_pairs(graph)
        assert sim.rho() == exact_rho(graph, group)
        assert sim.varrho() == exact_varrho(graph)

    def test_drift_enumerates_and_maps_orbits_once(self, monkeypatch):
        calls = {"enumerate_independent_sets": 0, "StateSpace": 0, "orbit_ids": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # every module's references, through which the coupling reaches them
        for module in (analysis, chains, perm):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        coupling_drift(IndependentSetModel(gen_grid(3), 1.0), grid3_group(), trials=100)
        assert calls == {"enumerate_independent_sets": 1, "StateSpace": 1, "orbit_ids": 1}

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

    @pytest.mark.parametrize("graph,make", [
        # one vertex and a trivial group: bounds of 1 still draw a bit
        pytest.param(Graph(1, []), lambda g: PermutationGroup([], n=1), id="one-vertex"),
        *POWER_OF_TWO_COUPLINGS])
    def test_draws_equal_the_reference(self, graph, make):
        # 2,000 draws: the results and the generator state of `randrange`'s draws
        sim = CoupledSteps(IndependentSetModel(graph, 1.5), make(graph))
        pairs = len(sim.pairs())
        rng, ref_rng = Random(64), Random(64)
        for t in range(2000):
            assert sim._draw(t % pairs, rng) == reference_coupled_draw(sim, t % pairs, ref_rng)
        assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("graph,make", [
        # K_2: two pairs
        pytest.param(Graph(2, [(0, 1)]), automorphism_generators, id="K2"),
        *POWER_OF_TWO_COUPLINGS])
    def test_drift_draws_equal_the_reference(self, monkeypatch, graph, make):
        made = []

        class Recorded(Random):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        monkeypatch.setattr(analysis, "Random", Recorded)
        model, group = IndependentSetModel(graph, 1.5), make(graph)
        report = coupling_drift(model, group, 2000, seed=65)
        ref_rng = Random(65)
        draws = reference_drift_draws(CouplingSimulator(model, group), 2000, ref_rng)
        assert report.case_counts == {k: sum(c == k for c, _ in draws) for k in range(1, 6)}
        assert report.expected_drift == sum(h - 1 for _, h in draws) / 2000
        assert [r.getstate() for r in made] == [ref_rng.getstate()]

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
        assert dist.states == matrix.space.states
        sim = CoupledSteps(model, group)
        rng = Random(56)
        corner = NAMES9.index("a")
        middle = NAMES9.index("e")
        upper = bytes(1 if i in (corner, middle) else 0 for i in range(9))
        lower = bytes(1 if i == middle else 0 for i in range(9))
        trials = 30_000
        counts_u = np.zeros(len(matrix.space.states))
        counts_l = np.zeros(len(matrix.space.states))
        for _ in range(trials):
            nu, nl, _ = sim.step(upper, lower, rng)
            counts_u[dist.index_of(nu)] += 1
            counts_l[dist.index_of(nl)] += 1
        for counts, start in ((counts_u, upper), (counts_l, lower)):
            row = matrix.rows[dist.index_of(start)]
            for freq, p in zip(counts / trials, row):
                se = math.sqrt(p * (1 - p) / trials)
                assert abs(freq - p) <= 3 * se + 1e-9

    def test_varrho_needs_a_distance_one_pair(self):
        graph = Graph(0, [])
        sim = CouplingSimulator(IndependentSetModel(graph, 1.0), automorphism_generators(graph))
        with pytest.raises(ValueError, match="graph admits no distance-one pairs"):
            sim.varrho()

    def test_varrho_probability_range(self):
        for graph in (gen_grid(3), gen_complete(2)):
            v = CouplingSimulator(IndependentSetModel(graph, 1.0),
                                  automorphism_generators(graph)).varrho()
            assert 0.0 <= v <= 1.0


class TestInputChecks:
    STATES = (b"\x00", b"\x01")

    @pytest.mark.parametrize("probs,message", [
        ([1.0], "differ in length"),
        ([1.5, -0.5], "negative probability"),
        ([0.5, 0.4], "sum to 0.9"),
    ])
    def test_distribution_rejected(self, probs, message):
        with pytest.raises(ValueError, match=message):
            ExactDistribution(self.STATES, probs, 1.0)

    @pytest.mark.parametrize("rows,message", [
        (np.eye(3), "shape does not match state count"),
        (np.array([[1.5, -0.5], [0.0, 1.0]]), "negative transition probability"),
        (np.array([[1.0, 0.0], [0.5, 0.4]]), "row 1 does not sum to 1"),
    ])
    def test_transition_matrix_rejected(self, rows, message):
        with pytest.raises(ValueError, match=message):
            TransitionMatrix(StateSpace(self.STATES), rows)

    @pytest.mark.parametrize("check", [
        check_detailed_balance, stationary_deviation,
        lambda matrix, dist: mixing_time(matrix, dist, 0.1)])
    def test_states_must_match(self, check):
        matrix = TransitionMatrix(StateSpace(self.STATES), np.full((2, 2), 0.5))
        dist = ExactDistribution(self.STATES[::-1], [0.5, 0.5], 1.0)
        with pytest.raises(ValueError, match="enumerate different states"):
            check(matrix, dist)

    @pytest.mark.parametrize("checkpoints,message", [
        ([], "must be positive sample counts"),
        ([0, 2], "must be positive sample counts"),
        ([1, 4], "checkpoint 4 exceeds 3 samples"),
    ])
    def test_tv_checkpoints_rejected(self, checkpoints, message):
        universe = exact_pi_lambda(Graph(2, [(0, 1)]), 1.0)
        trace = ChainTrace([b"\x00\x00", b"\x01\x00", b"\x00\x00"])
        with pytest.raises(ValueError, match=message):
            tv_curve(trace, universe, checkpoints)

    @pytest.mark.parametrize("checkpoints", [[2.7, 3], [np.float64(2.0)], ["2"]],
                             ids=["float", "numpy-float", "string"])
    def test_tv_checkpoints_not_integers_rejected(self, checkpoints):
        # int() would truncate a float and parse a string without a word
        universe = exact_pi_lambda(Graph(2, [(0, 1)]), 1.0)
        trace = ChainTrace([b"\x00\x00", b"\x01\x00", b"\x00\x00"])
        with pytest.raises(TypeError):
            tv_curve(trace, universe, checkpoints)

    def test_tv_numpy_integer_checkpoints_accepted(self):
        universe = exact_pi_lambda(Graph(2, [(0, 1)]), 1.0)
        trace = ChainTrace([b"\x00\x00", b"\x01\x00", b"\x00\x00"])
        points = tv_curve(trace, universe, [np.int64(3), np.intp(1)]).points
        assert points == tv_curve(trace, universe, [1, 3]).points
        assert [type(c) for c, _ in points] == [int, int]

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5])
    def test_mixing_eps_rejected(self, eps):
        matrix = TransitionMatrix(StateSpace(self.STATES), np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match=r"eps must be in \(0, 1\)"):
            mixing_time(matrix, ExactDistribution(self.STATES, [0.5, 0.5], 1.0), eps)

    def test_rho_needs_an_edge(self):
        graph = Graph(3, [])
        sim = CouplingSimulator(IndependentSetModel(graph, 1.0), automorphism_generators(graph))
        with pytest.raises(ValueError, match="no valid adjacent extensions"):
            sim.rho()

    @pytest.mark.parametrize("graph,trials,message", [
        (gen_grid(2), 0, "need at least one trial"),
        (Graph(0, []), 10, "graph admits no distance-one pairs"),
    ])
    def test_coupling_drift_rejected(self, graph, trials, message):
        model = IndependentSetModel(graph, 1.0)
        with pytest.raises(ValueError, match=message):
            coupling_drift(model, automorphism_generators(graph), trials)


def test_readme_example_runs(capsys):
    # the python block in README.md, run as written, so the example cannot rot
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    samples, dtv = namespace["curve"].points[-1]
    assert samples == 100_000 and dtv < 0.05
    assert str(namespace["curve"].points[-1]) in capsys.readouterr().out
