"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import time
from random import Random

import numpy as np
import pytest
from scipy import stats

from orbitalmcmc.analysis import (
    CouplingSimulator,
    check_detailed_balance,
    coupling_drift,
    exact_distribution,
    exact_pi_lambda,
    is_connected,
    mixing_time,
    transition_matrix,
    tv_curve,
)
from orbitalmcmc.autgroup import automorphism_generators
from orbitalmcmc.chains import ChainKind, ClauseModel, IndependentSetModel, run_chain
from orbitalmcmc.clauses import (
    WeightedClauseSet,
    build_colored_graph,
    model_symmetry_group,
)
from orbitalmcmc.families import (
    gen_complete,
    gen_connected_cliques,
    gen_friends_smokers,
    gen_grid,
)
from orbitalmcmc.graphs import Graph
from orbitalmcmc.perm import (
    PermutationGroup,
    ProductReplacement,
    burnside_config_orbit_count,
    config_orbit_partition,
    parse_cycles,
)

from helpers import EXAMPLE_CLAUSES, brute_force_automorphisms, two_spin_model


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def benchmark_models():
    out = {}
    for name, graph in [("grid", gen_grid(3)),
                        ("cliques", gen_connected_cliques(3)),
                        ("complete", gen_complete(3))]:
        group = automorphism_generators(graph)
        out[name] = (graph, group)
    return out


def test_c01_symmetry_detection_example():
    t0 = time.time()
    graph, vmap = build_colored_graph(EXAMPLE_CLAUSES)
    group = automorphism_generators(graph)
    expected = parse_cycles("(0 1)(3 4)(6 7)", n=8)  # (va vb)(v!a v!b)(vf1 vf2)
    elapsed = time.time() - t0
    ok = (group.order() == 2
          and group.generators == (expected,)
          and elapsed < 1.0)
    report(1, "symmetry detection, two-clause example", ok,
           f"order {group.order()}, generator match, {elapsed:.3f}s")


def test_c02_group_orders(benchmark_models):
    t0 = time.time()
    orders = {}
    for name in ("grid", "cliques", "complete"):
        _, group = benchmark_models[name]
        orders[name] = group.order()
    elapsed = time.time() - t0
    ok = (orders == {"grid": 8, "cliques": 24, "complete": 362_880}
          and elapsed < 10.0)
    report(2, "benchmark group orders", ok,
           f"{orders}, {elapsed:.2f}s including enumeration")


def test_c03_orbit_counts(benchmark_models):
    expected = {"grid": (102, {1, 2, 4, 8}),
                "cliques": (70, {1, 4, 6, 12, 24}),
                "complete": (10, {1, 9, 36, 84, 126})}
    ok = True
    details = []
    for name, (count, cards) in expected.items():
        _, group = benchmark_models[name]
        orbits = config_orbit_partition(group)
        sizes = {len(o) for o in orbits}
        burnside = burnside_config_orbit_count(group)
        ok = ok and len(orbits) == count and sizes == cards and burnside == count
        details.append(f"{name}: {len(orbits)} orbits, burnside {burnside}")
    report(3, "configuration orbit counts over 9 bits", ok, "; ".join(details))


def _orbital_kernels(benchmark_models):
    """(label, matrix, pi) for the three orbital kernels under test."""
    spin = two_spin_model()
    spin_group = PermutationGroup([parse_cycles("(0 1)", n=2)])
    yield ("two-spin orbital gibbs",
           transition_matrix(ClauseModel(spin), ChainKind.ORBITAL_GIBBS,
                             group=spin_group),
           exact_distribution(ClauseModel(spin)))
    for name in ("grid", "cliques"):
        graph, group = benchmark_models[name]
        model = IndependentSetModel(graph, 1.0)
        yield (f"{name} orbital insert/delete",
               transition_matrix(model, ChainKind.ORBITAL_INSERT_DELETE,
                                 group=group),
               exact_pi_lambda(graph, 1.0))


def test_c04_orbital_kernels_reversible(benchmark_models):
    t0 = time.time()
    ok = True
    details = []
    for label, matrix, pi in _orbital_kernels(benchmark_models):
        balance = check_detailed_balance(matrix, pi, tol=1e-10)
        structure = (np.diag(matrix.rows) > 0).all() and is_connected(matrix)
        ok = ok and balance.passed and structure
        details.append(f"{label}: violation {balance.max_violation:.1e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report(4, "orbital kernels reversible, aperiodic, irreducible", ok,
           "; ".join(details))


def test_c05_base_kernel_symmetry_compatibility(benchmark_models):
    models = [(ClauseModel(two_spin_model()), ChainKind.GIBBS,
               PermutationGroup([parse_cycles("(0 1)", n=2)]), "two-spin gibbs")]
    for name in ("grid", "cliques"):
        graph, group = benchmark_models[name]
        models.append((IndependentSetModel(graph, 1.0),
                       ChainKind.INSERT_DELETE, group, name))
    worst = 0.0
    for model, kind, group, label in models:
        matrix = transition_matrix(model, kind)
        index = {s: i for i, s in enumerate(matrix.states)}
        for g in group.generators:
            mapped = [index[g.apply_config(s)] for s in matrix.states]
            permuted = matrix.rows[np.ix_(mapped, mapped)]
            worst = max(worst, float(np.abs(matrix.rows - permuted).max()))
    ok = worst <= 1e-12
    report(5, "base kernels commute with the symmetry action", ok,
           f"max |P(x,y) - P(xg,yg)| = {worst:.2e}")


def test_c06_complete_graph_mixing_bound():
    t0 = time.time()
    ok = True
    details = []
    for n in range(4, 10):
        graph = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        model = IndependentSetModel(graph, 1.0)
        group = automorphism_generators(graph)
        matrix = transition_matrix(model, ChainKind.ORBITAL_INSERT_DELETE,
                                   group=group)
        pi = exact_pi_lambda(graph, 1.0)
        for eps in (0.1, 0.01):
            tau = mixing_time(matrix, pi, eps)
            bound = n * math.log(n / eps)
            ok = ok and tau <= bound
            if n == 9:
                details.append(f"K_9 eps={eps}: tau={tau} <= {bound:.1f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report(6, "mixing time within the symmetric-group bound", ok,
           "; ".join(details))


def test_c07_coupling_faithful_and_drift(benchmark_models):
    t0 = time.time()
    trials = 100_000
    graph3, group3 = benchmark_models["grid"]
    model3 = IndependentSetModel(graph3, 1.0)

    # marginal faithfulness from a fixed distance-one pair
    matrix = transition_matrix(model3, ChainKind.ORBITAL_INSERT_DELETE,
                               group=group3)
    dist = exact_pi_lambda(graph3, 1.0)
    assert dist.states == matrix.states
    sim = CouplingSimulator(model3, group3)
    rng = Random(77)
    upper = tuple(1 if i in (0, 4) else 0 for i in range(9))  # corner + center
    lower = tuple(1 if i == 4 else 0 for i in range(9))
    counts_u = np.zeros(len(matrix.states))
    counts_l = np.zeros(len(matrix.states))
    for _ in range(trials):
        nu, nl, _ = sim.step(upper, lower, rng)
        counts_u[dist.index_of(nu)] += 1
        counts_l[dist.index_of(nl)] += 1
    faithful = True
    for counts, start in ((counts_u, upper), (counts_l, lower)):
        row = matrix.rows[dist.index_of(start)]
        for freq, p in zip(counts / trials, row):
            se = math.sqrt(p * (1 - p) / trials)
            if abs(freq - p) > 3 * se + 1e-12:
                faithful = False

    # drift bound with exact rho and varrho on both grids
    drift_ok = True
    drift_details = []
    for k in (3, 4):
        graph = gen_grid(k)
        group = group3 if k == 3 else automorphism_generators(graph)
        rep = coupling_drift(IndependentSetModel(graph, 1.0), group,
                             trials=trials, seed=78)
        within = rep.expected_drift <= rep.bound + 3 * rep.drift_se
        drift_ok = drift_ok and within
        drift_details.append(
            f"{k}x{k}: drift {rep.expected_drift:.5f} vs bound {rep.bound:.5f}")
    rho4 = rep.rho  # the loop ends on the 4x4 grid
    elapsed = time.time() - t0
    ok = faithful and drift_ok and rho4 < 1.0 and elapsed < 300.0
    report(7, "coupling marginals faithful, drift within bound", ok,
           f"faithful={faithful}; {'; '.join(drift_details)}; "
           f"rho(4x4)={rho4:.4f}; {elapsed:.1f}s")


def test_c08_orbital_chain_converges_faster(benchmark_models):
    t0 = time.time()
    steps = 100_000
    seeds = range(20)
    checkpoints = list(range(2000, steps + 2, 2000))
    gaps = {}
    pvalues = {}
    for name in ("grid", "cliques", "complete"):
        graph, group = benchmark_models[name]
        model = IndependentSetModel(graph, 1.0)
        pi = exact_pi_lambda(graph, 1.0)
        plain, orbital = [], []
        for seed in seeds:
            trace = run_chain(model, ChainKind.INSERT_DELETE, steps, seed=seed)
            plain.append(tv_curve(trace, pi, checkpoints).auc())
            trace = run_chain(model, ChainKind.ORBITAL_INSERT_DELETE, steps,
                              seed=seed, group=group)
            orbital.append(tv_curve(trace, pi, checkpoints).auc())
        test = stats.ttest_rel(plain, orbital, alternative="greater")
        gaps[name] = float(np.mean(plain) - np.mean(orbital))
        pvalues[name] = float(test.pvalue)
    elapsed = time.time() - t0
    ordered = gaps["complete"] > gaps["cliques"] and gaps["complete"] > gaps["grid"]
    significant = all(p < 0.05 for p in pvalues.values())
    ok = ordered and significant and elapsed < 600.0
    detail = "; ".join(f"{n}: gap {gaps[n]:.0f}, p {pvalues[n]:.1e}"
                       for n in gaps)
    report(8, "orbital chain dominates on cumulative TV area", ok,
           f"{detail}; {elapsed:.0f}s")


def test_c09_product_replacement_uniformity(benchmark_models):
    draws = 100_000
    ok = True
    details = []
    for name in ("grid", "cliques"):
        _, group = benchmark_models[name]
        els = group.elements()
        index = {g: i for i, g in enumerate(els)}
        sampler = ProductReplacement(group, rng=Random(0))
        counts = np.zeros(len(els))
        for _ in range(draws):
            counts[index[sampler.next()]] += 1
        p = float(stats.chisquare(counts).pvalue)
        ok = ok and p >= 0.01
        details.append(f"order {len(els)}: chi-square p {p:.3f}")
    report(9, "product replacement near-uniform", ok, "; ".join(details))


def _random_colored_graph(rng: Random) -> Graph:
    n = rng.randrange(1, 9)
    n_colors = rng.randrange(1, min(3, n) + 1)
    colors = [rng.randrange(n_colors) for _ in range(n)]
    used = sorted(set(colors))
    remap = {c: i for i, c in enumerate(used)}
    colors = [remap[c] for c in colors]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.4]
    return Graph(n, edges, colors)


def _random_clause_set(rng: Random) -> WeightedClauseSet:
    n = rng.randrange(2, 5)
    variables = [f"x{i}" for i in range(n)]
    out = []
    for _ in range(rng.randrange(1, 5)):
        width = rng.randrange(1, min(3, n) + 1)
        chosen = rng.sample(range(n), width)
        out.append(([(v, rng.random() < 0.5) for v in chosen],
                    rng.choice(["0.5", "1", "2"])))
    return WeightedClauseSet(variables, out)


def test_c10_oracle_equivalence():
    rng = Random(4242)
    graphs_checked = 0
    for _ in range(100):
        graph = _random_colored_graph(rng)
        found = set(automorphism_generators(graph).elements())
        oracle = set(brute_force_automorphisms(graph))
        assert found == oracle
        graphs_checked += 1

    worst = 0.0
    symmetric_models = 0
    for _ in range(20):
        model = _random_clause_set(rng)
        rep = model_symmetry_group(model)
        if rep.model_group.order() > 1:
            symmetric_models += 1
        pi = exact_distribution(ClauseModel(model))
        for orbit in rep.variable_orbits:
            members = sorted(orbit)
            base = pi.marginal(members[0])
            for v in members[1:]:
                worst = max(worst, abs(pi.marginal(v) - base))
    ok = graphs_checked == 100 and worst <= 1e-12
    report(10, "search equals brute force; orbit marginals equal", ok,
           f"100 graphs exact; {symmetric_models}/20 clause sets symmetric, "
           f"max marginal gap {worst:.1e}")


def test_c11_social_model_feature_orbits():
    counts = {}
    for people in (3, 4, 5):
        model, _ = gen_friends_smokers(people)
        rep = model_symmetry_group(model)
        counts[people] = len(rep.feature_orbits)
    ok = all(c == 7 for c in counts.values())
    report(11, "feature orbit count constant at 7", ok, f"{counts}")
