"""Pinned random streams: draws, traces and detected generators.

The digests were recorded with the tuple-based permutation code that
preceded the `bytes` storage, and the fs7-with-evidence digests with the
dense-signature refinement that preceded the sparse incremental one; the
cliques 10 and fs20-with-evidence digests were recorded with the
list-of-cells refinement that preceded the in-place one.  The
exact-analysis digests (orbital kernels, coupled steps and mixing times)
were recorded with the bisection mixing time, the looped orbit averaging
and the group-scanning coalescence test that preceded the current ones.
Any change to how random numbers are consumed, to the element order of an
enumerated group, to the detection search or to an exact result shows up
here as a changed digest.  The fs4-with-evidence traces were recorded when
`ClauseModel` began to hold the evidence; the fs4 traces without it run the
unconditioned model under the evidence group, as they always have.  States
were tuples of ints when the digests were recorded and are `bytes` now, so
`state_digest` hashes each state as `tuple(s)`.
"""

import hashlib
import math
from random import Random

import pytest

from helpers import FS_EVIDENCE, CoupledSteps, orbit_partition, parse_cycles, two_spin_model
from orbitalmcmc import autgroup, clauses, families
from orbitalmcmc.analysis import coupling_drift, exact_pi_lambda, mixing_time, transition_matrix
from orbitalmcmc.chains import ChainKind, ClauseModel, IndependentSetModel, run_chain
from orbitalmcmc.graphs import Graph
from orbitalmcmc.perm import PermutationGroup, ProductReplacement, SamplerMode

EXACT, PR = SamplerMode.EXACT, SamplerMode.PRODUCT_REPLACEMENT
GRAPHS = {"grid3": (families.gen_grid, 3),
          "cliques3": (families.gen_connected_cliques, 3),
          "complete3": (families.gen_complete, 3)}

GOLDEN = {
    "gens/grid3": "2e4128c893687e5d",
    "gens/cliques3": "9d930e0bcd498caf",
    "gens/complete3": "07752e6874bc919b",
    "pr/grid3/0": "99ca38150685115a",
    "pr/grid3/1": "490bb5916d2b9949",
    "pr/cliques3/0": "b26eb5061a1b168c",
    "pr/cliques3/1": "23808406220f381b",
    "chain/grid3/id/exact": "3c2990f76dc62509",
    "chain/grid3/orbital-id/exact": "eef74a8910744dbf",
    "chain/grid3/orbital-id/pr": "cab93cddc5010dc8",
    "chain/complete3/id/exact": "4c732b4398346718",
    "chain/complete3/orbital-id/exact": "edc1315cb3a38daa",
    "chain/complete3/orbital-id/pr": "ac92da0303182060",
    "gens/fs4/graph": "62141bcd7cf0a61a",
    "gens/fs4/model": "57136691e9015ae6",
    "chain/fs4/gibbs/exact": "8f4f1220c8877184",
    "chain/fs4/orbital-gibbs/exact": "f11927cb78a57be8",
    "chain/fs4/orbital-gibbs/pr": "30052dc7559e4625",
    # the same chains with smokes_p3 clamped false
    "chain/fs4e/gibbs/exact": "68f27a3bcf59df32",
    "chain/fs4e/orbital-gibbs/exact": "ce8ecf7e9db40d30",
    "chain/fs4e/orbital-gibbs/pr": "9685aa7a75ee8d5c",
    # the fs7 graph has 301 vertices, so its group is stored as tuples
    "gens/fs7/graph": "28efee920bad8bc5",
    "orbits/fs7/graph": "45f7fca323cb39f6",
    "gens/fs7/model": "2f5483aea640565d",
    # fs7 with three people pinned, two smoking and one not
    "gens/fs7e/graph": "07330c18623841a6",
    "orbits/fs7e/graph": "f848ea4c9250f5c5",
    "gens/fs7e/model": "a560161b09e2b7b7",
    # past the sizes above: cliques 10 (40 vertices) and fs20 with the fs7
    # evidence (2,420 vertices)
    "gens/cliques10": "f4dbb2e6b20701d4",
    "gens/fs20e/graph": "d19c2a9dae7bc75e",
    "orbits/fs20e/graph": "9071ca770e3f235e",
    "kernel/grid3": "bac07869742a1582",
    "kernel/cliques3": "76c214daae07a8b1",
    "kernel/complete3": "c066cecd24e5d084",
    "kernel/two-spin": "67f6ed4d74e7e591",
    "coupling/grid3": "fc07633365e145c4",
    "coupling/complete2": "5f8fbcf957cbd8d4",
    "coupling/complete3": "5be2d6008e40d3c3",
    # whole coupling_drift reports at seed 78, recorded with the per-step loop
    "drift/grid3": "d6c57c2efcccdd7f",
    "drift/grid4": "b39616099435f295",
    "drift/complete3": "65bb8ae4cf0ec2f0",
    # 324 mixing times: both insert/delete kinds, 3 fugacities, 6 epsilons
    "tau": "8081e8de9f052cb8",
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def state_digest(states) -> str:
    """`digest` of a list of states, each hashed as `tuple(s)`."""
    return digest([tuple(s) for s in states])


def images(group) -> list:
    return [g.mapping for g in group.generators]


@pytest.fixture(scope="module")
def graph_groups():
    out = {name: with_group(make(k)) for name, (make, k) in GRAPHS.items()}
    out["complete2"] = with_group(families.gen_complete(2))
    return out


def with_group(graph):
    return graph, autgroup.automorphism_generators(graph)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_generators(graph_groups, name):
    assert digest(images(graph_groups[name][1])) == GOLDEN[f"gens/{name}"]


@pytest.mark.parametrize("name", ["grid3", "cliques3"])
@pytest.mark.parametrize("seed", [0, 1])
def test_product_replacement_draws(graph_groups, name, seed):
    pr = ProductReplacement(graph_groups[name][1], rng=Random(seed))
    draws = [pr.next().mapping for _ in range(50)]
    assert digest(draws) == GOLDEN[f"pr/{name}/{seed}"]


@pytest.mark.parametrize("name", ["grid3", "complete3"])
@pytest.mark.parametrize("kind,mode", [(ChainKind.INSERT_DELETE, EXACT),
                                       (ChainKind.ORBITAL_INSERT_DELETE, EXACT),
                                       (ChainKind.ORBITAL_INSERT_DELETE, PR)])
def test_insert_delete_traces(graph_groups, name, kind, mode):
    graph, group = graph_groups[name]
    trace = run_chain(IndependentSetModel(graph, 1.0), kind, 2000, seed=7,
                      group=group, mode=mode)
    assert state_digest(trace.states) == GOLDEN[f"chain/{name}/{kind.value}/{mode.value}"]


def test_friends_smokers_detection_and_gibbs_traces():
    model, evidence = families.gen_friends_smokers(4, 0.25, 0)
    report = clauses.model_symmetry_group(model, evidence)
    assert digest(images(report.graph_group)) == GOLDEN["gens/fs4/graph"]
    assert digest(images(report.model_group)) == GOLDEN["gens/fs4/model"]
    chain_model = ClauseModel(model)
    for kind, mode in [(ChainKind.GIBBS, EXACT), (ChainKind.ORBITAL_GIBBS, EXACT),
                       (ChainKind.ORBITAL_GIBBS, PR)]:
        trace = run_chain(chain_model, kind, 2000, seed=7,
                          group=report.model_group, mode=mode)
        assert state_digest(trace.states) == GOLDEN[f"chain/fs4/{kind.value}/{mode.value}"]


def test_friends_smokers_gibbs_traces_with_evidence():
    model, evidence = families.gen_friends_smokers(4, 0.25, 0)
    group = clauses.model_symmetry_group(model, evidence).model_group
    chain_model = ClauseModel(model, evidence)
    pinned = [(model.var_index(name), int(value)) for name, value in evidence.items()]
    for kind, mode in [(ChainKind.GIBBS, EXACT), (ChainKind.ORBITAL_GIBBS, EXACT),
                       (ChainKind.ORBITAL_GIBBS, PR)]:
        trace = run_chain(chain_model, kind, 2000, seed=7, group=group, mode=mode)
        assert all(s[v] == b for s in trace.states for v, b in pinned)
        assert state_digest(trace.states) == GOLDEN[f"chain/fs4e/{kind.value}/{mode.value}"]


def test_detection_beyond_255_points():
    model, evidence = families.gen_friends_smokers(7, 0.3, 0)
    report = clauses.model_symmetry_group(model, evidence)
    assert report.graph_group.n > 255
    assert digest(images(report.graph_group)) == GOLDEN["gens/fs7/graph"]
    orbits = [list(o) for o in orbit_partition(report.graph_group)]
    assert digest(orbits) == GOLDEN["orbits/fs7/graph"]
    assert digest(images(report.model_group)) == GOLDEN["gens/fs7/model"]


def test_detection_with_evidence_classes():
    model, _ = families.gen_friends_smokers(7)
    report = clauses.model_symmetry_group(model, FS_EVIDENCE)
    assert digest(images(report.graph_group)) == GOLDEN["gens/fs7e/graph"]
    orbits = [list(o) for o in orbit_partition(report.graph_group)]
    assert digest(orbits) == GOLDEN["orbits/fs7e/graph"]
    assert digest(images(report.model_group)) == GOLDEN["gens/fs7e/model"]
    order, orbits = fs_expected(7, FS_EVIDENCE)
    assert report.model_group.order() == order
    assert len(report.variable_orbits) == orbits


def test_cliques10_generators():
    group = autgroup.automorphism_generators(families.gen_connected_cliques(10))
    assert digest(images(group)) == GOLDEN["gens/cliques10"]


def test_detection_past_2000_vertices():
    model, _ = families.gen_friends_smokers(20)
    report = clauses.model_symmetry_group(model, FS_EVIDENCE)
    assert report.graph_group.n > 2000
    assert digest(images(report.graph_group)) == GOLDEN["gens/fs20e/graph"]
    orbits = [list(o) for o in orbit_partition(report.graph_group)]
    assert digest(orbits) == GOLDEN["orbits/fs20e/graph"]
    order, orbits = fs_expected(20, FS_EVIDENCE)
    assert report.model_group.order() == order
    assert len(report.variable_orbits) == orbits


def fs_expected(people: int, evidence: dict) -> tuple[int, int]:
    """Group order and variable-orbit count implied by the evidence classes."""
    sizes = [people - len(evidence)]
    sizes += [sum(1 for v in evidence.values() if v is value) for value in (True, False)]
    sizes = [s for s in sizes if s]
    order = math.prod(math.factorial(s) for s in sizes)
    # smokes and cancer: one orbit per class; friends: one per ordered pair
    # of classes, same-class pairs only for classes with two or more people
    orbits = 2 * len(sizes) + len(sizes) * (len(sizes) - 1) + sum(s >= 2 for s in sizes)
    return order, orbits


@pytest.mark.parametrize("evidence", [{}, FS_EVIDENCE], ids=["none", "pinned"])
def test_fs12_variable_orbits(evidence):
    model, _ = families.gen_friends_smokers(12)
    report = clauses.model_symmetry_group(model, evidence)
    assert len(report.variable_orbits) == fs_expected(12, evidence)[1]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_orbital_insert_delete_kernels(graph_groups, name):
    graph, group = graph_groups[name]
    matrix = transition_matrix(IndependentSetModel(graph, 1.0),
                               ChainKind.ORBITAL_INSERT_DELETE, group)
    assert digest(matrix.rows.tobytes()) == GOLDEN[f"kernel/{name}"]


def test_orbital_gibbs_kernel():
    swap = PermutationGroup([parse_cycles("(0 1)", n=2)])
    matrix = transition_matrix(ClauseModel(two_spin_model()), ChainKind.ORBITAL_GIBBS, swap)
    assert digest(matrix.rows.tobytes()) == GOLDEN["kernel/two-spin"]


@pytest.mark.parametrize("name,steps", [("grid3", 3000), ("complete2", 3000),
                                        ("complete3", 500)])
def test_coupled_steps(graph_groups, name, steps):
    graph, group = graph_groups[name]
    sim = CoupledSteps(IndependentSetModel(graph, 1.0), group)
    rng = Random(52)
    pairs = sim.pairs()
    moves = []
    for _ in range(steps):
        upper, lower = pairs[rng.randrange(len(pairs))]
        new_upper, new_lower, case = sim.step(upper, lower, rng)
        moves.append((tuple(new_upper), tuple(new_lower), case))
    assert digest(moves) == GOLDEN[f"coupling/{name}"]


@pytest.mark.parametrize("name,trials", [("grid3", 100_000), ("grid4", 100_000),
                                         ("complete3", 2_000)])
def test_coupling_drift_reports(graph_groups, name, trials):
    # grid 3 and 4 at 100,000 trials are the acceptance suite's and perfbench's call
    graph, group = graph_groups.get(name) or with_group(families.gen_grid(4))
    report = coupling_drift(IndependentSetModel(graph, 1.0), group, trials, seed=78)
    assert digest(report) == GOLDEN[f"drift/{name}"]


def test_mixing_times(graph_groups):
    complete = [Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
                for n in range(4, 9)]
    cases = [graph_groups[name] for name in ["grid3", "cliques3", "complete2", "complete3"]]
    cases += [with_group(graph) for graph in complete]
    taus = []
    for graph, group in cases:
        for lam in (0.5, 1.0, 2.0):
            model = IndependentSetModel(graph, lam)
            pi = exact_pi_lambda(graph, lam)
            for kind in (ChainKind.INSERT_DELETE, ChainKind.ORBITAL_INSERT_DELETE):
                matrix = transition_matrix(model, kind, group)
                for eps in (0.5, 0.25, 0.1, 0.05, 0.01, 0.001):
                    taus.append(mixing_time(matrix, pi, eps))
    assert digest(taus) == GOLDEN["tau"]
